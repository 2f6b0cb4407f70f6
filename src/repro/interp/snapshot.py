"""Versioned, serializable snapshots of full instance state.

A snapshot captures everything the guest can observe about an instance at
an *invocation boundary* (no live frames): linear memory (as sparse
non-zero 64 KiB pages plus a SHA-256 content digest), globals, the
function table, and the machine's cumulative meter residue (fuel spent,
peak depth, deadline-check phase). Both engines produce and consume the
same representation — state capture happens at the instance level, below
the engine split — and the differential tests assert that an execution
resumed from ``restore(snapshot(m))`` is bit-identical on either engine.

Design rules:

* **Plain data.** ``Snapshot.as_dict()`` is JSON-ready (page contents are
  base64, floats are hex-encoded IEEE-754 bit patterns so NaN payloads and
  signed zeros survive the round trip exactly); ``Snapshot.from_dict``
  validates the schema tag.
* **Strict restore.** Restoring checks shape (global count/types, table
  size) against the live instance and re-verifies the memory content
  digest afterwards; any mismatch raises
  :class:`~repro.wasm.errors.SnapshotError` rather than silently resuming
  from corrupt state.
* **No engine state.** Decoded streams, hook bindings, and block-matching
  tables are derived data; a snapshot restored into a freshly instantiated
  module (same bytes, either engine) resumes identically.
"""

from __future__ import annotations

import base64
import hashlib
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from ..wasm.errors import SnapshotError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .machine import Instance

#: Schema tag stamped into every snapshot (bump on breaking change).
SNAPSHOT_SCHEMA = "repro.snapshot/1"


# -- exact value codec (shared with repro.interp.replay) ------------------------


def encode_value(value: int | float) -> int | dict:
    """JSON-encode one canonical runtime value, bit-exactly.

    Integers (already in canonical unsigned form) pass through — JSON
    integers are arbitrary precision. Floats are encoded as the hex of
    their little-endian IEEE-754 binary64 pattern, so NaN payloads,
    infinities, and ``-0.0`` survive exactly (``json`` would round-trip
    ``repr`` but cannot represent NaN portably).
    """
    if isinstance(value, float):
        return {"f": struct.pack("<d", value).hex()}
    return value


def decode_value(encoded: int | dict) -> int | float:
    """Inverse of :func:`encode_value`."""
    if isinstance(encoded, dict):
        return struct.unpack("<d", bytes.fromhex(encoded["f"]))[0]
    return encoded


def encode_values(values) -> list:
    return [encode_value(v) for v in values]


def decode_values(encoded) -> list:
    return [decode_value(v) for v in encoded]


# -- the snapshot -----------------------------------------------------------------


@dataclass
class Snapshot:
    """Full instance state at an invocation boundary.

    ``memory`` is ``None`` for modules without linear memory; otherwise
    ``{"size_pages": int, "pages": {page_idx: bytes}, "digest": sha256hex}``
    with only non-zero pages present. ``table`` is the entries list (or
    None), ``globals_`` the canonical global values, and ``usage`` the
    meter residue (empty for unmetered machines).
    """

    memory: dict | None = None
    globals_: list = field(default_factory=list)
    table: list | None = None
    usage: dict = field(default_factory=dict)

    # -- serialization -------------------------------------------------------

    def as_dict(self) -> dict:
        memory = None
        if self.memory is not None:
            memory = {
                "size_pages": self.memory["size_pages"],
                "digest": self.memory["digest"],
                "pages": {str(idx): base64.b64encode(chunk).decode("ascii")
                          for idx, chunk in sorted(self.memory["pages"].items())},
            }
        return {
            "schema": SNAPSHOT_SCHEMA,
            "memory": memory,
            "globals": encode_values(self.globals_),
            "table": self.table,
            "usage": dict(self.usage),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Snapshot":
        if payload.get("schema") != SNAPSHOT_SCHEMA:
            raise SnapshotError(
                f"not a repro snapshot (schema {payload.get('schema')!r}, "
                f"expected {SNAPSHOT_SCHEMA!r})")
        memory = None
        raw_memory = payload.get("memory")
        if raw_memory is not None:
            memory = {
                "size_pages": int(raw_memory["size_pages"]),
                "digest": raw_memory["digest"],
                "pages": {int(idx): base64.b64decode(chunk)
                          for idx, chunk in raw_memory.get("pages", {}).items()},
            }
        return cls(
            memory=memory,
            globals_=decode_values(payload.get("globals", [])),
            table=list(payload["table"]) if payload.get("table") is not None
            else None,
            usage=dict(payload.get("usage", {})),
        )

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Snapshot":
        return cls.from_dict(json.loads(text))

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_json())
        return path

    @classmethod
    def read(cls, path: str | Path) -> "Snapshot":
        return cls.from_json(Path(path).read_text())


def _memory_digest(data: bytearray) -> str:
    return hashlib.sha256(bytes(data)).hexdigest()


def snapshot_instance(instance: "Instance") -> Snapshot:
    """Capture an instance's full state (call only at invocation boundaries)."""
    snap = Snapshot()
    memory = instance.memory
    if memory is not None:
        snap.memory = {
            "size_pages": memory.size_pages,
            "pages": memory.snapshot_pages(),
            "digest": _memory_digest(memory.data),
        }
    snap.globals_ = [g.value for g in instance.globals]
    if instance.table is not None:
        snap.table = instance.table.snapshot_entries()
    meter = instance.machine._meter
    if meter is not None:
        snap.usage = meter.residue()
    return snap


def restore_instance(instance: "Instance", snap: Snapshot) -> None:
    """Restore a snapshot into an instance of the same module.

    Shape mismatches (missing memory/table, wrong global count) and a
    post-restore digest mismatch raise :class:`SnapshotError`; on success
    the instance resumes exactly the captured state on either engine.
    """
    if snap.memory is not None:
        if instance.memory is None:
            raise SnapshotError("snapshot has linear memory, instance has none")
        instance.memory.restore_pages(snap.memory["size_pages"],
                                      snap.memory["pages"])
        digest = _memory_digest(instance.memory.data)
        if digest != snap.memory["digest"]:
            raise SnapshotError(
                f"memory digest mismatch after restore: snapshot "
                f"{snap.memory['digest'][:12]}…, restored {digest[:12]}…")
    elif instance.memory is not None and instance.memory.size_bytes:
        raise SnapshotError("instance has linear memory, snapshot has none")
    if len(snap.globals_) != len(instance.globals):
        raise SnapshotError(
            f"snapshot has {len(snap.globals_)} globals, instance has "
            f"{len(instance.globals)}")
    for box, value in zip(instance.globals, snap.globals_):
        box.value = value
    if snap.table is not None:
        if instance.table is None:
            raise SnapshotError("snapshot has a table, instance has none")
        instance.table.restore_entries(snap.table)
    meter = instance.machine._meter
    if meter is not None and snap.usage:
        meter.restore_residue(snap.usage)


def diff_instance(instance: "Instance", snap: Snapshot) -> list[str]:
    """Differences between an instance's live state and a snapshot.

    Returns human-readable mismatch descriptions (empty = states agree).
    Used by the differential tests and by ``repro bundle`` verification.
    """
    mismatches: list[str] = []
    live = snapshot_instance(instance)
    if (live.memory is None) != (snap.memory is None):
        mismatches.append("memory presence differs")
    elif live.memory is not None and snap.memory is not None:
        if live.memory["size_pages"] != snap.memory["size_pages"]:
            mismatches.append(
                f"memory size: live {live.memory['size_pages']} pages, "
                f"snapshot {snap.memory['size_pages']}")
        if live.memory["digest"] != snap.memory["digest"]:
            mismatches.append(
                f"memory digest: live {live.memory['digest'][:12]}…, "
                f"snapshot {snap.memory['digest'][:12]}…")
    if encode_values(live.globals_) != encode_values(snap.globals_):
        mismatches.append(
            f"globals: live {live.globals_!r}, snapshot {snap.globals_!r}")
    if live.table != snap.table:
        mismatches.append("table entries differ")
    return mismatches
