"""Host-boundary record/replay and self-contained crash bundles.

Determinism inside the interpreter is free: both engines are pure
functions of module bytes + instance state. What is *not* deterministic is
everything crossing the host boundary — host-function results (``env``
imports returning clock values, I/O results, …), the wall-clock reads the
:class:`~repro.interp.limits.Meter` makes for deadline checks, and the
faults an analysis hook raises (plus the containment decisions they
trigger). This module captures exactly those events:

* :class:`Recorder` — wraps a live run; every host-boundary event is
  appended, in order, to an in-memory log serialized as JSONL.
* :class:`Replayer` — drives a later run from a recorded log: host calls
  return the recorded results without invoking the host, clock reads
  return recorded readings, and hook faults are *verified* against the
  log. Any mismatch raises
  :class:`~repro.wasm.errors.ReplayDivergence` naming the log entry.

Recorder and Replayer expose the same interface, so the machine and the
Wasabi runtime hold a single ``_replay`` slot and never branch on mode.
The disabled path follows the hoisted-guard discipline: machines without
replay pay one ``is not None`` test per host call and nothing else.

**Engine independence.** Wasabi's generated low-level hooks are host
functions too, but they are *not* recorded: the pre-decoded engine
dispatches them through fused ``OP_HOOK`` sites that bypass the
host-call path, so recording them would bake the
engine choice into the log. Excluding them keeps logs replayable across
engines — record on the pre-decoded engine, replay on the legacy one,
and vice versa (hooks re-execute live during replay; their *faults* are
verified, not their calls). Clock streams are consumed tolerantly
(repeating the final reading once exhausted) because deadline-check
cadence is engine-internal pacing, not guest-visible state; host-call and
fault streams are strict.

Crash bundles (:func:`write_crash_bundle` / :func:`load_crash_bundle`)
pack a failure into one self-contained directory: the module bytes, the
pre-invocation state snapshot, the replay log, the resource limits,
engine flags, analysis configuration, and a metrics snapshot — everything
``repro replay`` needs to reproduce the failure bit-for-bit on another
machine.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from pathlib import Path

from ..wasm import errors as _errors
from ..wasm.errors import ReplayDivergence, SnapshotError, WasmError
from ..wasm.types import GlobalType, MemoryType, ValType
from .host import Linker
from .snapshot import Snapshot, decode_values, encode_values

#: Schema tag on the first line of every replay log.
REPLAY_SCHEMA = "repro.replay/1"
#: Schema tag in every crash-bundle manifest.
BUNDLE_SCHEMA = "repro.bundle/1"

#: Entry kinds verified strictly during replay; leftover entries of these
#: kinds at :meth:`Replayer.finish` are divergences. (``clock`` is
#: intentionally absent: deadline-check cadence is engine pacing.)
STRICT_KINDS = ("host_call", "wasi_call", "hook_fault", "quarantine")


def _encode_error(exc: BaseException) -> dict:
    return {"type": exc.__class__.__name__, "message": str(exc)}


def _decode_error(err: dict) -> Exception:
    """Rebuild a recorded exception for re-raising during replay.

    Resolves the class from the wasm error hierarchy first, then builtins;
    unknown types degrade to :class:`WasmError` (the class name is kept in
    the message so triage still sees it).
    """
    name = err.get("type", "WasmError")
    cls = getattr(_errors, name, None)
    if not (isinstance(cls, type) and issubclass(cls, Exception)):
        import builtins
        cls = getattr(builtins, name, None)
    if not (isinstance(cls, type) and issubclass(cls, Exception)):
        return WasmError(f"[{name}] {err.get('message', '')}")
    try:
        return cls(err.get("message", ""))
    except TypeError:
        return WasmError(f"[{name}] {err.get('message', '')}")


class Recorder:
    """Records every host-boundary event of a live run, in order.

    Hand one to ``Machine(replay=...)`` (and through
    ``AnalysisSession(replay=...)`` for instrumented runs); afterwards
    :meth:`write` persists the log as JSONL.
    """

    is_replaying = False

    def __init__(self):
        self.entries: list[dict] = []

    # -- the host-boundary interface (shared with Replayer) -----------------

    def host_call(self, name: str, args, invoke):
        """Invoke a host function and record its outcome.

        ``invoke`` performs the actual call (including strict result
        coercion) and returns the canonical result list; exceptions are
        recorded too, so a replay reproduces a host-raised trap without
        the host.
        """
        entry = {"kind": "host_call", "name": name,
                 "args": encode_values(args)}
        try:
            results = invoke()
        except Exception as exc:
            entry["error"] = _encode_error(exc)
            self.entries.append(entry)
            raise
        entry["results"] = encode_values(results)
        self.entries.append(entry)
        return results

    def wasi_call(self, name: str, args, invoke):
        """Invoke a WASI syscall and record its outcome *and memory writes*.

        Unlike :meth:`host_call`, WASI syscalls have guest-visible side
        effects beyond their return values — ``fd_read`` writes into
        linear memory. ``invoke`` returns ``(values, writes)`` where
        ``writes`` is a list of ``(addr, bytes)`` pairs already applied to
        memory; both are recorded so a replay (which never re-enters the
        in-memory FS) can re-apply them byte-for-byte.
        """
        entry = {"kind": "wasi_call", "name": name,
                 "args": encode_values(args)}
        try:
            values, writes = invoke()
        except Exception as exc:
            entry["error"] = _encode_error(exc)
            self.entries.append(entry)
            raise
        entry["results"] = encode_values(values)
        entry["writes"] = [
            {"addr": addr, "data": base64.b64encode(bytes(data)).decode("ascii")}
            for addr, data in writes]
        self.entries.append(entry)
        return values, writes

    def bind_clock(self, base_clock):
        """Wrap a clock so every reading is recorded.

        Must wrap *before* the Meter is constructed — ``Meter.__init__``
        arms the deadline, which reads the clock.
        """
        entries = self.entries

        def recording_clock() -> float:
            t = base_clock()
            entries.append({"kind": "clock", "t": t})
            return t

        return recording_clock

    def hook_fault(self, hook_name: str, exc: BaseException, location,
                   action: str) -> None:
        """Record one contained analysis-hook fault and the policy verdict."""
        self.entries.append({
            "kind": "hook_fault", "hook": hook_name,
            "location": str(location) if location is not None else None,
            "error": _encode_error(exc), "action": action,
        })

    def quarantine(self, hook_name: str) -> None:
        """Record a quarantine decision (hook dispatch swapped to no-op)."""
        self.entries.append({"kind": "quarantine", "hook": hook_name})

    # -- serialization -------------------------------------------------------

    def to_jsonl(self) -> str:
        lines = [json.dumps({"schema": REPLAY_SCHEMA})]
        lines.extend(json.dumps(entry) for entry in self.entries)
        return "\n".join(lines) + "\n"

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_jsonl())
        return path


def load_log(path: str | Path) -> list[dict]:
    """Load a JSONL replay log, validating the schema header.

    Any way the file can be broken — missing, unreadable, truncated
    mid-line, not JSON at all — surfaces as :class:`WasmError`, so the CLI
    answers with its taxonomy instead of a traceback.
    """
    try:
        lines = [ln for ln in Path(path).read_text().splitlines()
                 if ln.strip()]
    except OSError as exc:
        raise WasmError(f"cannot read replay log {path}: {exc}") from None
    if not lines:
        raise WasmError(f"empty replay log {path}")
    try:
        header = json.loads(lines[0])
        entries = [json.loads(ln) for ln in lines[1:]]
    except json.JSONDecodeError as exc:
        raise WasmError(f"corrupt replay log {path}: {exc}") from None
    if not isinstance(header, dict) or header.get("schema") != REPLAY_SCHEMA:
        schema = header.get("schema") if isinstance(header, dict) else None
        raise WasmError(
            f"not a repro replay log (schema {schema!r}, "
            f"expected {REPLAY_SCHEMA!r})")
    return entries


class Replayer:
    """Drives a run from a recorded log, verifying it never diverges.

    Entries are consumed as independent per-kind streams (host calls,
    clock readings, hook faults, quarantines): the *relative* interleaving
    of clock reads with host calls is engine pacing, while each stream's
    own order is guest-determined and checked strictly. A mismatch — or
    strict entries left unconsumed when :meth:`finish` is called — raises
    :class:`ReplayDivergence` with the offending entry index.
    """

    is_replaying = True

    def __init__(self, entries: list[dict], telemetry=None):
        self._streams: dict[str, list[dict]] = {}
        for entry in entries:
            self._streams.setdefault(entry["kind"], []).append(entry)
        self._cursors: dict[str, int] = {kind: 0 for kind in self._streams}
        #: Optional Telemetry sink; charged one ``n_replayed_host_calls``
        #: per host call served from the log.
        self.telemetry = telemetry

    @classmethod
    def load(cls, path: str | Path, telemetry=None) -> "Replayer":
        return cls(load_log(path), telemetry=telemetry)

    def _next(self, kind: str) -> tuple[int, dict | None]:
        index = self._cursors.get(kind, 0)
        stream = self._streams.get(kind, ())
        if index >= len(stream):
            return index, None
        self._cursors[kind] = index + 1
        return index, stream[index]

    # -- the host-boundary interface (shared with Recorder) -----------------

    def host_call(self, name: str, args, invoke):
        """Serve one host call from the log; ``invoke`` is never called."""
        index, entry = self._next("host_call")
        if entry is None:
            raise ReplayDivergence(
                f"host call {name}({list(args)!r}) but the recorded log has "
                f"no more host calls", index=index)
        if entry["name"] != name:
            raise ReplayDivergence(
                f"host call {name} but the log recorded {entry['name']}",
                index=index)
        if entry["args"] != encode_values(args):
            raise ReplayDivergence(
                f"host call {name} with arguments {list(args)!r}, but the "
                f"log recorded {decode_values(entry['args'])!r}", index=index)
        tele = self.telemetry
        if tele is not None:
            tele.n_replayed_host_calls += 1
        if "error" in entry:
            raise _decode_error(entry["error"])
        return decode_values(entry["results"])

    def wasi_call(self, name: str, args, invoke):
        """Serve one WASI syscall from the log; ``invoke`` is never called.

        Returns ``(values, writes)`` mirroring the recording protocol; the
        caller (the WASI context) applies ``writes`` to guest memory, so
        replayed runs see identical memory effects without the in-memory
        FS, the fault plane, or the host clock.
        """
        index, entry = self._next("wasi_call")
        if entry is None:
            raise ReplayDivergence(
                f"WASI call {name}({list(args)!r}) but the recorded log has "
                f"no more WASI calls", index=index)
        if entry["name"] != name:
            raise ReplayDivergence(
                f"WASI call {name} but the log recorded {entry['name']}",
                index=index)
        if entry["args"] != encode_values(args):
            raise ReplayDivergence(
                f"WASI call {name} with arguments {list(args)!r}, but the "
                f"log recorded {decode_values(entry['args'])!r}", index=index)
        tele = self.telemetry
        if tele is not None:
            tele.n_replayed_host_calls += 1
        if "error" in entry:
            raise _decode_error(entry["error"])
        writes = [(w["addr"], base64.b64decode(w["data"]))
                  for w in entry.get("writes", ())]
        return decode_values(entry["results"]), writes

    def bind_clock(self, base_clock):
        """Replace a clock with the recorded reading stream.

        Tolerant on exhaustion: once the stream runs out the final reading
        repeats (an engine that checks the deadline more often than the
        recording engine did must not fabricate time). The reading that
        triggered a recorded ``DeadlineExceeded`` is in the stream, so the
        trap still reproduces.
        """
        def replayed_clock() -> float:
            index, entry = self._next("clock")
            if entry is None:
                stream = self._streams.get("clock", ())
                return stream[-1]["t"] if stream else 0.0
            return entry["t"]

        return replayed_clock

    def hook_fault(self, hook_name: str, exc: BaseException, location,
                   action: str) -> None:
        """Verify a live hook fault against the next recorded one."""
        index, entry = self._next("hook_fault")
        loc = str(location) if location is not None else None
        if entry is None:
            raise ReplayDivergence(
                f"hook {hook_name} faulted ({exc.__class__.__name__}: {exc}) "
                f"but the recorded log has no more hook faults",
                index=index, location=location)
        live = {"hook": hook_name, "location": loc,
                "error": _encode_error(exc), "action": action}
        for key in ("hook", "location", "error", "action"):
            if entry.get(key) != live[key]:
                raise ReplayDivergence(
                    f"hook fault mismatch: live {key}={live[key]!r}, "
                    f"recorded {key}={entry.get(key)!r}",
                    index=index, location=location)

    def quarantine(self, hook_name: str) -> None:
        """Verify a live quarantine decision against the log."""
        index, entry = self._next("quarantine")
        if entry is None or entry["hook"] != hook_name:
            recorded = entry["hook"] if entry else "none"
            raise ReplayDivergence(
                f"hook {hook_name} quarantined, but the log recorded "
                f"{recorded}", index=index)

    def finish(self) -> None:
        """Check that every strict recorded entry was consumed.

        Call after the replayed run completes (success or the expected
        error); leftovers mean the replay took a shorter path than the
        recording — a divergence even though no single event mismatched.
        """
        for kind in STRICT_KINDS:
            stream = self._streams.get(kind, ())
            cursor = self._cursors.get(kind, 0)
            if cursor < len(stream):
                raise ReplayDivergence(
                    f"{len(stream) - cursor} recorded {kind} entries were "
                    f"never replayed (first unconsumed: "
                    f"{stream[cursor]!r})", index=cursor)


def replay_linker(module) -> Linker:
    """Build a linker satisfying a module's imports for replay.

    Replayed runs never enter host functions (results come from the log),
    so function imports get placeholder implementations that raise if
    reached — reaching one means the machine was not given a Replayer.
    Memory/table/global imports are materialized from their declared types
    (their contents come from the bundle's state snapshot).
    """
    linker = Linker()
    for imp in module.imports:
        desc = imp.desc
        if isinstance(desc, int):
            functype = module.types[desc]

            def placeholder(args, _name=f"{imp.module}.{imp.name}"):
                raise WasmError(
                    f"host function {_name} entered during replay "
                    f"(machine is missing its Replayer)")

            linker.define_function(imp.module, imp.name, functype, placeholder)
        elif isinstance(desc, MemoryType):
            linker.define_memory(imp.module, imp.name, desc.limits)
        elif isinstance(desc, GlobalType):
            zero = 0.0 if desc.valtype in (ValType.F32, ValType.F64) else 0
            linker.define_global(imp.module, imp.name, desc, zero)
        else:  # TableType
            linker.define_table(imp.module, imp.name, desc.limits)
    return linker


# -- crash bundles ------------------------------------------------------------


@dataclass
class CrashBundle:
    """An in-memory view of a crash-bundle directory.

    ``manifest`` carries the failure description (error class/message,
    failing stage or invocation sequence, engine flags, limits, analyses,
    metrics); ``module_bytes`` the exact binary; ``snapshot`` the
    pre-invocation state (None for pipeline-stage failures that never
    instantiated); ``log`` the recorded host-boundary entries (None
    likewise); ``flight`` the service flight-recorder tail — the
    structured-log records leading up to a worker kill (None for
    non-service bundles).
    """

    path: Path
    manifest: dict
    module_bytes: bytes
    snapshot: Snapshot | None = None
    log: list[dict] | None = field(default=None)
    flight: list[dict] | None = field(default=None)

    @property
    def error(self) -> dict:
        return self.manifest.get("error", {})

    def replayer(self, telemetry=None) -> Replayer | None:
        if self.log is None:
            return None
        return Replayer(self.log, telemetry=telemetry)


def write_crash_bundle(directory: str | Path, module_bytes: bytes,
                       manifest: dict, snapshot: Snapshot | None = None,
                       recorder: Recorder | None = None,
                       flight: list[dict] | None = None) -> Path:
    """Write a self-contained crash bundle directory.

    Layout: ``manifest.json`` (schema-tagged), ``module.wasm``,
    optionally ``snapshot.json``, ``replay.jsonl``, and ``flight.jsonl``
    (the service flight-recorder tail). Existing files are overwritten —
    a bundle directory is owned by its failure.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    full = {"schema": BUNDLE_SCHEMA}
    full.update(manifest)
    full["files"] = {"module": "module.wasm"}
    if snapshot is not None:
        full["files"]["snapshot"] = "snapshot.json"
    if recorder is not None:
        full["files"]["replay"] = "replay.jsonl"
    if flight is not None:
        full["files"]["flight"] = "flight.jsonl"
    (directory / "module.wasm").write_bytes(module_bytes)
    if snapshot is not None:
        snapshot.write(directory / "snapshot.json")
    if recorder is not None:
        recorder.write(directory / "replay.jsonl")
    if flight is not None:
        from ..obs.log import flight_to_jsonl
        (directory / "flight.jsonl").write_text(flight_to_jsonl(flight))
    (directory / "manifest.json").write_text(
        json.dumps(full, indent=2, default=str) + "\n")
    return directory


def load_crash_bundle(directory: str | Path) -> CrashBundle:
    """Load a crash bundle, validating its schema tag.

    Corrupt or truncated bundles (hand-edited manifests, interrupted
    writes, missing payload files) raise :class:`WasmError` /
    :class:`SnapshotError` — never a bare ``json`` or ``OSError``
    traceback — so ``repro bundle`` / ``repro replay`` keep their exit
    taxonomy on damaged input.
    """
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.is_file():
        raise WasmError(f"{directory} is not a crash bundle "
                        f"(no manifest.json)")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise WasmError(
            f"{directory}: corrupt bundle manifest: {exc}") from None
    if not isinstance(manifest, dict):
        raise WasmError(f"{directory}: bundle manifest is not a JSON object")
    if manifest.get("schema") != BUNDLE_SCHEMA:
        raise WasmError(
            f"not a repro crash bundle (schema {manifest.get('schema')!r}, "
            f"expected {BUNDLE_SCHEMA!r})")
    files = manifest.get("files", {})
    if not isinstance(files, dict):
        raise WasmError(f"{directory}: bundle manifest 'files' entry is "
                        f"not a JSON object")
    module_path = directory / files.get("module", "module.wasm")
    try:
        module_bytes = module_path.read_bytes()
    except OSError as exc:
        raise WasmError(f"{directory}: bundle module {module_path.name!r} "
                        f"cannot be read: {exc}") from None
    snapshot = None
    if "snapshot" in files:
        try:
            snapshot = Snapshot.read(directory / files["snapshot"])
        except FileNotFoundError:
            raise SnapshotError(
                f"bundle manifest names snapshot {files['snapshot']!r} "
                f"but the file is missing") from None
        except (OSError, json.JSONDecodeError, KeyError, TypeError,
                ValueError) as exc:
            raise SnapshotError(
                f"corrupt bundle snapshot {files['snapshot']!r}: "
                f"{exc}") from None
    log = None
    if "replay" in files:
        log = load_log(directory / files["replay"])
    flight = None
    if "flight" in files:
        from ..obs.log import flight_from_jsonl
        flight_path = directory / files["flight"]
        try:
            flight = flight_from_jsonl(flight_path.read_text())
        except FileNotFoundError:
            raise WasmError(
                f"bundle manifest names flight log {files['flight']!r} "
                f"but the file is missing") from None
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            raise WasmError(f"{directory}: corrupt bundle flight log "
                            f"{files['flight']!r}: {exc}") from None
    return CrashBundle(path=directory, manifest=manifest,
                       module_bytes=module_bytes, snapshot=snapshot, log=log,
                       flight=flight)
