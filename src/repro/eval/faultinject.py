"""Seeded fault-injection harness for the binary pipeline.

Generates deterministic corrupted variants of known-good ``.wasm`` binaries
(bit flips, LEB128 continuation-bit tampering, section-size lies,
truncations, splices, insertions) and drives each mutant through the full
pipeline — decode → validate → instrument → encode → re-decode, optionally
followed by fuel-limited execution on both engines — asserting that the
toolkit only ever fails with :class:`~repro.wasm.errors.WasmError`
subclasses. Any other exception (``IndexError``, ``struct.error``,
``KeyError``, …) is an *escape*: a path where malformed input reaches code
that assumed well-formedness.

Everything is keyed off one integer seed, so a campaign is exactly
reproducible: a failure record carries the seed, corpus entry, and mutant
index needed to regenerate the offending binary with
:func:`regenerate_mutant`. The campaign loop itself (sharding, coverage
guidance, signature triage) lives in :mod:`repro.eval.fuzz`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core.analysis import ALL_GROUPS
from ..core.instrument import instrument_module
from ..interp.host import Linker
from ..interp.limits import ResourceLimits
from ..interp.machine import Machine
from ..minic import compile_source
from ..wasm.builder import ModuleBuilder
from ..wasm.decoder import decode_module
from ..wasm.encoder import encode_module
from ..wasm.errors import WasmError
from ..wasm.types import F64, I32, FuncType
from ..wasm.validation import validate_module

#: Pipeline stages, in order; a mutant "reaches" the last stage it survived.
STAGES = ("decode", "validate", "instrument", "encode", "redecode", "execute")

#: Execution budget for mutants that survive static checking. Tight on
#: purpose: a mutant that validates is a legitimate (if weird) program, and
#: the campaign only needs to prove the engines fail cleanly, not run it to
#: completion.
EXECUTE_LIMITS = ResourceLimits(fuel=20_000, deadline_seconds=2.0,
                                max_memory_pages=64, max_call_depth=64)


# -- seed corpus ----------------------------------------------------------------


def _kitchen_sink_module():
    """A small module exercising every section id the decoder knows."""
    builder = ModuleBuilder("kitchen_sink")
    printer = builder.import_function("env", "print_f64", FuncType((F64,), ()))
    builder.add_memory(1, 4)
    glob = builder.add_global(I32, mutable=True, init=7)

    fb = builder.function((I32, I32), (I32,), name="add", export="add")
    fb.get_local(0).get_local(1).emit("i32.add")
    add_idx = fb.func_idx
    fb.finish()

    fb = builder.function((I32,), (I32,), name="loops", export="loops")
    acc = fb.add_local(I32)
    fb.block()
    fb.loop()
    fb.get_local(acc).i32_const(1).emit("i32.add").set_local(acc)
    fb.get_local(acc).get_local(0).emit("i32.ge_s").br_if(1)
    fb.br(0)
    fb.end()
    fb.end()
    fb.get_local(acc)
    loops_idx = fb.func_idx
    fb.finish()

    fb = builder.function((I32,), (I32,), name="mem", export="mem")
    fb.i32_const(16).get_local(0).store("i32.store")
    fb.i32_const(16).load("i32.load")
    fb.get_global(glob).emit("i32.add")
    fb.f64_const(1.5).call(printer)
    fb.finish()

    builder.add_table(2)
    builder.add_element(0, [add_idx, loops_idx])
    builder.add_data(32, b"fault-injection corpus")
    return builder.build()


def wasi_corpus() -> dict[str, bytes]:
    """Known-good WASI-preview1 binaries for host-boundary fuzzing.

    Mutants of these exercise the syscall surface: :func:`_execute_mutant`
    detects the preview1 imports and attaches a :class:`~repro.wasi.WasiContext`
    whose fault plane is seeded from the mutant's own bytes, so every run
    is still a pure function of the binary. Deterministic by construction
    (the MiniC sources are fixed and compilation is randomness-free).
    """
    from ..wasm.encoder import encode_module as _encode
    from ..workloads.wasi_io import wasi_io_module, wasi_io_names
    return {f"wasi_{name}": _encode(wasi_io_module(name))
            for name in wasi_io_names()}


def seed_corpus(wasi: bool = False) -> dict[str, bytes]:
    """Encoded known-good binaries the mutator corrupts.

    Deterministic by construction (no randomness in generation), so the
    same seed always yields byte-identical mutants. The default set is
    pinned by tests; ``wasi=True`` additionally merges :func:`wasi_corpus`
    so campaigns cover the host-boundary syscall surface.
    """
    if wasi:
        corpus = seed_corpus()
        corpus.update(wasi_corpus())
        return corpus
    fib = compile_source("""
        export func fib(n: i32) -> i32 {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
    """, "fib")
    memory = compile_source("""
        memory 1;
        export func touch(v: f64) -> f64 {
            mem_f64[3] = v;
            mem_u8[100] = 200;
            return mem_f64[3];
        }
        export func poke(i: i32) -> i32 {
            mem_u8[i] = 42;
            return mem_u8[i];
        }
    """, "memory")
    return {
        "kitchen_sink": encode_module(_kitchen_sink_module()),
        "fib": encode_module(fib),
        "memory": encode_module(memory),
    }


# -- mutation strategies --------------------------------------------------------


def _mutate_flip(data: bytearray, rng: random.Random) -> str:
    pos = rng.randrange(len(data))
    mask = rng.randrange(1, 256)
    data[pos] ^= mask
    return f"flip@{pos}^{mask:#04x}"


def _mutate_set(data: bytearray, rng: random.Random) -> str:
    pos = rng.randrange(len(data))
    value = rng.randrange(256)
    data[pos] = value
    return f"set@{pos}={value:#04x}"


def _mutate_truncate(data: bytearray, rng: random.Random) -> str:
    cut = rng.randrange(len(data))
    del data[cut:]
    return f"truncate@{cut}"


def _mutate_leb_continuation(data: bytearray, rng: random.Random) -> str:
    """Tamper with LEB128 continuation bits: set 0x80 on a run of bytes.

    Turns terminated varints into overlong/unterminated ones and shifts
    everything after them — the classic desynchronization attack on
    length-prefixed formats.
    """
    pos = rng.randrange(len(data))
    run = rng.randrange(1, 6)
    for i in range(pos, min(pos + run, len(data))):
        data[i] |= 0x80
    return f"leb-cont@{pos}+{run}"


def _mutate_leb_overlong(data: bytearray, rng: random.Random) -> str:
    """Insert redundant continuation bytes, making a varint overlong."""
    pos = rng.randrange(len(data))
    count = rng.randrange(1, 12)
    data[pos:pos] = bytes([0x80]) * count
    return f"leb-overlong@{pos}+{count}"


def _mutate_section_size(data: bytearray, rng: random.Random) -> str:
    """Lie in a top-level section size field.

    Walks the real section framing (id byte + LEB size) and rewrites one
    size with a random single-byte value, desynchronizing the section
    boundary from its contents.
    """
    from ..wasm import leb128

    sections: list[int] = []  # offsets of size fields
    pos = 8
    try:
        while pos < len(data):
            size_at = pos + 1
            size, after = leb128.decode_unsigned(bytes(data), size_at, 32)
            sections.append(size_at)
            pos = after + size
    except WasmError:
        pass
    if not sections:
        return _mutate_flip(data, rng)
    size_at = rng.choice(sections)
    new_size = rng.randrange(128)  # single LEB byte, keeps framing parseable
    data[size_at] = new_size
    return f"section-size@{size_at}={new_size}"


def _mutate_splice(data: bytearray, rng: random.Random) -> str:
    length = rng.randrange(1, max(2, len(data) // 4))
    src = rng.randrange(len(data))
    dst = rng.randrange(len(data))
    chunk = bytes(data[src:src + length])
    data[dst:dst + len(chunk)] = chunk
    return f"splice@{src}->{dst}+{length}"


def _mutate_insert(data: bytearray, rng: random.Random) -> str:
    pos = rng.randrange(len(data) + 1)
    count = rng.randrange(1, 8)
    data[pos:pos] = bytes(rng.randrange(256) for _ in range(count))
    return f"insert@{pos}+{count}"


def _mutate_delete(data: bytearray, rng: random.Random) -> str:
    pos = rng.randrange(len(data))
    count = rng.randrange(1, 8)
    del data[pos:pos + count]
    return f"delete@{pos}+{count}"


MUTATORS = (
    _mutate_flip,
    _mutate_set,
    _mutate_truncate,
    _mutate_leb_continuation,
    _mutate_leb_overlong,
    _mutate_section_size,
    _mutate_splice,
    _mutate_insert,
    _mutate_delete,
)


def mutate(seed_binary: bytes, rng: random.Random,
           max_ops: int = 3) -> tuple[bytes, str]:
    """Apply 1..max_ops random mutations; returns the mutant and its recipe.

    The default (up to three stacked mutations) is the blind-campaign
    setting. Coverage-guided fuzzing passes ``max_ops=1``: single-op
    mutants stay closer to their (interesting) parent, which measurably
    reaches more deep-stage signatures per budget.
    """
    data = bytearray(seed_binary)
    recipes = []
    for _ in range(rng.randrange(1, max_ops + 1)):
        if not data:
            break
        mutator = rng.choice(MUTATORS)
        recipes.append(mutator(data, rng))
    return bytes(data), "; ".join(recipes) or "identity"


def mutant_rng(seed: int, corpus_name: str, index: int) -> random.Random:
    """The independent mutation RNG for one mutant.

    Derived from ``(campaign_seed, corpus_entry, index)`` rather than one
    sequential stream, so any mutant regenerates exactly from its triple —
    shards of a parallel campaign are reproducible in isolation, and
    :func:`regenerate_mutant` stays exact no matter which process (or
    round) originally produced the mutant.
    """
    return random.Random(f"{seed}:{corpus_name}:{index}")


def regenerate_mutant(seed: int, corpus_name: str, index: int,
                      corpus: dict[str, bytes] | None = None,
                      max_ops: int = 3) -> bytes:
    """Re-create the exact mutant a :class:`Failure` record refers to.

    For mutants derived from an *evolved* corpus entry (coverage-guided
    campaigns), pass ``corpus=repro.eval.fuzz.load_corpus_entries(dir)``
    so the ``cov-*`` parent bytes resolve, and ``max_ops=1`` to match the
    guided mutation schedule (bundle manifests record it).
    """
    corpus = corpus if corpus is not None else seed_corpus()
    mutant, _ = mutate(corpus[corpus_name], mutant_rng(seed, corpus_name, index),
                       max_ops=max_ops)
    return mutant


# -- pipeline -------------------------------------------------------------------


@dataclass
class Failure:
    """One escape: a mutant that raised something other than WasmError."""

    corpus_name: str
    index: int
    seed: int
    stage: str
    recipe: str
    exc_type: str
    message: str

    def __str__(self) -> str:
        return (f"[{self.corpus_name}#{self.index} seed={self.seed}] "
                f"{self.stage}: {self.exc_type}: {self.message} "
                f"(recipe: {self.recipe})")


def _permissive_linker() -> Linker:
    """Imports the corpus modules (and most mutants of them) can link.

    Mutated import *names* simply fail resolution with a WasmError, which
    is a clean rejection, not an escape.
    """
    linker = Linker()
    linker.define_function("env", "print_f64", FuncType((F64,), ()),
                           lambda args: None)
    linker.define_function("env", "print_i32", FuncType((I32,), ()),
                           lambda args: None)
    return linker


def _wasi_for_mutant(binary: bytes, module):
    """A deterministic WASI context for mutants importing preview1 syscalls.

    The fault-plane seed derives from the mutant's own bytes, so
    :func:`classify` stays a pure function of the binary: the same mutant
    always sees the same injected errno failures, short transfers, and
    clock skew — reduced bundles replay exactly. Governance bounds are
    tight for the same reason the execute fuel budget is: the campaign
    proves clean failure, not useful work.
    """
    import hashlib

    from ..wasi import FaultPlane, WasiContext, module_imports_wasi
    from ..workloads.wasi_io import SAMPLE_FILES, SAMPLE_STDIN
    if not module_imports_wasi(module):
        return None
    fault_seed = int.from_bytes(hashlib.sha256(binary).digest()[:8], "big")
    from dataclasses import replace
    limits = replace(EXECUTE_LIMITS, max_open_fds=8, max_file_bytes=4096,
                     max_fs_bytes=16384, max_syscalls=512)
    return WasiContext(args=["mutant"], stdin=SAMPLE_STDIN,
                       files=dict(SAMPLE_FILES),
                       faults=FaultPlane(seed=fault_seed, rate=0.25,
                                         escalate_rate=0.02),
                       limits=limits)


def _execute_mutant(binary: bytes, predecode: bool) -> None:
    """Instantiate and poke a statically valid mutant under tight limits.

    Traps and exhaustion during an export call propagate as WasmErrors —
    the pipeline records them as clean execute-stage rejections, so their
    error class (Trap, FuelExhausted, ResourceExhausted, ...) is part of
    the signature space rather than being silently folded into "pass".
    WASI mutants additionally run against an injected-fault host module
    (:func:`_wasi_for_mutant`); any raw host exception crossing the
    boundary — instead of a well-formed errno or WasmError — is an escape.
    """
    module = decode_module(binary)
    machine = Machine(predecode=predecode, limits=EXECUTE_LIMITS)
    linker = _permissive_linker()
    wasi = _wasi_for_mutant(binary, module)
    if wasi is not None:
        wasi.register(linker)
    instance = machine.instantiate(module, linker)
    if wasi is not None:
        wasi.bind_memory(instance)
    for export in module.exports:
        if export.kind != "func":
            continue
        functype = module.func_type(export.idx)
        args = [1 if t is I32 else 1.0 for t in functype.params]
        machine.call(instance, export.idx, args)


def _pipeline_stage(binary: bytes, execute: bool,
                    engines: tuple[bool, ...]) -> tuple[str | None, WasmError | None]:
    """Drive one binary through the pipeline, keeping the rejecting error.

    Returns ``(None, None)`` if every stage passed, or ``(stage, exc)`` for
    the stage that cleanly rejected it. Non-WasmError exceptions propagate.
    """
    try:
        module = decode_module(binary)
    except WasmError as exc:
        return "decode", exc
    try:
        validate_module(module)
    except WasmError as exc:
        return "validate", exc
    try:
        result = instrument_module(module, groups=ALL_GROUPS)
    except WasmError as exc:
        return "instrument", exc
    try:
        reencoded = encode_module(result.module)
    except WasmError as exc:
        return "encode", exc
    try:
        decode_module(reencoded)
    except WasmError as exc:
        return "redecode", exc
    if execute:
        try:
            for predecode in engines:
                _execute_mutant(binary, predecode)
        except WasmError as exc:
            return "execute", exc
    return None, None


@dataclass(frozen=True)
class Classification:
    """What the pipeline did with one binary.

    ``outcome`` is ``"pass"`` (every stage survived), ``"rejected"`` (a
    stage failed cleanly with a WasmError), or ``"escape"`` (a
    non-WasmError exception got out — a harness :class:`Failure`).
    :attr:`signature` is the identity the test-case reducer must preserve
    while shrinking: the failing stage plus the error class, but not the
    message (shrinking legitimately changes offsets and sizes embedded in
    messages).
    """

    stage: str | None
    outcome: str
    exc_type: str | None = None
    message: str | None = None

    @property
    def signature(self) -> tuple:
        return (self.stage, self.outcome, self.exc_type)

    def __str__(self) -> str:
        if self.outcome == "pass":
            return "pass"
        return f"{self.outcome} at {self.stage}: {self.exc_type}: {self.message}"


def classify(binary: bytes, execute: bool = True,
             engines: tuple[bool, ...] = (True, False)) -> Classification:
    """Classify one binary's pipeline outcome (never raises).

    The reducer's predicate and ``repro replay`` both compare
    classifications, so clean rejections carry their error class too — a
    crash bundle for a decode-stage rejection replays against the same
    :class:`~repro.wasm.errors.DecodeError`, not just "some failure".
    """
    try:
        stage, exc = _pipeline_stage(binary, execute, engines)
    except Exception as escape:  # noqa: BLE001 - escapes are the point
        return Classification(stage=_failing_stage(escape), outcome="escape",
                              exc_type=type(escape).__name__,
                              message=str(escape))
    if stage is None:
        return Classification(stage=None, outcome="pass")
    return Classification(stage=stage, outcome="rejected",
                          exc_type=type(exc).__name__, message=str(exc))


# -- crash bundles ----------------------------------------------------------------


def failure_manifest(failure: Failure, outcome: str = "escape") -> dict:
    """The crash-bundle manifest for one campaign failure."""
    return {
        "kind": "pipeline",
        "error": {"type": failure.exc_type, "message": failure.message,
                  "stage": failure.stage, "outcome": outcome},
        "fuzz": {"seed": failure.seed, "corpus": failure.corpus_name,
                 "index": failure.index, "recipe": failure.recipe},
    }


def save_failure_bundle(failure: Failure, mutant: bytes,
                        directory: str) -> "Path":
    """Persist one campaign failure as a crash bundle directory.

    Pipeline failures have no instance state or host-boundary log (the
    pipeline is deterministic given the bytes), so the bundle is manifest +
    module bytes; ``repro replay`` re-runs the pipeline and compares the
    outcome's stage and error class.
    """
    from pathlib import Path

    from ..interp.replay import write_crash_bundle

    target = Path(directory) / f"{failure.corpus_name}-{failure.index}"
    return write_crash_bundle(target, mutant, failure_manifest(failure))


def replay_failure_bundle(bundle, execute: bool = True,
                          engines: tuple[bool, ...] = (True, False),
                          ) -> tuple[bool, Classification]:
    """Re-run a pipeline crash bundle and compare against its manifest.

    Returns ``(reproduced, live_classification)``: reproduced is True when
    the live run stops at the recorded stage with the recorded outcome and
    error class. Messages are compared only when the bundle was not
    reduced (reduction legitimately rewrites offsets inside messages).
    """
    live = classify(bundle.module_bytes, execute=execute, engines=engines)
    recorded = bundle.manifest.get("error", {})
    reproduced = (live.stage == recorded.get("stage")
                  and live.outcome == recorded.get("outcome", "escape")
                  and live.exc_type == recorded.get("type"))
    return reproduced, live


def _failing_stage(exc: Exception) -> str:
    """Best-effort attribution of an escape to a pipeline stage."""
    tb = exc.__traceback__
    stage = "unknown"
    while tb is not None:
        name = tb.tb_frame.f_code.co_name
        if name in ("decode_module", "_decode_code"):
            stage = "decode"
        elif name == "validate_module":
            stage = "validate"
        elif name == "instrument_module":
            stage = "instrument"
        elif name == "encode_module":
            stage = "encode"
        elif name == "_execute_mutant":
            stage = "execute"
        tb = tb.tb_next
    return stage
