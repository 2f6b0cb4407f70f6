"""The WebAssembly interpreter (our stand-in for the browser engine).

Executes validated modules with exact value semantics. Two execution engines
share the same observable behaviour:

* the **pre-decoded, direct-threaded engine** (default): function bodies are
  translated once by :mod:`repro.interp.predecode` into flat arrays of
  ``(opcode-id, operand, ...)`` tuples with constants pre-masked, arithmetic
  handlers pre-resolved, memory ops bound to pre-resolved ``struct`` twins,
  straight-line runs compiled into segments that return the pc they
  continue at, and every branch resolved to an absolute target pc, so the
  loop keeps no label stack; the decoded form is cached per
  :class:`~repro.wasm.module.Function`, so repeated instantiations decode
  once and every instance executes the same stream;
* the **legacy string-dispatch loop**, the independent oracle for
  differential testing (pass ``Machine(predecode=False)`` or set
  ``REPRO_PREDECODE=0``). It executes 1:1 with the source body, so it is
  also the loop the self-profiler counts on, on either engine.

Function bodies are flat instruction lists. Both engines run only bodies
the validator accepted: instantiation fetches each body's
:class:`~repro.wasm.validation.BodyRecord`, validating a body that has
none (an instrumented or in-memory module), and a rejected body fails
there with the validator's :class:`~repro.wasm.errors.ValidationError`.
The legacy engine takes its block matching from the record, which maps
each ``block``/``loop``/``if``/``else`` to its matching ``end``, so
structured branches are O(1) jumps; it keeps its own label stack.
"""

from __future__ import annotations

import os
import struct
import sys
import time
from typing import TYPE_CHECKING, Sequence

from ..wasm.errors import ExhaustionError, ResourceExhausted, Trap, WasmError
from ..wasm.module import Function, Instr, Module
from ..wasm.numeric import f32_round
from ..wasm.types import FuncType, GlobalType, MemoryType, TableType, ValType
from ..wasm.validation import BodyRecord, body_records
from .host import GlobalInstance, HostFunction, Linker
from .limits import Meter, ResourceLimits, ResourceUsage
from .memory import Memory
from .predecode import (OP_HOOK, DecodedFunction, _segment_code,
                        cached_decode, decode_function, oob_message)
from .table import Table
from .values import BINOPS, MASK32, MASK64, UNOPS, default_value

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs → interp)
    from ..obs.telemetry import Telemetry

#: Maximum nesting of WebAssembly calls before an exhaustion trap.
DEFAULT_MAX_CALL_DEPTH = 700


def predecode_default() -> bool:
    """Whether new machines pre-decode, from ``REPRO_PREDECODE`` (default on)."""
    return os.environ.get("REPRO_PREDECODE", "1").lower() not in ("0", "false", "no", "off")


def _generic_hook_dispatcher(host: HostFunction, extra: tuple):
    """Per-site dispatcher that calls the hook's host function.

    Bound for hook imports without a site factory, for sites whose factory
    raised, and for bare hook calls. Semantically identical to executing
    the original const/const/call sequence: the dispatcher takes the
    popped value args positionally, like every dispatcher-table entry,
    appends the pre-fused constants and calls the host function with the
    argument list. Wasabi-generated dispatchers (``is_wasabi_hook``) are
    void by construction; anything else keeps the strict host-result check
    of the generic call path.
    """
    fn = host.fn
    if getattr(host, "is_wasabi_hook", False):
        def dispatch(*values) -> None:
            fn([*values, *extra])

        return dispatch

    def dispatch(*values) -> None:
        raw = fn([*values, *extra])
        if raw is not None:
            # a void import returning values is a host bug: reuse the strict
            # coercion path, which raises unless the result list is empty
            Machine._host_results(host, raw)

    return dispatch


def bind_hook_sites(decoded: DecodedFunction, functions: list) -> list:
    """Build one instance's dispatcher table for a decoded stream.

    Entry ``k`` is the dispatcher of ``decoded.hook_sites[k]``, which the
    stream's ``OP_HOOK`` slots and the compiled segments holding sites
    call:

    * hosts annotated with a ``site_factory`` (the Wasabi runtime's
      location-aware hooks) get a closure bound to this exact call site —
      Location, static info, and presentation converters all resolved once;
    * any other hook import, a site whose factory raised, and a bare hook
      call get a generic closure that merely pre-fuses the constant
      operands (still skipping per-event marshalling).

    The shared per-:class:`~repro.wasm.module.Function` decode cache is
    never mutated. Hosts carrying a ``site_registry`` (the Wasabi
    runtime's) record ``(table, k)`` for each entry they bound, so fault
    containment can swap a quarantined hook's entries for its no-op.
    """
    table: list = []
    for site, (_, func_idx, consts) in enumerate(decoded.hook_sites):
        host = functions[func_idx]
        factory = getattr(host, "site_factory", None)
        try:
            bound = factory(*consts) if factory is not None and consts else None
        except Exception:
            # a site the runtime has no static info for: keep the
            # host-call path, which fails (or not) at event time
            # exactly like the legacy engine
            bound = None
        if bound is None:
            bound = _generic_hook_dispatcher(host, consts)
        table.append(bound)
        registry = getattr(host, "site_registry", None)
        if registry is not None:
            registry.append((table, site))
    return table


def profile_op_ids(func: Function, module: Module) -> list[int]:
    """The opcode id the self-profiler charges at each pc of ``func``.

    Ids come from the unfused, unquickened decode, so they attribute 1:1
    to source instructions. A hook call site counts as one ``OP_HOOK``:
    at its first location constant for the ``const/const/call`` idiom,
    whose other two slots are skipped (-1), or at the call for a bare one
    — the slot the decoded engine's ``OP_HOOK`` occupies.
    """
    decoded = decode_function(func, module, fuse=False)
    op_ids = [ins[0] for ins in decoded.code]
    for pc, _, consts in decoded.hook_sites:
        if consts:
            op_ids[pc - 2] = OP_HOOK
            op_ids[pc - 1] = op_ids[pc] = -1
        else:
            op_ids[pc] = OP_HOOK
    return op_ids


class WasmFunction:
    """A defined function bound to its instance, with precomputed dispatch.

    ``record`` is the body's :class:`~repro.wasm.validation.BodyRecord`,
    fetched at instantiation on every engine path, so no engine runs a
    body the validator rejected. ``decoded`` holds the pre-decoded
    threaded stream, the one object every instance of the module executes
    (see :func:`~repro.interp.predecode.cached_decode`). ``hooks`` is this
    instance's dispatcher table, its only engine state: one entry per
    hook call site of the stream (see :func:`bind_hook_sites`). Both are
    None on machines with ``predecode=False`` and for functions
    instantiated while a profiler is attached: those run on the legacy
    loop, which takes its block matching from the record, so they decode
    nothing and compile no segment at instantiation. ``op_ids`` is the
    profiler's per-pc opcode ids, built lazily so other runs never pay
    for them.
    """

    __slots__ = ("instance", "func", "functype", "default_locals",
                 "result_arity", "record", "decoded", "hooks", "_op_ids")

    def __init__(self, instance: "Instance", func: Function, functype: FuncType,
                 record: BodyRecord):
        self.instance = instance
        self.func = func
        self.functype = functype
        self.default_locals = [default_value(t) for t in func.locals]
        self.result_arity = len(functype.results)
        self.record = record
        self._op_ids: list[int] | None = None
        self.hooks: list | None = None
        self.decoded: DecodedFunction | None = None
        machine = instance.machine
        if machine.predecode and not machine._profiling:
            decoded, hit = cached_decode(func, instance.module)
            if decoded.hook_sites:
                self.hooks = bind_hook_sites(decoded, instance.functions)
            self.decoded = decoded
            if hit:
                machine.predecode_cache_hits += 1
            else:
                machine.predecode_cache_misses += 1

    @property
    def op_ids(self) -> list[int]:
        if self._op_ids is None:
            self._op_ids = profile_op_ids(self.func, self.instance.module)
        return self._op_ids

    @property
    def name(self) -> str:
        return self.func.name or "<anonymous>"


class Instance:
    """A module instance: runtime state plus executable functions."""

    def __init__(self, module: Module, machine: "Machine"):
        self.module = module
        self.machine = machine
        self.functions: list[HostFunction | WasmFunction] = []
        self.globals: list[GlobalInstance] = []
        self.memory: Memory | None = None
        self.table: Table | None = None
        self.exports: dict[str, tuple[str, object]] = {}

    def invoke(self, name: str, args: Sequence[int | float] = ()) -> list[int | float]:
        """Call an exported function by name."""
        kind, item = self._export(name)
        if kind != "func":
            raise WasmError(f"export {name!r} is a {kind}, not a function")
        func_idx = item
        assert isinstance(func_idx, int)
        tele = self.machine._telemetry
        if tele is None:
            return self.machine.call(self, func_idx, list(args))
        with tele.span("invoke", export=name):
            return self.machine.call(self, func_idx, list(args))

    def exported_memory(self, name: str = "memory") -> Memory:
        kind, item = self._export(name)
        if kind != "memory":
            raise WasmError(f"export {name!r} is a {kind}, not a memory")
        assert isinstance(item, Memory)
        return item

    def exported_global(self, name: str) -> GlobalInstance:
        kind, item = self._export(name)
        if kind != "global":
            raise WasmError(f"export {name!r} is a {kind}, not a global")
        assert isinstance(item, GlobalInstance)
        return item

    def _export(self, name: str) -> tuple[str, object]:
        try:
            return self.exports[name]
        except KeyError:
            raise WasmError(f"no export named {name!r}") from None

    # -- state capture (repro.interp.snapshot) --------------------------------

    def snapshot(self):
        """Capture full instance state; only valid at invocation boundaries."""
        from .snapshot import snapshot_instance
        return snapshot_instance(self)

    def restore(self, snap) -> None:
        """Restore state captured by :meth:`snapshot` (same module shape)."""
        from .snapshot import restore_instance
        restore_instance(self, snap)


def _coerce(valtype: ValType, value: int | float) -> int | float:
    """Coerce a host-provided value to canonical runtime representation.

    Used for *arguments* crossing the host→wasm boundary, where JavaScript
    style leniency (truncation, masking) is the expected behaviour.
    """
    if valtype is ValType.I32:
        return int(value) & MASK32
    if valtype is ValType.I64:
        return int(value) & MASK64
    if valtype is ValType.F32:
        return f32_round(float(value))
    return float(value)


def _coerce_host_result(valtype: ValType, value: int | float,
                        name: str) -> int | float:
    """Coerce one host-function result, rejecting lossy conversions.

    A host function that returns a float for an integer result slot (or a
    non-numeric value for any slot) is a bug in the host code; silently
    truncating it would corrupt the executing program, so it raises.
    """
    if valtype is ValType.I32 or valtype is ValType.I64:
        if not isinstance(value, int):  # note: bool is an int subclass
            raise WasmError(
                f"host function {name} returned non-integer {value!r} "
                f"for an {valtype.value} result")
        return value & (MASK32 if valtype is ValType.I32 else MASK64)
    if not isinstance(value, (int, float)):
        raise WasmError(
            f"host function {name} returned non-numeric {value!r} "
            f"for an {valtype.value} result")
    if valtype is ValType.F32:
        return f32_round(float(value))
    return float(value)


class Machine:
    """Executes instances. One machine may host several instances.

    ``predecode`` selects the execution engine: True for the pre-decoded
    threaded loop, False for the legacy string-dispatch loop, None (default)
    to follow the ``REPRO_PREDECODE`` environment variable.

    Both engines dispatch Wasabi hooks through the same per-site
    dispatchers, which :mod:`repro.core.runtime` generates from its
    translation table: the pre-decoded engine binds them into each
    instance's dispatcher table at instantiation, which its ``OP_HOOK``
    slots and compiled segments call; the legacy engine reaches them
    through the hook's host function.

    ``limits`` attaches a :class:`~repro.interp.limits.ResourceLimits`
    bundle: fuel and wall-clock deadlines are charged on back-edges and
    calls in both engines (raising ``FuelExhausted``/``DeadlineExceeded``
    traps), ``max_memory_pages`` caps linear memory, and ``max_call_depth``
    overrides the machine default. Without limits no meter exists and the
    hot loops take their unmetered paths.

    ``telemetry`` attaches a :class:`~repro.obs.telemetry.Telemetry` sink:
    the engines charge its raw counters (calls, taken branches, traps,
    memory.grow) at exactly the Meter's charge sites, under the same
    hoisted ``is not None`` guard discipline — no telemetry, no cost. A
    telemetry with an attached profiler additionally makes new instances
    run on the legacy loop (:meth:`_exec`) on either engine: it executes
    unfused, 1:1 with the source body, and under one hoisted guard counts
    every executed instruction into the profiler.

    ``replay`` attaches a :class:`~repro.interp.replay.Recorder` or
    :class:`~repro.interp.replay.Replayer`: host-function calls (except
    Wasabi's generated hooks, which must stay engine-independent) and the
    meter's clock reads are recorded or served from the log. Without it
    the host-call paths pay one hoisted ``is not None`` test.

    The pre-decoded engine always runs quickened streams: memory ops are
    decoded to pre-bound ``struct.Struct`` twins and straight-line runs to
    compiled segments. Every instance on every machine runs the one
    stream each function caches
    (:func:`~repro.interp.predecode.cached_decode`). The legacy loop
    (``predecode=False``) is its differential oracle.
    """

    def __init__(self, max_call_depth: int = DEFAULT_MAX_CALL_DEPTH,
                 predecode: bool | None = None,
                 limits: ResourceLimits | None = None,
                 telemetry: "Telemetry | None" = None,
                 replay=None):
        if limits is not None and limits.max_call_depth is not None:
            max_call_depth = limits.max_call_depth
        self.max_call_depth = max_call_depth
        self.predecode = predecode_default() if predecode is None else predecode
        self.limits = limits
        self._replay = replay
        if limits is not None and limits.metered:
            # the replay clock must wrap before Meter construction: arming
            # the deadline in Meter.__init__ already reads the clock
            clock = (time.monotonic if replay is None
                     else replay.bind_clock(time.monotonic))
            self._meter: Meter | None = Meter(limits, clock=clock)
        else:
            self._meter = None
        self._memories: list[Memory] = []
        #: Decoded-stream cache statistics of the instantiations that run
        #: the decoded engine.
        self.predecode_cache_hits = 0
        self.predecode_cache_misses = 0
        self._depth = 0
        self._telemetry: "Telemetry | None" = None
        self._profiling = False
        if telemetry is not None:
            self._set_telemetry(telemetry)
        # The interpreter recurses ~2 Python frames per Wasm call.
        needed = 3 * max_call_depth + 200
        if sys.getrecursionlimit() < needed:
            sys.setrecursionlimit(needed)

    def _set_telemetry(self, telemetry: "Telemetry") -> None:
        self._telemetry = telemetry
        self._profiling = telemetry.profiler is not None
        replay = self._replay
        if replay is not None and replay.is_replaying:
            replay.telemetry = telemetry

    def attach_telemetry(self, telemetry: "Telemetry") -> None:
        """Attach a telemetry sink (idempotent for the same instance).

        Attach *before* instantiating modules when profiling: on the
        pre-decoded engine only instances created while a profiler is
        attached run on the counting legacy loop.
        """
        if telemetry is self._telemetry:
            return
        if self._telemetry is not None:
            raise ValueError("machine already has a different telemetry sink")
        self._set_telemetry(telemetry)

    def resource_usage(self) -> ResourceUsage:
        """Summary of resources consumed so far (cumulative over invokes).

        ``fuel_spent``/``peak_depth`` are tracked only on metered machines;
        ``peak_pages`` always reflects the largest linear memory this
        machine instantiated (memories never shrink, so current == peak).
        """
        usage = ResourceUsage()
        if self._meter is not None:
            usage.fuel_spent = self._meter.fuel_spent_total
            usage.peak_depth = self._meter.peak_depth
        usage.peak_pages = max(
            (memory.size_pages for memory in self._memories), default=0)
        return usage

    # -- instantiation -------------------------------------------------------

    def instantiate(self, module: Module, linker: Linker | None = None,
                    run_start: bool = True) -> Instance:
        """Create an instance, resolving imports through ``linker``.

        With telemetry attached, the segments this instantiation compiled
        and those it took from the process-wide code cache are charged to
        ``n_segment_compiles``/``n_segment_cache_hits``.
        """
        tele = self._telemetry
        if tele is None:
            return self._instantiate(module, linker, run_start)
        before = _segment_code.cache_info()
        try:
            with tele.span("instantiate", functions=len(module.functions)):
                return self._instantiate(module, linker, run_start)
        finally:
            after = _segment_code.cache_info()
            tele.n_segment_compiles += after.misses - before.misses
            tele.n_segment_cache_hits += after.hits - before.hits

    def _instantiate(self, module: Module, linker: Linker | None,
                     run_start: bool) -> Instance:
        linker = linker or Linker()
        instance = Instance(module, self)

        for imp in module.imports:
            resolved = linker.resolve(imp.module, imp.name)
            desc = imp.desc
            if isinstance(desc, int):  # function import
                expected = module.types[desc]
                if not isinstance(resolved, HostFunction):
                    raise WasmError(f"import {imp.module}.{imp.name} is not a function")
                if resolved.functype != expected:
                    raise WasmError(
                        f"import {imp.module}.{imp.name} has type "
                        f"{resolved.functype}, expected {expected}")
                instance.functions.append(resolved)
            elif isinstance(desc, MemoryType):
                if not isinstance(resolved, Memory):
                    raise WasmError(f"import {imp.module}.{imp.name} is not a memory")
                self._check_memory_cap(resolved.size_pages,
                                       f"imported memory {imp.module}.{imp.name}")
                instance.memory = resolved
            elif isinstance(desc, TableType):
                if not isinstance(resolved, Table):
                    raise WasmError(f"import {imp.module}.{imp.name} is not a table")
                instance.table = resolved
            elif isinstance(desc, GlobalType):
                if not isinstance(resolved, GlobalInstance):
                    raise WasmError(f"import {imp.module}.{imp.name} is not a global")
                instance.globals.append(resolved)
            else:  # pragma: no cover
                raise WasmError(f"bad import descriptor {desc!r}")

        for func, record in zip(module.functions, body_records(module)):
            instance.functions.append(
                WasmFunction(instance, func, module.types[func.type_idx], record))
        for glob in module.globals:
            instance.globals.append(
                GlobalInstance(glob.type, self._eval_init(instance, glob.init,
                                                          glob.type.valtype)))
        cap = self.limits.max_memory_pages if self.limits is not None else None
        for memtype in module.memories:
            self._check_memory_cap(memtype.limits.minimum, "declared memory")
            instance.memory = Memory(memtype.limits, policy_max_pages=cap)
        for tabletype in module.tables:
            instance.table = Table(tabletype.limits)
        if instance.memory is not None and \
                not any(m is instance.memory for m in self._memories):
            self._memories.append(instance.memory)

        for segment in module.elements:
            if instance.table is None:
                raise WasmError("element segment without table")
            offset = self._eval_init(instance, segment.offset, ValType.I32)
            if offset + len(segment.func_idxs) > len(instance.table):
                raise Trap(f"element segment [{offset}, "
                           f"{offset + len(segment.func_idxs)}) out of table bounds")
            for i, func_idx in enumerate(segment.func_idxs):
                instance.table.set(offset + i, func_idx)
        for segment in module.data:
            if instance.memory is None:
                raise WasmError("data segment without memory")
            offset = self._eval_init(instance, segment.offset, ValType.I32)
            instance.memory.write(offset, segment.data)

        for export in module.exports:
            if export.kind == "func":
                instance.exports[export.name] = ("func", export.idx)
            elif export.kind == "memory":
                instance.exports[export.name] = ("memory", instance.memory)
            elif export.kind == "table":
                instance.exports[export.name] = ("table", instance.table)
            elif export.kind == "global":
                instance.exports[export.name] = ("global", instance.globals[export.idx])

        if run_start and module.start is not None:
            self.call(instance, module.start, [])
        return instance

    def _check_memory_cap(self, pages: int, what: str) -> None:
        """Refuse instantiation when initial memory already exceeds the cap."""
        if self.limits is None or self.limits.max_memory_pages is None:
            return
        if pages > self.limits.max_memory_pages:
            raise ResourceExhausted(
                f"{what} is {pages} pages, exceeding the "
                f"max_memory_pages limit of {self.limits.max_memory_pages}")

    def _eval_init(self, instance: Instance, init: list[Instr],
                   expected: ValType) -> int | float:
        if len(init) != 1:
            raise WasmError("initializer must be a single constant instruction")
        instr = init[0]
        if instr.op == "get_global":
            return instance.globals[instr.idx].value
        if instr.op.endswith(".const"):
            return _coerce(expected, instr.value)
        raise WasmError(f"non-constant initializer {instr.op}")

    # -- function calls ------------------------------------------------------------

    def call(self, instance: Instance, func_idx: int,
             args: list[int | float]) -> list[int | float]:
        """Call any function in the instance's function index space.

        Checks arity and coerces ``args``, then runs the call sequence both
        engines share (:meth:`_invoke_callee`), so a host frame counts
        toward ``max_call_depth`` on neither.
        """
        func = instance.functions[func_idx]
        functype = func.functype
        if len(args) != len(functype.params):
            raise WasmError(f"expected {len(functype.params)} arguments, "
                            f"got {len(args)}")
        args = [_coerce(t, v) for t, v in zip(functype.params, args)]
        # a fresh list: _invoke_callee may return the shared _NO_RESULTS
        if self._depth:
            return list(self._invoke_callee(func, args))
        if self._meter is not None:
            # fuel and deadline budgets are per top-level invocation, so a
            # fresh invoke after an exhaustion trap gets a fresh budget
            self._meter.arm()
        try:
            return list(self._invoke_callee(func, args))
        except Trap:
            # count only traps escaping the top-level invocation, not each
            # frame the same trap unwinds through
            if self._telemetry is not None:
                self._telemetry.n_traps += 1
            raise

    @staticmethod
    def _host_results(func: HostFunction, raw: object) -> list[int | float]:
        """Normalize and strictly coerce a host function's return value."""
        declared = func.functype.results
        if raw is None:
            results: list[int | float] = []
        elif isinstance(raw, (list, tuple)):
            results = list(raw)
        else:
            results = [raw]
        if len(results) != len(declared):
            raise WasmError(
                f"host function {func.name} returned {len(results)} "
                f"values, declared {len(declared)}")
        return [_coerce_host_result(t, v, func.name)
                for t, v in zip(declared, results)]

    def _invoke_callee(self, callee: "HostFunction | WasmFunction",
                       call_args: list[int | float]) -> list[int | float]:
        """The call sequence of both engines.

        Wasm values on the operand stack are already canonical, so the
        pre-decoded engine's wasm→wasm and wasm→host calls skip the argument
        re-coercion and arity check of :meth:`call` (the host-call fast path
        of the Wasabi runtime hooks). Only WebAssembly frames nest the depth
        limit; a host call is charged as one call event one level deeper.
        """
        if callee.__class__ is WasmFunction:
            if self._depth >= self.max_call_depth:
                raise ExhaustionError("call stack exhausted")
            self._depth += 1
            try:
                meter = self._meter
                if meter is not None:
                    meter.enter_call(self._depth)
                tele = self._telemetry
                if tele is not None:
                    tele.n_calls += 1
                if callee.decoded is not None:
                    return self._exec_decoded(callee, call_args)
                return self._exec(callee, call_args)
            finally:
                self._depth -= 1
        meter = self._meter
        if meter is not None:
            meter.enter_call(self._depth + 1)
        tele = self._telemetry
        if tele is not None:
            tele.n_calls += 1
            tele.n_host_calls += 1
        replay = self._replay
        if replay is not None and \
                not getattr(callee, "is_wasabi_hook", False) and \
                not getattr(callee, "is_wasi", False):
            # Wasabi hooks stay un-recorded: fused OP_HOOK sites
            # bypass this path entirely, so recording them here would make
            # logs depend on the engine. WASI
            # syscalls record themselves (with their memory writes) as
            # wasi_call entries and run live during replay.
            return replay.host_call(callee.name, call_args,
                                    lambda: self._host_invoke(callee, call_args))
        raw = callee.fn(call_args)
        if raw is None and not callee.functype.results:
            return _NO_RESULTS  # void host call: the hot hook path
        return self._host_results(callee, raw)

    def _host_invoke(self, callee: HostFunction,
                     call_args: list[int | float]) -> list[int | float]:
        raw = callee.fn(call_args)
        if raw is None and not callee.functype.results:
            return _NO_RESULTS
        return self._host_results(callee, raw)

    # -- the pre-decoded interpreter loop ------------------------------------------

    def _exec_decoded(self, wfunc: WasmFunction,
                      args: list[int | float]) -> list[int | float]:
        instance = wfunc.instance
        code = wfunc.decoded.code
        functions = instance.functions
        globals_ = instance.globals
        memory = instance.memory
        table = instance.table
        # memory.grow extends the bytearray in place, so its identity is
        # stable for the lifetime of the instance and safe to cache here
        memdata = memory.data if memory is not None else None
        hooks = wfunc.hooks
        locals_ = args + wfunc.default_locals
        stack: list[int | float] = []
        append = stack.append
        pop = stack.pop
        result_arity = wfunc.result_arity
        meter = self._meter
        tele = self._telemetry
        n_instrs = len(code)
        pc = 0

        try:
            while True:
                ins = code[pc]
                op = ins[0]

                if op >= 52:
                    # Compiled segments (57), quickened memory twins
                    # (52-55) and stack-adjusting branches (65, 66).
                    # Dispatching them from this guarded side chain keeps
                    # the main chain in its original, hotness-tuned order:
                    # the base opcodes pay exactly one extra range check
                    # per instruction.
                    if op == 57:  # OP_SEGMENT: (_, fn, target, exits, span)
                        pc = ins[1](stack, locals_, memdata, hooks)
                        if pc < 0:  # the br/br_if after the run is taken
                            if meter is not None:
                                meter.branch(len(stack))
                            if tele is not None:
                                tele.n_branches += 1
                            pc = ins[2]
                        continue
                    elif op == 52:  # OP_QLOAD: (_, bound_unpack, offset, width)
                        addr = pop() + ins[2]
                        try:
                            append(ins[1](memdata, addr)[0])
                        except struct.error:
                            raise Trap(oob_message(ins[3], addr, memdata,
                                                   "load")) from None
                    elif op == 54:  # OP_QSTORE: (_, bound_pack, offset, width)
                        value = pop()
                        addr = pop() + ins[2]
                        try:
                            ins[1](memdata, addr, value)
                        except struct.error:
                            raise Trap(oob_message(ins[3], addr, memdata,
                                                   "store")) from None
                    elif op == 53:  # OP_QLOAD_MASK: (_, bound_unpack, offset,
                        #               mask, width)
                        addr = pop() + ins[2]
                        try:
                            append(ins[1](memdata, addr)[0] & ins[3])
                        except struct.error:
                            raise Trap(oob_message(ins[4], addr, memdata,
                                                   "load")) from None
                    elif op == 55:  # OP_QSTORE_MASK: (_, bound_pack,
                        #               offset, mask, width)
                        value = pop()
                        addr = pop() + ins[2]
                        try:
                            ins[1](memdata, addr, value & ins[3])
                        except struct.error:
                            raise Trap(oob_message(ins[4], addr, memdata,
                                                   "store")) from None
                    else:  # OP_BR_ADJUST / OP_BR_IF_ADJUST (65, 66):
                        #     (_, target, height, arity)
                        if op == 66 and not pop():
                            pc += 1
                            continue
                        if meter is not None:
                            meter.branch(len(stack))
                        if tele is not None:
                            tele.n_branches += 1
                        arity = ins[3]
                        if arity:
                            carried = stack[len(stack) - arity:]
                            del stack[ins[2]:]
                            stack.extend(carried)
                        else:
                            del stack[ins[2]:]
                        pc = ins[1]
                        continue
                    pc += 1
                    continue

                if op == 0:  # OP_GET_LOCAL
                    append(locals_[ins[1]])
                elif op == 1:  # OP_BINARY
                    b = pop()
                    stack[-1] = ins[1](stack[-1], b)
                elif op == 2:  # OP_CONST (pre-masked / pre-rounded)
                    append(ins[1])
                elif op == 3:  # OP_SET_LOCAL
                    locals_[ins[1]] = pop()
                elif op == 34:  # OP_HOOK: (_, site, n_args, skip)
                    n_params = ins[2]
                    if n_params:
                        call_args = stack[-n_params:]
                        del stack[-n_params:]
                        hooks[ins[1]](*call_args)
                    else:
                        hooks[ins[1]]()
                    pc += ins[3]
                    continue
                elif op == 8:  # OP_BR_IF: (_, target)
                    if pop():
                        if meter is not None:
                            meter.branch(len(stack))
                        if tele is not None:
                            tele.n_branches += 1
                        pc = ins[1]
                        continue
                elif op == 9:  # OP_UNARY
                    stack[-1] = ins[1](stack[-1])
                elif op == 10:  # OP_TEE_LOCAL
                    locals_[ins[1]] = stack[-1]
                elif op == 11:  # OP_BR: (_, target)
                    if meter is not None:
                        meter.branch(len(stack))
                    if tele is not None:
                        tele.n_branches += 1
                    pc = ins[1]
                    continue
                elif op == 14:  # OP_IF: (_, then_pc, else_pc)
                    pc = ins[1] if pop() else ins[2]
                    continue
                elif op == 16:  # OP_JUMP: the else reached from its then-arm
                    pc = ins[1]
                    continue
                elif op == 17:  # OP_CALL: (_, func_idx, n_params)
                    n_params = ins[2]
                    if n_params:
                        call_args = stack[-n_params:]
                        del stack[-n_params:]
                    else:
                        call_args = []
                    results = self._invoke_callee(functions[ins[1]], call_args)
                    if results:
                        stack.extend(results)
                elif op == 18:  # OP_RETURN
                    return stack[len(stack) - result_arity:]
                elif op == 12 or op == 13 or op == 15:
                    # OP_END, OP_LOOP, OP_BLOCK: no-ops, reached only by
                    # falling through from a slot that is not a branch
                    pass
                elif op == 19:  # OP_GET_GLOBAL
                    append(globals_[ins[1]].value)
                elif op == 20:  # OP_SET_GLOBAL
                    globals_[ins[1]].value = pop()
                elif op == 21:  # OP_SELECT
                    condition = pop()
                    second = pop()
                    first = pop()
                    append(first if condition else second)
                elif op == 22:  # OP_DROP
                    pop()
                elif op == 23:  # OP_CALL_INDIRECT: (_, expected, n_params)
                    table_idx = pop()
                    callee = functions[table.get(table_idx)]
                    if callee.functype != ins[1]:
                        raise Trap(f"indirect call type mismatch: entry "
                                   f"{table_idx} has {callee.functype}, "
                                   f"expected {ins[1]}")
                    n_params = ins[2]
                    if n_params:
                        call_args = stack[-n_params:]
                        del stack[-n_params:]
                    else:
                        call_args = []
                    results = self._invoke_callee(callee, call_args)
                    if results:
                        stack.extend(results)
                elif op == 24:  # OP_BR_TABLE: (_, entries, default), each
                    #               entry (target, height, arity)
                    index = pop()
                    if meter is not None:
                        meter.branch(len(stack))
                    if tele is not None:
                        tele.n_branches += 1
                    entries = ins[1]
                    pc, height, arity = (entries[index] if index < len(entries)
                                         else ins[2])
                    if arity:
                        carried = stack[len(stack) - arity:]
                        del stack[height:]
                        stack.extend(carried)
                    else:
                        del stack[height:]
                    continue
                elif op == 25:  # OP_MEMORY_SIZE
                    append(memory.size_pages)
                elif op == 26:  # OP_MEMORY_GROW
                    delta = pop()
                    append(memory.grow(delta) & MASK32)
                    if tele is not None:
                        tele.note_grow(memory.size_pages)
                elif op == 27:  # OP_NOP
                    pass
                elif op == 28:  # OP_UNREACHABLE
                    raise Trap("unreachable executed")
                else:  # decode emits no id without an arm above
                    raise WasmError(f"no interpreter arm for op id {op}")
                pc += 1
        except IndexError:
            # the only legitimate way out: pc reached the implicit
            # function end (falling off the final `end`, or a branch to
            # the function-level label). Anything else is a real bug in
            # a handler and is re-raised.
            if pc != n_instrs:
                raise
        return stack[len(stack) - result_arity:] if result_arity else []

    # -- the legacy interpreter loop ---------------------------------------------

    def _exec(self, wfunc: WasmFunction, args: list[int | float]) -> list[int | float]:
        """The legacy string-dispatch loop: the independent oracle engine.

        It executes 1:1 with the source body, so it is also the
        self-profiler's loop: with a profiler attached, each executed pc is
        charged to ``op_counts`` by its id in ``wfunc.op_ids``; every
        ``sample_interval`` instructions the live call stack is sampled.
        Skipped slots (-1, the folded operands of a hook call site) are not
        charged.
        """
        instance = wfunc.instance
        body = wfunc.func.body
        end_of = wfunc.record.end_of
        else_of = wfunc.record.else_of
        locals_: list[int | float] = args + wfunc.default_locals
        stack: list[int | float] = []
        result_arity = len(wfunc.functype.results)
        meter = self._meter
        tele = self._telemetry
        pc = 0
        n_instrs = len(body)
        # label entries: (is_loop, block_pc, cont_pc, height, arity);
        # the implicit function block is the bottom-most label (its final
        # `end` pops it, and a branch to it returns from the function).
        labels: list[tuple[bool, int, int, int, int]] = [
            (False, -1, n_instrs, 0, result_arity)
        ]
        profiler = tele.profiler if tele is not None else None
        executed = 0
        if profiler is not None:
            op_ids = wfunc.op_ids
            op_counts = profiler.op_counts
            profiler.enter(wfunc.name)

        try:
            while pc < n_instrs:
                if profiler is not None:
                    op_id = op_ids[pc]
                    if op_id >= 0:
                        op_counts[op_id] += 1
                        executed += 1
                        profiler.ticks = ticks = profiler.ticks + 1
                        if ticks >= profiler.next_sample:
                            profiler.sample()
                instr = body[pc]
                op = instr.op

                binop = BINOPS.get(op)
                if binop is not None:
                    b = stack.pop()
                    stack[-1] = binop(stack[-1], b)
                    pc += 1
                    continue
                unop = UNOPS.get(op)
                if unop is not None:
                    stack[-1] = unop(stack[-1])
                    pc += 1
                    continue

                if op == "get_local":
                    stack.append(locals_[instr.idx])
                elif op == "set_local":
                    locals_[instr.idx] = stack.pop()
                elif op == "tee_local":
                    locals_[instr.idx] = stack[-1]
                elif op == "i32.const":
                    stack.append(instr.value & MASK32)
                elif op == "i64.const":
                    stack.append(instr.value & MASK64)
                elif op == "f32.const":
                    stack.append(f32_round(instr.value))
                elif op == "f64.const":
                    stack.append(float(instr.value))
                elif ".load" in op:
                    addr = stack.pop()
                    stack.append(instance.memory.load(op, addr + instr.memarg.offset))
                elif ".store" in op:
                    value = stack.pop()
                    addr = stack.pop()
                    instance.memory.store(op, addr + instr.memarg.offset, value)
                elif op == "block":
                    arity = 0 if instr.blocktype is None else 1
                    end_idx = end_of[pc]
                    labels.append((False, pc, end_idx + 1, len(stack), arity))
                elif op == "loop":
                    labels.append((True, pc, pc + 1, len(stack), 0))
                elif op == "if":
                    condition = stack.pop()
                    arity = 0 if instr.blocktype is None else 1
                    end_idx = end_of[pc]
                    labels.append((False, pc, end_idx + 1, len(stack), arity))
                    if not condition:
                        else_idx = else_of.get(pc)
                        if else_idx is not None:
                            pc = else_idx  # fall onto the else, skip to its body
                        else:
                            pc = end_idx - 1  # land on the end, which pops the label
                elif op == "else":
                    # reached from the then-arm: skip to the matching end
                    pc = end_of[pc] - 1
                elif op == "end":
                    if labels:
                        labels.pop()
                    # the function's final end simply falls off the loop
                elif op == "br":
                    if meter is not None:
                        meter.branch(len(stack))
                    if tele is not None:
                        tele.n_branches += 1
                    pc = self._branch(instr.label, labels, stack)
                    continue
                elif op == "br_if":
                    if stack.pop():
                        if meter is not None:
                            meter.branch(len(stack))
                        if tele is not None:
                            tele.n_branches += 1
                        pc = self._branch(instr.label, labels, stack)
                        continue
                elif op == "br_table":
                    index = stack.pop()
                    if meter is not None:
                        meter.branch(len(stack))
                    if tele is not None:
                        tele.n_branches += 1
                    table_imm = instr.br_table
                    if index < len(table_imm.labels):
                        label = table_imm.labels[index]
                    else:
                        label = table_imm.default
                    pc = self._branch(label, labels, stack)
                    continue
                elif op == "return":
                    return stack[len(stack) - result_arity:]
                elif op == "call":
                    callee = instance.functions[instr.idx]
                    n_params = len(callee.functype.params)
                    call_args = stack[len(stack) - n_params:] if n_params else []
                    del stack[len(stack) - n_params:]
                    stack.extend(self.call(instance, instr.idx, call_args))
                elif op == "call_indirect":
                    expected = instance.module.types[instr.idx]
                    table_idx = stack.pop()
                    func_addr = instance.table.get(table_idx)
                    callee = instance.functions[func_addr]
                    if callee.functype != expected:
                        raise Trap(f"indirect call type mismatch: entry {table_idx} "
                                   f"has {callee.functype}, expected {expected}")
                    n_params = len(expected.params)
                    call_args = stack[len(stack) - n_params:] if n_params else []
                    del stack[len(stack) - n_params:]
                    stack.extend(self.call(instance, func_addr, call_args))
                elif op == "drop":
                    stack.pop()
                elif op == "select":
                    condition = stack.pop()
                    second = stack.pop()
                    first = stack.pop()
                    stack.append(first if condition else second)
                elif op == "get_global":
                    stack.append(instance.globals[instr.idx].value)
                elif op == "set_global":
                    instance.globals[instr.idx].value = stack.pop()
                elif op == "memory.size":
                    stack.append(instance.memory.size_pages)
                elif op == "memory.grow":
                    delta = stack.pop()
                    stack.append(instance.memory.grow(delta) & MASK32)
                    if tele is not None:
                        tele.note_grow(instance.memory.size_pages)
                elif op == "nop":
                    pass
                elif op == "unreachable":
                    raise Trap("unreachable executed")
                else:  # pragma: no cover - validation excludes this
                    raise WasmError(f"cannot execute {op}")
                pc += 1

            return stack[len(stack) - result_arity:] if result_arity else []
        finally:
            if profiler is not None:
                profiler.exit(executed)

    @staticmethod
    def _branch(label: int, labels: list[tuple[bool, int, int, int, int]],
                stack: list[int | float]) -> int:
        """Perform a branch; returns the new pc."""
        is_loop, block_pc, cont_pc, height, arity = labels[-1 - label]
        if is_loop:
            # jump back to the loop instruction itself; it re-pushes its label
            del stack[height:]
            del labels[len(labels) - 1 - label:]
            return block_pc
        if arity:
            carried = stack[len(stack) - arity:]
            del stack[height:]
            stack.extend(carried)
        else:
            del stack[height:]
        del labels[len(labels) - 1 - label:]
        return cont_pc


#: Shared empty result list for void host calls. Never mutated.
_NO_RESULTS: list[int | float] = []


def instantiate(module: Module, linker: Linker | None = None,
                run_start: bool = True,
                machine: Machine | None = None) -> Instance:
    """Convenience wrapper: instantiate ``module`` on a fresh machine."""
    machine = machine or Machine()
    return machine.instantiate(module, linker, run_start=run_start)
