"""The Wasabi runtime: generated low-level hooks dispatching to the analysis.

For every :class:`HookSpec` the instrumenter generated, the runtime creates
a host function, the analogue of the paper's generated JavaScript
low-level hooks, and like Wasabi it generates them. :data:`_TRANSLATIONS`
has one row per hook kind: the analysis method(s) it calls, the statics
resolved once per call site (§2.3 "pre-computed information"), and the
call, written as source over the popped values. :func:`_bind_source`
expands a live hook's row and value types into the source of
``bind(location)``, compiled once per process (:func:`_bind_code`).
``bind`` resolves one site's statics and returns its dispatcher, which
takes the popped values as positional parameters and in one frame
re-joins split i64 halves (§2.4.6), presents values as Figure 5 does,
calls the analysis and contains faults. A memory access's
:class:`~repro.core.analysis.MemArg` is built by ``tuple.__new__`` and a
condition presented as ``raw != 0``, so neither runs a Python frame per
event. Two rows call helpers: indirect ``call_pre`` reads the callee
from the live table (§2.3), and ``br_table`` fires the end hooks of the
blocks the taken entry leaves (§2.4.5). Only the table's text and index
expressions are compiled; the analysis, the mnemonic and the static info
are bound in the namespace the code is exec'd into.

The pre-decoding engine calls each host function's ``site_factory`` once
per ``const/const/call`` site at instantiation and stores the dispatcher
in the instance's dispatcher table, which the site's ``OP_HOOK`` slot or
the compiled segment holding the site calls. Every other hook call (the
legacy engine, a site the engine could not fuse) reaches the host
function, which binds
the site's dispatcher by its trailing ``(func, instr)`` arguments on first
use. Dead hooks, whose methods the analysis does not override, dispatch to
a shared no-op.

**Fault containment.** An exception escaping a hook is wrapped in
:class:`~repro.wasm.errors.AnalysisError` carrying the hook name and
:class:`Location`, and handled per the ``on_analysis_error`` policy:
``raise`` (propagate to the embedder), ``abort`` (trap the guest with
:class:`~repro.wasm.errors.AnalysisAbort`), ``quarantine`` (atomically
swap every dispatcher of that hook, dispatcher-table entries included, for
the no-op and keep the guest running), or ``log`` (record, report on
stderr, keep dispatching). A site with no static info fails to bind, and
that failure is handled the same way at the site's first event.
"""

from __future__ import annotations

import sys
from functools import lru_cache, partial
from typing import TYPE_CHECKING, Callable, NamedTuple

from ..interp.host import HostFunction
from ..interp.machine import Instance
from ..wasm.errors import AnalysisAbort, AnalysisError
from ..wasm.numeric import to_signed
from ..wasm.types import I64, ValType
from .analysis import Analysis, Location, MemArg
from .hooks import HookSpec, split_i64
from .instrument import InstrumentationResult
from .metadata import StaticInfo

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs → interp)
    from ..obs.telemetry import Telemetry

#: Valid ``on_analysis_error`` policies.
ERROR_POLICIES = ("raise", "abort", "quarantine", "log")


class _Row(NamedTuple):
    """How one hook kind reaches the analysis.

    ``call`` is source over the popped values, the dispatcher's positional
    parameters ``a0``, ``a1`` …: ``{v0}``, ``{v1}`` … are the values as
    analyses see them (Figure 5: integers signed, split i64 halves
    re-joined, floats untouched), ``{r0}`` … the same values raw,
    ``{values}`` all presented values and ``{rest}`` those after the first.
    ``hook`` is the analysis method (or the kind's helper), ``op`` the
    hook's mnemonic or block kind; ``statics`` runs once per call site.
    """

    methods: tuple[str, ...]
    call: str
    statics: str = ""


_OFFSET = "offset = info.memarg_offset(loc.func, loc.instr)"
_INDEX = "index = info.var_index(loc.func, loc.instr)"
_BR_TARGET = "target = info.br_target(loc.func, loc.instr)"

#: hook kind → its translation; indirect ``call_pre`` has its own row.
_TRANSLATIONS: dict[str, _Row] = {
    "const": _Row(("const_",), "hook(loc, {v0})"),
    "drop": _Row(("drop",), "hook(loc, {v0})"),
    "select": _Row(("select",), "hook(loc, {r2} != 0, {v0}, {v1})"),
    "unary": _Row(("unary",), "hook(loc, op, {v0}, {v1})"),
    "binary": _Row(("binary",), "hook(loc, op, {v0}, {v1}, {v2})"),
    # ``new`` is ``tuple.__new__``: the MemArg is built with no Python frame
    "load": _Row(("load",), "hook(loc, op, new(MemArg, ({r0}, offset)), {v1})", _OFFSET),
    "store": _Row(("store",), "hook(loc, op, new(MemArg, ({r0}, offset)), {v1})", _OFFSET),
    "local": _Row(("local",), "hook(loc, op, index, {v0})", _INDEX),
    "global": _Row(("global_",), "hook(loc, op, index, {v0})", _INDEX),
    "memory_size": _Row(("memory_size",), "hook(loc, {r0})"),
    "memory_grow": _Row(("memory_grow",), "hook(loc, {r0}, {r1})"),
    "call_pre": _Row(("call_pre",), "hook(loc, target, [{values}], None)",
                     "target = info.call_target(loc.func, loc.instr)"),
    "call_pre_indirect": _Row(("call_pre",),
                              "hook(loc, callee({r0}), [{rest}], {r0})"),
    "call_post": _Row(("call_post",), "hook(loc, [{values}])"),
    "return": _Row(("return_",), "hook(loc, [{values}])"),
    "br": _Row(("br",), "hook(loc, target)", _BR_TARGET),
    "br_if": _Row(("br_if",), "hook(loc, target, {r0} != 0)", _BR_TARGET),
    # the helper hook also fires the end hooks of the traversed blocks
    "br_table": _Row(("br_table", "end"), "hook(loc, table, {r0})",
                     "table = info.br_table_info(loc.func, loc.instr)"),
    "if": _Row(("if_",), "hook(loc, {r0} != 0)"),
    "begin": _Row(("begin",), "hook(loc, op)"),
    "end": _Row(("end",), "hook(loc, op, begin)",
                "begin = info.begin_location(loc.func, loc.instr, op)"),
    "nop": _Row(("nop",), "hook(loc)"),
    "unreachable": _Row(("unreachable",), "hook(loc)"),
}


def _row_key(spec: HookSpec) -> str:
    """The :data:`_TRANSLATIONS` key of one hook."""
    if spec.kind == "call_pre" and spec.payload[0] == "indirect":
        return "call_pre_indirect"
    return spec.kind


#: An :class:`AnalysisError` (a nested dispatch's, or an ``AnalysisAbort``
#: trap in flight) propagates unwrapped; ``KeyboardInterrupt`` and
#: ``SystemExit`` are no ``Exception`` and are never contained.
_BIND_SOURCE = """\
def bind(loc):
    {statics}
    def dispatch({params}):
        {start}
        try:
            {call}
        except AnalysisError:
            raise
        except Exception as exc:
            fault(exc, loc)
        {finish}
    return dispatch
"""


def _value_exprs(value_types: tuple[ValType, ...]) -> tuple[list, list]:
    """Per logical hook value, its ``(raw, presented)`` source.

    The source reads the flat (post-i64-split) values as ``a0``, ``a1`` …,
    the dispatcher's positional parameters. ``raw`` keeps the engine's
    canonical unsigned form (addresses, table indices), ``presented``
    applies the Figure-5 conversion: integers become signed Python ints,
    floats pass through. Split i64 halves are re-joined by both. The sign
    conversion compares and subtracts, which on the canonical values the
    engines hold equals ``(x ^ 2**(w-1)) - 2**(w-1)`` without building two
    multi-digit ints per value.
    """
    raw: list[str] = []
    presented: list[str] = []
    i = 0
    for valtype in value_types:
        if valtype is I64:
            joined = f"(a{i} | (a{i + 1} << 32))"
            raw.append(joined)
            presented.append(f"(j{i} if (j{i} := {joined}) < 0x8000000000000000 "
                             f"else j{i} - 0x10000000000000000)")
            i += 2
        else:
            raw.append(f"a{i}")
            presented.append(f"(a{i} if a{i} < 0x80000000 else a{i} - 0x100000000)"
                             if valtype is ValType.I32 else f"a{i}")
            i += 1
    return raw, presented


def _bind_source(row: _Row, value_types: tuple[ValType, ...],
                 timed: bool) -> str:
    """The source of ``bind(loc)`` for one row and hook signature.

    Timed dispatchers observe each event's latency, fault handling
    included, into the hook's histogram.
    """
    raw, presented = _value_exprs(value_types)
    params = ", ".join(f"a{k}" for k in range(len(split_i64(value_types))))
    call = row.call.format(
        values=", ".join(presented), rest=", ".join(presented[1:]),
        **{f"v{k}": v for k, v in enumerate(presented)},
        **{f"r{k}": r for k, r in enumerate(raw)})
    return _BIND_SOURCE.format(
        statics=row.statics, params=params, call=call,
        start="start = clock()" if timed else "",
        finish=("finally:\n            observe(clock() - start)"
                if timed else ""))


@lru_cache(maxsize=1024)
def _bind_code(src: str):
    """The code object of one ``bind`` source, compiled once per process.

    One ``analyze`` block (30 PolyBench kernels under each of the seven
    analyses) needs 23 sources; the bound keeps a long-lived process from
    growing the cache. It is kept apart from the segment cache, whose
    counters the machine charges as segment compiles.
    """
    return compile(src, "<wasabi-hook>", "exec")


def _overrides(analysis: Analysis, method_name: str) -> bool:
    """Whether ``analysis`` overrides a hook method of :class:`Analysis`.

    Instance attributes (as installed by ``CompositeAnalysis``) count as
    overrides just like subclass methods.
    """
    impl = getattr(analysis, method_name)
    return getattr(impl, "__func__", impl) is not getattr(Analysis, method_name)


def _noop_dispatcher(*args) -> None:
    """Shared dispatcher for hooks whose analysis methods are not overridden.

    It also replaces a quarantined host function's ``fn``, which the
    host-call path calls with one argument list."""


#: ``bind(location)`` → the dispatcher of one hook at one call site, which
#: takes the site's popped values as positional arguments.
_Binder = Callable[[Location], Callable[..., None]]


class WasabiRuntime:
    """Builds and owns the low-level hook host functions for one analysis."""

    def __init__(self, result: InstrumentationResult, analysis: Analysis,
                 on_analysis_error: str = "raise",
                 telemetry: "Telemetry | None" = None,
                 replay=None):
        if on_analysis_error not in ERROR_POLICIES:
            raise ValueError(
                f"on_analysis_error must be one of {ERROR_POLICIES}, "
                f"got {on_analysis_error!r}")
        self.info: StaticInfo = result.info
        self.analysis = analysis
        self.on_analysis_error = on_analysis_error
        self.telemetry = telemetry
        #: Recorder/Replayer for hook-fault and quarantine events. Hook
        #: *calls* are never recorded (they re-execute live during replay);
        #: their faults and the containment verdicts are, so a replayed run
        #: must fault at the same locations with the same policy outcomes.
        self.replay = replay
        self.instance: Instance | None = None
        #: AnalysisError records for every contained hook fault, in order.
        self.hook_faults: list[AnalysisError] = []
        self._quarantined: set[str] = set()
        self._hosts: dict[str, HostFunction] = {}
        self._num_original_imports = sum(
            1 for f in self.info.module_info.functions if f.imported)
        self._num_hooks = len(self.info.hooks)
        self._with_locations = True
        if self.info.hooks:
            # all hooks share the location convention
            first = self.info.hooks[0]
            self._with_locations = (len(first.wasm_params)
                                    == len(split_i64(first.value_types)) + 2)

    def bind(self, instance: Instance) -> None:
        """Attach the instrumented instance (needed for table lookups)."""
        self.instance = instance

    # -- host function generation ----------------------------------------------

    def host_functions(self) -> dict[str, HostFunction]:
        """One generated host function per low-level hook.

        Each host function is annotated for the pre-decoding engine:
        ``is_wasabi_hook`` marks it void-by-construction, and (when hooks
        carry location parameters) ``site_factory`` lets the engine request
        a per-call-site dispatcher at instantiation time.
        """
        out: dict[str, HostFunction] = {}
        for spec in self.info.hooks:
            bind = self._site_binder(spec) if self._hook_is_live(spec) else None
            host = HostFunction(spec.functype,
                                self._lookup_dispatcher(spec.name, bind),
                                name=spec.name)
            host.is_wasabi_hook = True
            # bind_hook_sites records every table entry bound from this
            # host here, so quarantine() can swap it for the no-op
            host.site_registry = []
            if self._with_locations:
                host.site_factory = self._site_factory(spec.name, bind)
            out[spec.name] = host
        self._hosts.update(out)
        return out

    def _hook_is_live(self, spec: HookSpec) -> bool:
        """Whether any analysis method this hook dispatches to is overridden."""
        return any(_overrides(self.analysis, method)
                   for method in _TRANSLATIONS[_row_key(spec)].methods)

    # -- fault containment ---------------------------------------------------

    def _hook_fault(self, hook_name: str, exc: Exception,
                    location: Location | None) -> None:
        """Record one contained hook fault and apply the error policy."""
        if not self._with_locations:
            location = None  # the hook's Location(-1, -1) is a placeholder
        where = f" at {location}" if location is not None else ""
        message = (f"analysis hook {hook_name!r} raised "
                   f"{type(exc).__name__}: {exc}{where}")
        policy = self.on_analysis_error
        cls = AnalysisAbort if policy == "abort" else AnalysisError
        error = cls(message, hook_name=hook_name, location=location)
        error.__cause__ = exc
        self.hook_faults.append(error)
        tele = self.telemetry
        if tele is not None:
            tele.event("hook_fault", hook=hook_name,
                       func=location.func if location is not None else None,
                       instr=location.instr if location is not None else None,
                       exception=type(exc).__name__, policy=policy,
                       message=str(exc))
        replay = self.replay
        if replay is not None:
            # record (or verify, when replaying) before the policy applies,
            # so even a propagated fault is in the log
            replay.hook_fault(hook_name, exc, location, policy)
        if policy == "raise" or policy == "abort":
            raise error
        if policy == "quarantine":
            self.quarantine(hook_name)
        if tele is None:
            # without a telemetry event log, containment reports on stderr
            print(f"repro: contained {message}"
                  + (" (hook quarantined)" if policy == "quarantine" else ""),
                  file=sys.stderr)

    def quarantine(self, hook_name: str) -> None:
        """Atomically replace every dispatcher of one hook with the no-op.

        Swaps the host function's ``fn`` (the host-call path) and every
        dispatcher-table entry in its site registry. Each swap is one
        reference assignment, atomic under the GIL; the engines read the
        table at every event, so sites reached later in the *current*
        invocation, in the same compiled segment included, see the no-op.
        """
        self._quarantined.add(hook_name)
        if self.telemetry is not None:
            self.telemetry.event("hook_quarantined", hook=hook_name)
        if self.replay is not None:
            self.replay.quarantine(hook_name)
        host = self._hosts.get(hook_name)
        if host is None:
            return
        host.fn = _noop_dispatcher
        for table, site in host.site_registry:
            table[site] = _noop_dispatcher

    def _callee(self, table_index: int) -> int:
        """The original index of the function at ``table_index`` of the
        live table (the inverse of the instrumenter's remapping), or -1."""
        instance = self.instance
        if instance is None or instance.table is None:
            return -1
        entry = instance.table.lookup(table_index)
        if entry is None:
            return -1
        return entry if entry < self._num_original_imports else entry - self._num_hooks

    def _br_table_hook(self) -> Callable:
        """The ``br_table`` row's helper: the ``br_table`` event, then the
        ``end`` events of the blocks the taken entry leaves (§2.4.5)."""
        analysis = self.analysis
        br_table = analysis.br_table if _overrides(analysis, "br_table") else None
        end = analysis.end if _overrides(analysis, "end") else None

        def fire(loc: Location, table, table_index: int) -> None:
            if br_table is not None:
                br_table(loc, table.targets, table.default, table_index)
            if end is not None:
                for event in table.select(table_index)[1]:
                    end(event.end, event.kind, event.begin)
        return fire

    # -- per-call-site dispatch ---------------------------------------------------

    def _site_factory(self, hook_name: str, bind: "_Binder | None"
                      ) -> Callable[[int, int], Callable[..., None]]:
        """The factory the pre-decoding engine calls once per
        ``const/const/call`` hook site with its two raw location constants:
        that site's dispatcher, or the no-op for a dead or quarantined hook.
        If it raises (no static info), the engine keeps the host-call path,
        which faults at event time instead."""

        def factory(func_const: int, instr_const: int) -> Callable[..., None]:
            if bind is None or hook_name in self._quarantined:
                return _noop_dispatcher
            # the begin-function hook's instr index is emitted as -1 and
            # arrives pre-masked; the func index is always nonnegative
            return bind(Location(func_const, to_signed(instr_const, 32)))
        return factory

    def _lookup_dispatcher(self, hook_name: str,
                           bind: "_Binder | None") -> Callable[[list], None]:
        """The host-call dispatcher over the same per-site ``bind``.

        Hook calls that reach the host function pass one argument list,
        which carries the location as its two trailing values; each
        location's dispatcher is bound on first use, memoized, and called
        with the other values as positional arguments. Without location
        parameters every call shares one bound to ``Location(-1, -1)``. A
        ``bind`` failure is a hook fault at that event, and binding is
        retried at the next.
        """
        if bind is None:
            return _noop_dispatcher
        sites: dict[tuple[int, int], Callable[..., None]] = {}

        def bind_site(func: int, instr: int) -> Callable[..., None]:
            location = Location(func, to_signed(instr, 32))
            try:
                site = sites[func, instr] = bind(location)
            except Exception as exc:  # a location with no static info
                self._hook_fault(hook_name, exc, location)
                return _noop_dispatcher
            return site

        if not self._with_locations:
            def dispatch_unlocated(args: list) -> None:
                (sites.get((-1, -1)) or bind_site(-1, -1))(*args)
            return dispatch_unlocated

        def dispatch(args: list) -> None:
            key = (args[-2], args[-1])
            site = sites.get(key)
            if site is None:
                site = bind_site(*key)
            site(*args[:-2])
        return dispatch

    def _site_binder(self, spec: HookSpec) -> "_Binder":
        """``bind(location)`` of one live hook, generated from its row.

        ``bind`` resolves the site's statics once and returns its
        dispatcher; it raises (``KeyError``) for a location with no static
        info of the kind the hook needs.
        """
        key = _row_key(spec)
        row = _TRANSLATIONS[key]
        tele = self.telemetry
        namespace = {
            "hook": (self._br_table_hook() if key == "br_table"
                     else getattr(self.analysis, row.methods[0])),
            "op": spec.payload[0] if spec.payload else None,
            "info": self.info, "MemArg": MemArg, "new": tuple.__new__,
            "callee": self._callee,
            "AnalysisError": AnalysisError,
            "fault": partial(self._hook_fault, spec.name),
        }
        if tele is not None:
            namespace["clock"] = tele.clock
            namespace["observe"] = tele.hook_histogram(spec.name).observe
        exec(_bind_code(_bind_source(row, spec.value_types, tele is not None)),
             namespace)
        return namespace["bind"]
