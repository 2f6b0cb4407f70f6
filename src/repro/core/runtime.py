"""The Wasabi runtime: generated low-level hooks dispatching to the analysis.

For every :class:`HookSpec` the instrumenter generated, the runtime creates
a host function (the analogue of the paper's generated JavaScript low-level
hooks). These functions

* re-join split i64 halves into full-width integers (§2.4.6),
* convert raw i32 condition values to booleans (Figure 5),
* attach pre-computed static information — resolved branch targets, memory
  offsets, variable indices, call targets (§2.3 "pre-computed information"),
* resolve indirect-call table indices to the actually called function by
  reading the live table (§2.3), and
* for ``br_table``, select the taken entry and fire the end hooks of all
  traversed blocks at runtime (§2.4.5),

before invoking the user's high-level hooks.

Every hook kind's translation lives in one place,
:meth:`WasabiRuntime._site_binder`: given a call site's :class:`Location`
it resolves that site's static information (branch targets, memarg
offsets, variable indices, call targets, begin/end matching) and value
converters once and returns a dispatcher over the popped value arguments.
The engines reach it two ways:

* the pre-decoding engine calls the ``site_factory`` host-function
  attribute once per fused ``const/const/call`` site at instantiation time
  and binds the returned closure into an ``OP_HOOK`` superinstruction, so
  per event nothing is looked up;
* every other hook call (the legacy engine, or a site the engine could
  not fuse) calls the host function itself, which looks the bound
  dispatcher up by the trailing ``(func, instr)`` location arguments and
  binds it on first use.

Hooks whose high-level methods the analysis does not override dispatch to a
shared no-op on both paths.

**Fault containment.** Every dispatch runs the analysis under exactly one
containment wrapper: an exception escaping a hook is wrapped in
:class:`~repro.wasm.errors.AnalysisError` carrying the hook name and
:class:`Location`, and then handled per the runtime's
``on_analysis_error`` policy — ``raise`` (propagate to the embedder),
``abort`` (trap the guest with :class:`~repro.wasm.errors.AnalysisAbort`),
``quarantine`` (atomically swap that hook's dispatchers — ``OP_HOOK``
sites included, via the host functions' site registries — for
the shared no-op and keep the guest running), or ``log`` (record, report on
stderr, keep dispatching).
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Callable

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


#: hook kind → analysis method(s) a dispatcher for that kind may invoke.
_KIND_TO_METHODS: dict[str, tuple[str, ...]] = {
    "const": ("const_",),
    "drop": ("drop",),
    "select": ("select",),
    "unary": ("unary",),
    "binary": ("binary",),
    "load": ("load",),
    "store": ("store",),
    "local": ("local",),
    "global": ("global_",),
    "memory_size": ("memory_size",),
    "memory_grow": ("memory_grow",),
    "call_pre": ("call_pre",),
    "call_post": ("call_post",),
    "return": ("return_",),
    "br": ("br",),
    "br_if": ("br_if",),
    # the br_table dispatcher also fires the end hooks of traversed blocks
    "br_table": ("br_table", "end"),
    "if": ("if_",),
    "begin": ("begin",),
    "end": ("end",),
    "nop": ("nop",),
    "unreachable": ("unreachable",),
}


def _overrides(analysis: Analysis, method_name: str) -> bool:
    """Whether ``analysis`` overrides a hook method of :class:`Analysis`.

    Instance attributes (as installed by ``CompositeAnalysis``) count as
    overrides just like subclass methods.
    """
    impl = getattr(analysis, method_name)
    return getattr(impl, "__func__", impl) is not getattr(Analysis, method_name)


_SIGN32 = 1 << 31
_SIGN64 = 1 << 63


def _part_extractors(value_types: tuple[ValType, ...]):
    """Per logical hook value: ``(raw, presented)`` extractor pairs.

    Each extractor takes the flat (post-i64-split) raw argument list and
    returns one logical value; ``raw`` keeps the engine's canonical unsigned
    form (used for addresses and table indices), ``presented`` applies the
    Figure-5 conversion (integers become signed Python ints, the JavaScript
    ``number`` / long.js view; floats pass through). Split i64 halves are
    re-joined by both. Index arithmetic happens here, once per hook.
    """
    raws: list = []
    presented: list = []
    cursor = 0
    for valtype in value_types:
        if valtype is I64:
            lo, hi = cursor, cursor + 1
            raws.append(lambda a, lo=lo, hi=hi: a[lo] | (a[hi] << 32))
            # branch-free sign conversion: (x ^ 2**63) - 2**63
            presented.append(
                lambda a, lo=lo, hi=hi:
                ((a[lo] | (a[hi] << 32)) ^ _SIGN64) - _SIGN64)
            cursor += 2
        else:
            i = cursor
            raws.append(lambda a, i=i: a[i])
            if valtype is ValType.I32:
                presented.append(lambda a, i=i: (a[i] ^ _SIGN32) - _SIGN32)
            else:
                presented.append(lambda a, i=i: a[i])
            cursor += 1
    return raws, presented


def _noop_dispatcher(args: list) -> None:
    """Shared dispatcher for hooks whose analysis methods are not overridden."""


#: ``bind(location)`` → the dispatcher of one hook at one call site.
_Binder = Callable[[Location], Callable[[list], None]]


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
        self.enabled = True  # allows pausing an analysis mid-run

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
            dispatcher = self._contain(
                self._timed(self._lookup_dispatcher(bind), spec.name), spec.name)
            host = HostFunction(spec.functype, dispatcher, name=spec.name)
            host.is_wasabi_hook = True
            # every OP_HOOK site bound from this host is recorded here by
            # bind_hook_sites, so quarantine() can swap them for the no-op
            host.site_registry = []
            if self._with_locations:
                host.site_factory = self._site_factory(spec.name, bind)
            out[spec.name] = host
        self._hosts.update(out)
        return out

    def _hook_is_live(self, spec: HookSpec) -> bool:
        """Whether any analysis method this hook dispatches to is overridden."""
        return any(_overrides(self.analysis, method)
                   for method in _KIND_TO_METHODS[spec.kind])

    # -- telemetry ---------------------------------------------------------------

    def _timed(self, inner: Callable[[list], None],
               hook_name: str) -> Callable[[list], None]:
        """Wrap a dispatcher so each dispatch is timed into the telemetry's
        per-hook latency histogram.

        The histogram (and its ``.observe``) is resolved once per hook at
        wrap time, so the per-dispatch cost is two clock reads and one
        bisect. Without telemetry (or for the shared no-op of a dead hook)
        the dispatcher passes through untouched — the disabled path adds
        nothing. Containment wraps *outside* this, so a faulting dispatch
        still records its latency before the policy applies.
        """
        tele = self.telemetry
        if tele is None or inner is _noop_dispatcher:
            return inner
        observe = tele.hook_histogram(hook_name).observe
        clock = tele.clock

        def timed(args: list) -> None:
            start = clock()
            try:
                inner(args)
            finally:
                observe(clock() - start)

        return timed

    # -- fault containment ---------------------------------------------------

    def _contain(self, inner: Callable[[list], None], hook_name: str,
                 location: Location | None = None) -> Callable[[list], None]:
        """Wrap a dispatcher so hook exceptions are contained per policy.

        The shared no-op passes through unwrapped (it cannot raise), so
        dead hooks keep identity-comparable no-op dispatch. Exceptions that
        are already :class:`AnalysisError` (a nested contained dispatch, or
        an :class:`AnalysisAbort` trap in flight) propagate unwrapped.
        ``KeyboardInterrupt``/``SystemExit`` are never contained.
        """
        if inner is _noop_dispatcher:
            return inner

        def contained(args: list) -> None:
            try:
                inner(args)
            except AnalysisError:
                raise
            except Exception as exc:
                self._hook_fault(exc, hook_name, location, args)

        return contained

    def _hook_fault(self, exc: Exception, hook_name: str,
                    location: Location | None, args: list) -> None:
        """Record one contained hook fault and apply the error policy."""
        if location is None:
            # host-call dispatch has no statically bound Location; recover
            # it from the trailing location parameters when present
            if self._with_locations and len(args) >= 2:
                try:
                    location = Location(args[-2], to_signed(args[-1], 32))
                except (TypeError, IndexError):
                    location = None
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

        Swaps the host function's ``fn`` (the host-call dispatch path) and
        every ``OP_HOOK`` site recorded in its site registry. Each swap is
        a single reference assignment, so a swap is
        atomic under the GIL and takes effect immediately — the engines read
        dispatchers from the live instruction stream, so even sites reached
        later in the *current* invocation dispatch to the no-op.
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
        for code, pc in host.site_registry:
            ins = code[pc]
            code[pc] = (ins[0], _noop_dispatcher, ins[2], ins[3])

    def _original_func_idx(self, instrumented_idx: int) -> int:
        """Map a function index of the instrumented module back to the
        original index space (inverse of the instrumenter's remapping)."""
        if instrumented_idx < self._num_original_imports:
            return instrumented_idx
        return instrumented_idx - self._num_hooks

    # -- per-call-site dispatch ---------------------------------------------------

    def _site_factory(self, hook_name: str, bind: "_Binder | None"
                      ) -> Callable[[int, int], Callable[[list], None]]:
        """The factory the pre-decoding engine calls once per fused
        ``const/const/call`` hook site with the two raw location constants.

        It returns that site's bound dispatcher, wrapped for timing and
        containment (or the shared no-op for a dead or quarantined hook).
        A factory raising (a site with no static info) makes the engine
        keep the host-call path, which raises at event time instead.
        """

        def factory(func_const: int, instr_const: int) -> Callable[[list], None]:
            if bind is None or hook_name in self._quarantined:
                return _noop_dispatcher
            # the begin-function hook's instr index is emitted as -1 and
            # arrives pre-masked; the func index is always nonnegative
            location = Location(func_const, to_signed(instr_const, 32))
            return self._contain(self._timed(bind(location), hook_name),
                                 hook_name, location)
        return factory

    def _lookup_dispatcher(self, bind: "_Binder | None") -> Callable[[list], None]:
        """The host-call dispatcher over the same per-site ``bind``.

        Hook calls that reach the host function (the legacy engine, sites
        the engine did not fuse) carry the location as their two trailing
        arguments: the dispatcher bound for that location is built on first
        use and memoized. Without location parameters every call shares
        one dispatcher bound to ``Location(-1, -1)``. A ``bind`` failure
        raises here, at event time, inside the caller's containment.
        """
        if bind is None:
            return _noop_dispatcher
        if not self._with_locations:
            unlocated = None

            def dispatch_unlocated(args: list) -> None:
                nonlocal unlocated
                if unlocated is None:
                    unlocated = bind(Location(-1, -1))
                unlocated(args)
            return dispatch_unlocated

        sites: dict[tuple[int, int], Callable[[list], None]] = {}

        def dispatch(args: list) -> None:
            key = (args[-2], args[-1])
            site = sites.get(key)
            if site is None:
                site = sites[key] = bind(Location(key[0], to_signed(key[1], 32)))
            site(args[:-2])
        return dispatch

    def _site_binder(self, spec: HookSpec) -> "_Binder":
        """Per-kind translation of one live hook: ``bind(location)``.

        ``bind`` returns a dispatcher over the popped value arguments with
        everything constant at that site — the :class:`Location`, memarg
        offset, variable index, direct-call target, branch targets,
        br_table entries, begin/end matching, and the value converters —
        resolved once, never per event. It raises (``KeyError``) for a
        location with no static info of the kind the hook needs.
        """
        analysis = self.analysis
        kind = spec.kind
        payload = spec.payload
        info = self.info

        raws, presented = _part_extractors(spec.value_types)
        # the hottest dispatchers (pure-i32 and pure-float shapes) are
        # flattened below to avoid even the per-value extractor calls
        all_i32 = all(t is ValType.I32 for t in spec.value_types)
        all_float = all(t not in (ValType.I32, I64) for t in spec.value_types)

        if kind in ("const", "drop"):
            hook = analysis.const_ if kind == "const" else analysis.drop
            if all_i32:
                def bind(loc: Location) -> Callable[[list], None]:
                    def dispatch(args: list) -> None:
                        hook(loc, (args[0] ^ _SIGN32) - _SIGN32)
                    return dispatch
            elif all_float:
                def bind(loc: Location) -> Callable[[list], None]:
                    def dispatch(args: list) -> None:
                        hook(loc, args[0])
                    return dispatch
            else:
                def bind(loc: Location) -> Callable[[list], None]:
                    def dispatch(args: list) -> None:
                        hook(loc, ((args[0] | (args[1] << 32)) ^ _SIGN64)
                             - _SIGN64)
                    return dispatch
        elif kind == "select":
            hook = analysis.select
            first, second, condition = presented[0], presented[1], raws[2]
            def bind(loc: Location) -> Callable[[list], None]:
                def dispatch(args: list) -> None:
                    hook(loc, bool(condition(args)), first(args), second(args))
                return dispatch
        elif kind == "unary":
            hook = analysis.unary
            op = payload[0]
            if all_i32:
                def bind(loc: Location) -> Callable[[list], None]:
                    def dispatch(args: list) -> None:
                        hook(loc, op, (args[0] ^ _SIGN32) - _SIGN32,
                             (args[1] ^ _SIGN32) - _SIGN32)
                    return dispatch
            elif all_float:
                def bind(loc: Location) -> Callable[[list], None]:
                    def dispatch(args: list) -> None:
                        hook(loc, op, args[0], args[1])
                    return dispatch
            else:
                inp, res = presented[0], presented[1]
                def bind(loc: Location) -> Callable[[list], None]:
                    def dispatch(args: list) -> None:
                        hook(loc, op, inp(args), res(args))
                    return dispatch
        elif kind == "binary":
            hook = analysis.binary
            op = payload[0]
            if all_i32:
                def bind(loc: Location) -> Callable[[list], None]:
                    def dispatch(args: list) -> None:
                        hook(loc, op, (args[0] ^ _SIGN32) - _SIGN32,
                             (args[1] ^ _SIGN32) - _SIGN32,
                             (args[2] ^ _SIGN32) - _SIGN32)
                    return dispatch
            elif all_float:
                def bind(loc: Location) -> Callable[[list], None]:
                    def dispatch(args: list) -> None:
                        hook(loc, op, args[0], args[1], args[2])
                    return dispatch
            else:
                first, second, res = presented[0], presented[1], presented[2]
                def bind(loc: Location) -> Callable[[list], None]:
                    def dispatch(args: list) -> None:
                        hook(loc, op, first(args), second(args), res(args))
                    return dispatch
        elif kind in ("load", "store"):
            hook = analysis.load if kind == "load" else analysis.store
            op = payload[0]
            valtype = spec.value_types[1]  # (address, value)
            if valtype is ValType.I32:
                def bind(loc: Location) -> Callable[[list], None]:
                    offset = info.memarg_offset(loc.func, loc.instr)
                    def dispatch(args: list) -> None:
                        hook(loc, op, MemArg(args[0], offset),
                             (args[1] ^ _SIGN32) - _SIGN32)
                    return dispatch
            elif valtype is I64:
                def bind(loc: Location) -> Callable[[list], None]:
                    offset = info.memarg_offset(loc.func, loc.instr)
                    def dispatch(args: list) -> None:
                        hook(loc, op, MemArg(args[0], offset),
                             ((args[1] | (args[2] << 32)) ^ _SIGN64) - _SIGN64)
                    return dispatch
            else:
                def bind(loc: Location) -> Callable[[list], None]:
                    offset = info.memarg_offset(loc.func, loc.instr)
                    def dispatch(args: list) -> None:
                        hook(loc, op, MemArg(args[0], offset), args[1])
                    return dispatch
        elif kind in ("local", "global"):
            hook = analysis.local if kind == "local" else analysis.global_
            op = payload[0]
            if all_i32:
                def bind(loc: Location) -> Callable[[list], None]:
                    index = info.var_index(loc.func, loc.instr)
                    def dispatch(args: list) -> None:
                        hook(loc, op, index, (args[0] ^ _SIGN32) - _SIGN32)
                    return dispatch
            elif all_float:
                def bind(loc: Location) -> Callable[[list], None]:
                    index = info.var_index(loc.func, loc.instr)
                    def dispatch(args: list) -> None:
                        hook(loc, op, index, args[0])
                    return dispatch
            else:
                def bind(loc: Location) -> Callable[[list], None]:
                    index = info.var_index(loc.func, loc.instr)
                    def dispatch(args: list) -> None:
                        hook(loc, op, index,
                             ((args[0] | (args[1] << 32)) ^ _SIGN64)
                             - _SIGN64)
                    return dispatch
        elif kind == "memory_size":
            hook = analysis.memory_size
            def bind(loc: Location) -> Callable[[list], None]:
                def dispatch(args: list) -> None:
                    hook(loc, args[0])
                return dispatch
        elif kind == "memory_grow":
            hook = analysis.memory_grow
            def bind(loc: Location) -> Callable[[list], None]:
                def dispatch(args: list) -> None:
                    hook(loc, args[0], args[1])
                return dispatch
        elif kind == "call_pre":
            hook = analysis.call_pre
            if payload[0] == "indirect":
                arg_parts = presented[1:]  # raws[0] is the raw table index
                def bind(loc: Location) -> Callable[[list], None]:
                    def dispatch(args: list) -> None:
                        table_index = args[0]
                        call_args = [part(args) for part in arg_parts]
                        target = -1
                        instance = self.instance
                        if instance is not None and instance.table is not None:
                            entry = instance.table.lookup(table_index)
                            if entry is not None:
                                target = self._original_func_idx(entry)
                        hook(loc, target, call_args, table_index)
                    return dispatch
            else:
                arg_parts = presented
                def bind(loc: Location) -> Callable[[list], None]:
                    target = info.call_target(loc.func, loc.instr)
                    def dispatch(args: list) -> None:
                        hook(loc, target, [part(args) for part in arg_parts], None)
                    return dispatch
        elif kind in ("call_post", "return"):
            hook = analysis.call_post if kind == "call_post" else analysis.return_
            parts = presented
            def bind(loc: Location) -> Callable[[list], None]:
                def dispatch(args: list) -> None:
                    hook(loc, [part(args) for part in parts])
                return dispatch
        elif kind == "br":
            hook = analysis.br
            def bind(loc: Location) -> Callable[[list], None]:
                target = info.br_target(loc.func, loc.instr)
                def dispatch(args: list) -> None:
                    hook(loc, target)
                return dispatch
        elif kind == "br_if":
            hook = analysis.br_if
            def bind(loc: Location) -> Callable[[list], None]:
                target = info.br_target(loc.func, loc.instr)
                def dispatch(args: list) -> None:
                    hook(loc, target, bool(args[0]))
                return dispatch
        elif kind == "br_table":
            br_hook = analysis.br_table if _overrides(analysis, "br_table") else None
            end_hook = analysis.end if _overrides(analysis, "end") else None
            def bind(loc: Location) -> Callable[[list], None]:
                table_info = info.br_table_info(loc.func, loc.instr)
                targets, default = table_info.targets, table_info.default
                ended, n_entries = table_info.ended, len(table_info.targets)
                def dispatch(args: list) -> None:
                    table_index = args[0]
                    if br_hook is not None:
                        br_hook(loc, targets, default, table_index)
                    if end_hook is not None:
                        taken = table_index if table_index < n_entries else -1
                        for event in ended[taken]:
                            end_hook(event.end, event.kind, event.begin)
                return dispatch
        elif kind == "if":
            hook = analysis.if_
            def bind(loc: Location) -> Callable[[list], None]:
                def dispatch(args: list) -> None:
                    hook(loc, bool(args[0]))
                return dispatch
        elif kind == "begin":
            hook = analysis.begin
            block_type = payload[0]
            def bind(loc: Location) -> Callable[[list], None]:
                def dispatch(args: list) -> None:
                    hook(loc, block_type)
                return dispatch
        elif kind == "end":
            hook = analysis.end
            block_type = payload[0]
            def bind(loc: Location) -> Callable[[list], None]:
                begin = info.begin_location(loc.func, loc.instr, block_type)
                def dispatch(args: list) -> None:
                    hook(loc, block_type, begin)
                return dispatch
        elif kind in ("nop", "unreachable"):
            hook = analysis.nop if kind == "nop" else analysis.unreachable
            def bind(loc: Location) -> Callable[[list], None]:
                def dispatch(args: list) -> None:
                    hook(loc)
                return dispatch
        else:  # pragma: no cover - registry only produces known kinds
            raise ValueError(f"unknown hook kind {kind!r}")

        return bind
