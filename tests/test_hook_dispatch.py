"""Per-call-site hook dispatch (OP_HOOK fusion).

The pre-decoding engine recognizes the instrumentation idiom
``i32.const f; i32.const i; call <hook>`` and decodes it into one
``OP_HOOK`` slot that calls its entry of the instance's dispatcher table,
whose dispatcher has the Location and all per-site static information
resolved at instantiation time; straight-line runs holding such sites
compile into hook segments. The legacy engine reaches the same per-site
dispatchers through the hook's host function. These tests pin down

* the decode-time site recording, the shared stream's ``OP_HOOK`` slots
  and compiled hook segments, and each instance's dispatcher table,
* that the pre-decoded engine produces event streams identical to the
  legacy string-dispatch engine (differential corpus + hypothesis over
  random hook groups; the corpus streams are also pinned by digest in
  ``test_golden_pins.py``),
* the shared no-op dispatcher for un-overridden hooks,
* ``Analysis.used_groups()`` and ``AnalysisSession(groups=None)``
  auto-narrowing, and
* the ``emit_locations=False`` regression (args passed through, not copied),
  and
* the generated dispatchers: a translation-table row for every emitted hook
  kind, no outside text in their source, one frame between a compiled
  segment and the analysis, and one compile per source per process.
"""

import io
import sys
import tokenize
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.analyses.tracer import ExecutionTracer
from repro.core import Analysis, AnalysisSession, analyze
from repro.core.analysis import ALL_GROUPS, Location, MemArg
from repro.core.hooks import HOOK_MODULE
from repro.core.instrument import InstrumentationConfig, instrument_module
from repro.core.runtime import (_TRANSLATIONS, WasabiRuntime, _bind_code,
                                _bind_source, _noop_dispatcher, _row_key)
from repro.eval.workloads import polybench_workloads
from repro.interp import Linker, Machine, WasmFunction
from repro.interp.predecode import (OP_CALL, OP_CALL_INDIRECT, OP_CONST,
                                    OP_HOOK, OP_SEGMENT, cached_decode)
from repro.minic import compile_source
from repro.wasm.builder import ModuleBuilder
from repro.wasm.module import BrTable
from repro.wasm.types import I32
from repro.workloads import engine_demo, pdf_toolkit
from repro.workloads.polybench import compile_kernel

from .test_instrument_properties import minic_program
from .test_quickened import _dispatch_module, hook_segments

# -- differential corpus ---------------------------------------------------------


def br_table_module():
    """Nested blocks with a br_table: taken entry decides traversed ends."""
    builder = ModuleBuilder()
    fb = builder.function((I32,), (I32,), export="f")
    fb.block()           # outer
    fb.block()           # inner
    fb.get_local(0)
    fb.emit("br_table", br_table=BrTable((0, 1), 1))
    fb.end()
    fb.end()
    fb.i32_const(5)
    fb.finish()
    return builder.build()


I64_SOURCE = """
    memory 1;
    func mix(x: i64) -> i64 { return (x << 3L) + 1L; }
    export func main(a: i32) -> i64 {
        var acc: i64 = i64(a);
        var i: i32;
        for (i = 0; i < 4; i = i + 1) {
            acc = mix(acc) ^ i64(i);
            mem_i64[i & 7] = acc;
            acc = acc + mem_i64[i & 7];
        }
        return acc;
    }
"""

MIXED_SOURCE = """
    memory 1;
    func helper(v: i32) -> i32 { return v * 3 - 1; }
    export func main(a: i32, b: i32) -> i32 {
        var x: i32 = a;
        if (b > 0) { x = helper(x) + b; } else { x = x - helper(b); }
        var i: i32;
        for (i = 0; i < 3; i = i + 1) {
            mem_i32[i] = x;
            x = x + mem_i32[i] + select(b, 1, 2);
        }
        return x;
    }
"""

INDIRECT_SOURCE = """
    type unop = func(i32) -> i32;
    func inc(x: i32) -> i32 { return x + 1; }
    func dec(x: i32) -> i32 { return x - 1; }
    table [inc, dec];
    export func main(i: i32, v: i32) -> i32 {
        return call_indirect[unop](i & 1, v);
    }
"""

#: The hook groups that need no location parameters (the others key their
#: static info by location).
NO_LOCATION_GROUPS = frozenset({"const", "drop", "select", "unary", "binary",
                                "load", "store", "if", "begin", "return"})


def stream(module, machine, entry, args, groups=None, config=None):
    tracer = ExecutionTracer()
    session = AnalysisSession(module, tracer, machine=machine,
                              groups=groups, config=config)
    session.invoke(entry, args)
    return tracer.events


ENGINES = {
    "predecoded": lambda: Machine(predecode=True),
    "legacy": lambda: Machine(predecode=False),
}


def assert_streams_identical(module, entry, args, **kwargs):
    streams = {name: stream(module, make(), entry, args, **kwargs)
               for name, make in ENGINES.items()}
    assert streams["predecoded"], "corpus program produced no events"
    assert streams["predecoded"] == streams["legacy"]
    return streams["predecoded"]


class TestDifferentialCorpus:
    def test_mixed_program(self):
        module = compile_source(MIXED_SOURCE)
        for args in [(4, 2), (-3, 0), (7, -5)]:
            assert_streams_identical(module, "main", args)

    def test_i64_splitting(self):
        """i64 hook values cross as two i32 halves and must re-join."""
        module = compile_source(I64_SOURCE)
        events = assert_streams_identical(module, "main", (-3,))
        # the re-joined values are signed full-width ints on every path
        assert any(e.kind == "binary" and "i64" in e.payload[0]
                   for e in events)

    def test_br_table_traversed_ends(self):
        module = br_table_module()
        for arg in (0, 1, 2):
            events = assert_streams_identical(module, "f", (arg,))
            assert [e for e in events if e.kind == "br_table"]
            assert [e for e in events if e.kind == "end"]

    def test_memory_size_and_grow(self, memory_module):
        assert_streams_identical(memory_module, "grow", ())
        assert_streams_identical(memory_module, "roundtrip", (2.5,))

    def test_indirect_calls(self):
        module = compile_source(INDIRECT_SOURCE)
        for args in [(0, 10), (1, 10)]:
            assert_streams_identical(module, "main", args)


def memarg_and_conditions_module():
    """``f(addr, c)``: an ``i32.store`` and an ``i32.load`` at ``addr``
    with offset 8, then ``c`` as the condition of a ``select``, a
    ``br_if`` and an ``if``."""
    builder = ModuleBuilder()
    builder.add_memory(1)
    fb = builder.function((I32, I32), (I32,), export="f")
    fb.get_local(0).i32_const(7).store("i32.store", offset=8)
    fb.get_local(0).load("i32.load", offset=8)
    fb.i32_const(1).get_local(1).emit("select")
    fb.block().get_local(1).br_if(0).end()
    fb.get_local(1).if_().end()
    fb.finish()
    return builder.build()


class _Presented(Analysis):
    """Records the memargs and conditions the analysis is handed."""

    def __init__(self):
        self.memargs = []
        self.conditions = []

    def load(self, loc, op, memarg, value):
        self.memargs.append((op, memarg, value))

    def store(self, loc, op, memarg, value):
        self.memargs.append((op, memarg, value))

    def select(self, loc, condition, first, second):
        self.conditions.append(("select", condition))

    def br_if(self, loc, target, condition):
        self.conditions.append(("br_if", condition))

    def if_(self, loc, condition):
        self.conditions.append(("if", condition))


class TestPresentedValues:
    """Figure 5 on both engines: a memory hook gets the analysis-API
    ``MemArg`` (built by ``tuple.__new__`` in the generated dispatcher),
    and every condition arrives as a ``bool``."""

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("condition", [0, 1, -5, -0x80000000])
    def test_memargs_and_conditions(self, engine, condition):
        analysis = _Presented()
        session = AnalysisSession(memarg_and_conditions_module(), analysis,
                                  machine=ENGINES[engine]())
        addr = 65520
        assert session.invoke("f", (addr, condition)) == [7 if condition else 1]
        assert analysis.memargs == [("i32.store", MemArg(addr, 8), 7),
                                    ("i32.load", MemArg(addr, 8), 7)]
        for _, memarg, _ in analysis.memargs:
            assert type(memarg) is MemArg
            assert (memarg.addr, memarg.offset) == (addr, 8)
        assert analysis.conditions == [("select", condition != 0),
                                       ("br_if", condition != 0),
                                       ("if", condition != 0)]
        assert all(type(value) is bool for _, value in analysis.conditions)


@settings(max_examples=20, deadline=None)
@given(minic_program(), st.integers(min_value=-8, max_value=8),
       st.integers(min_value=-8, max_value=8),
       st.sets(st.sampled_from(sorted(ALL_GROUPS)), min_size=1))
def test_differential_hypothesis(source, a, b, groups):
    """The default engine and the legacy engine agree on random programs
    instrumented for a random subset of hook groups, so compiled segments
    mix hooked and unhooked code."""
    module = compile_source(source)
    try:
        predecoded = stream(module, Machine(), "main", (a, b), groups=groups)
    except Exception as exc:
        # traps must reproduce identically on the legacy engine
        try:
            stream(module, Machine(predecode=False), "main", (a, b),
                   groups=groups)
        except Exception as legacy_exc:
            assert type(legacy_exc) is type(exc)
            return
        raise AssertionError("default engine trapped, legacy did not")
    legacy = stream(module, Machine(predecode=False), "main", (a, b),
                    groups=groups)
    assert predecoded == legacy


# -- fusion / binding internals --------------------------------------------------


class TestFusion:
    def test_decode_installs_sites_in_the_shared_stream(self):
        module = compile_source(MIXED_SOURCE)
        tracer = ExecutionTracer()
        session = AnalysisSession(module, tracer, run_start=False)
        instrumented = session.result.module
        func = next(f for f in instrumented.functions if f.body)
        decoded, _ = cached_decode(func, instrumented)
        assert decoded.hook_sites
        assert hook_segments(decoded)
        for site, (pc, import_idx, consts) in enumerate(decoded.hook_sites):
            # the call and its location constants keep their decoding as
            # branch-target fallbacks; the site's first slot dispatches it
            call = decoded.code[pc]
            assert call[:2] == (OP_CALL, import_idx)
            assert instrumented.imports[import_idx].module == HOOK_MODULE
            slot = decoded.code[pc - 2 if consts else pc]
            if slot[0] == OP_HOOK:
                assert slot == (OP_HOOK, site, call[2] - len(consts),
                                3 if consts else 1)
            else:
                assert slot[0] == OP_SEGMENT
                assert slot[1].__globals__["_site"] == site
            if consts:
                assert decoded.code[pc - 1] == (OP_CONST, consts[1])

    @staticmethod
    def _two_instances(module, groups):
        """Two instances of ``module`` on separate machines, both
        instrumented for ``groups`` (uninstrumented when None)."""
        if groups is None:
            return [Machine(predecode=True).instantiate(module, run_start=False)
                    for _ in range(2)]
        session = AnalysisSession(module, ExecutionTracer(), groups=groups,
                                  run_start=False,
                                  machine=Machine(predecode=True))
        linker = Linker()
        for name, host in session.runtime.host_functions().items():
            linker.define(HOOK_MODULE, name, host)
        return session.instance, Machine(predecode=True).instantiate(
            session.result.module, linker, run_start=False)

    def test_instances_share_the_stream_with_own_tables(self):
        dispatch, _, _ = _dispatch_module()
        # (module, hook groups, has call_indirect sites)
        cases = [(compile_source(MIXED_SOURCE),
                  ExecutionTracer().used_groups(), False),
                 (dispatch, None, True),
                 (engine_demo(0.2), ALL_GROUPS, True)]
        for module, groups, has_indirect in cases:
            one, two = self._two_instances(module, groups)
            pairs = [(a, b) for a, b in zip(one.functions, two.functions)
                     if isinstance(a, WasmFunction)]
            assert pairs
            # every defined function, call_indirect sites included, runs
            # the one cached stream; only the dispatcher tables differ
            for first, second in pairs:
                assert first.decoded is second.decoded
                if first.hooks is not None:
                    assert first.hooks is not second.hooks
                    assert len(first.hooks) == len(first.decoded.hook_sites)
            assert any(a.hooks for a, _ in pairs) == (groups is not None)
            assert has_indirect == any(ins[0] == OP_CALL_INDIRECT
                                       for a, _ in pairs
                                       for ins in a.decoded.code)

    def test_gemm_hook_sites_join_hook_segments(self):
        module = instrument_module(compile_kernel("gemm")).module
        inside = total = 0
        for func in module.functions:
            decoded, _ = cached_decode(func, module)
            covered = set()
            for pc, ins in hook_segments(decoded):
                covered.update(range(pc, pc + ins[-1]))
            for pc, _, consts in decoded.hook_sites:
                total += 1
                inside += (pc - 2 if consts else pc) in covered
        assert total and inside >= 0.9 * total

    def test_instance_code_is_fused(self):
        module = compile_source(MIXED_SOURCE)
        tracer = ExecutionTracer()
        session = AnalysisSession(
            module, tracer, run_start=False,
            machine=Machine(predecode=True))
        fused = [ins for fn in session.instance.functions
                 if getattr(fn, "decoded", None) is not None
                 for ins in fn.decoded.code if ins[0] == OP_HOOK]
        assert fused
        # every fused site skips the whole const/const/call triple
        assert all(ins[3] == 3 for ins in fused)


class TestNoopSharing:
    def test_unoverridden_hooks_share_noop(self):
        class LoadsOnly(Analysis):
            def __init__(self):
                self.loads = []

            def load(self, loc, op, memarg, value):
                self.loads.append((loc, op, value))

        module = compile_source(MIXED_SOURCE)
        session = AnalysisSession(module, LoadsOnly(), groups=ALL_GROUPS,
                                  run_start=False)
        hosts = session.runtime.host_functions()
        live = {name: h for name, h in hosts.items() if name.startswith("load")}
        dead = {name: h for name, h in hosts.items()
                if not name.startswith(("load", "br_table"))}
        assert live and dead
        assert all(h.fn is _noop_dispatcher for h in dead.values())
        assert all(h.fn is not _noop_dispatcher for h in live.values())
        # site factories of dead hooks hand the same no-op to the engine
        assert all(h.site_factory(0, 0) is _noop_dispatcher
                   for h in dead.values())
        assert all(h.site_factory(0, 1) is not _noop_dispatcher
                   for h in live.values())

    def test_br_table_live_when_only_end_overridden(self):
        """br_table dispatch fires traversed-end events, so it must stay
        live whenever `end` is overridden even if `br_table` is not."""

        class EndsOnly(Analysis):
            def __init__(self):
                self.ends = []

            def end(self, loc, kind, begin):
                self.ends.append((loc, kind, begin))

        analysis = EndsOnly()
        session = AnalysisSession(br_table_module(), analysis,
                                  groups=ALL_GROUPS, run_start=False)
        hosts = session.runtime.host_functions()
        br_table_hosts = [h for name, h in hosts.items()
                          if name.startswith("br_table")]
        assert br_table_hosts
        assert all(h.fn is not _noop_dispatcher for h in br_table_hosts)
        session.invoke("f", (1,))
        assert analysis.ends  # traversed ends still observed


# -- used_groups() and session auto-narrowing ------------------------------------


class TestUsedGroups:
    def test_load_store_analysis(self):
        class LoadStore(Analysis):
            def load(self, loc, op, memarg, value): pass
            def store(self, loc, op, memarg, value): pass

        assert LoadStore().used_groups() == frozenset({"load", "store"})

    def test_empty_analysis(self):
        assert Analysis().used_groups() == frozenset()

    def test_session_auto_narrows_instrumentation(self):
        class LoadStore(Analysis):
            def __init__(self):
                self.events = []

            def load(self, loc, op, memarg, value):
                self.events.append(("load", loc, op, memarg.addr, value))

            def store(self, loc, op, memarg, value):
                self.events.append(("store", loc, op, memarg.addr, value))

        module = compile_source(MIXED_SOURCE)
        narrow = LoadStore()
        narrow_session = AnalysisSession(module, narrow, groups=None,
                                         run_start=False)
        full = LoadStore()
        full_session = AnalysisSession(module, full, groups=ALL_GROUPS,
                                       run_start=False)
        assert narrow_session.groups == frozenset({"load", "store"})
        assert 0 < narrow_session.result.hook_count < full_session.result.hook_count
        narrow_session.invoke("main", (4, 2))
        full_session.invoke("main", (4, 2))
        # narrowing never changes what the analysis observes
        assert narrow.events == full.events
        assert narrow.events


# -- emit_locations=False regression ---------------------------------------------


class TestNoLocations:
    def test_streams_identical_without_locations(self):
        """Regression: the no-location path must pass args through (it used
        to copy), and bare hook calls bind via the skip-1 OP_HOOK form.

        Only location-independent hook groups work without locations (the
        others key their static info by location), on every engine.
        """
        module = compile_source(MIXED_SOURCE)
        config = InstrumentationConfig(emit_locations=False)
        events = assert_streams_identical(module, "main", (4, 2),
                                          config=config,
                                          groups=NO_LOCATION_GROUPS)
        assert all(e.location == Location(-1, -1) for e in events)

    def test_values_survive_without_locations(self):
        recorded = []

        class Consts(Analysis):
            def const_(self, loc, value):
                recorded.append(value)

        module = compile_source("export func main() -> i32 { return 41 + 1; }")
        analyze(module, Consts(), entry="main",
                config=InstrumentationConfig(emit_locations=False))
        assert 41 in recorded and 1 in recorded


def test_noop_dispatcher_identity_is_shared_across_specs():
    module = compile_source(MIXED_SOURCE)
    runtime = WasabiRuntime(
        AnalysisSession(module, Analysis(), groups=ALL_GROUPS,
                        run_start=False).result,
        Analysis())
    dispatchers = {name: h.fn for name, h in runtime.host_functions().items()}
    assert dispatchers
    assert set(dispatchers.values()) == {_noop_dispatcher}


class _BinaryCallers(ExecutionTracer):
    """Records nothing but the two frames above each ``binary`` event."""

    def __init__(self):
        super().__init__(max_events=0)
        self.callers = Counter()

    def binary(self, loc, op, a, b, r):
        self.callers[(sys._getframe(1).f_code.co_filename,
                      sys._getframe(2).f_code.co_filename)] += 1


class TestGeneratedHooks:
    """The low-level hooks are generated from ``_TRANSLATIONS``."""

    def _specs(self):
        for module in (engine_demo(), pdf_toolkit(), br_table_module(),
                       compile_source(I64_SOURCE)):
            yield from instrument_module(module).info.hooks

    def test_every_emitted_kind_has_a_row(self):
        keys = {_row_key(spec) for spec in self._specs()}
        assert keys <= set(_TRANSLATIONS)
        assert {"call_pre", "call_pre_indirect", "br_table"} <= keys

    def test_source_holds_no_payload_text(self):
        """Only the table's text and index expressions reach ``compile``:
        no string literal at all, and no name from the hook's payload."""
        for spec in self._specs():
            payload = {spec.name} | {item for item in spec.payload
                                     if isinstance(item, str)}
            for timed in (False, True):
                src = _bind_source(_TRANSLATIONS[_row_key(spec)],
                                   spec.value_types, timed)
                tokens = list(tokenize.generate_tokens(
                    io.StringIO(src).readline))
                assert not any(tok.type == tokenize.STRING for tok in tokens)
                assert not any(tok.string in payload for tok in tokens)

    def test_analysis_is_called_from_the_generated_dispatcher(self):
        """On the decoded engine every ``binary`` event of all-hooks gemm
        reaches the analysis from a generated dispatcher that a compiled
        hook segment calls directly: no wrapper frame in between."""
        workload, = polybench_workloads(["gemm"], n=6)
        analysis = _BinaryCallers()
        session = AnalysisSession(workload.module(), analysis,
                                  linker=workload.linker(),
                                  machine=Machine(predecode=True))
        session.invoke(workload.entry, workload.args)
        assert set(analysis.callers) == {("<wasabi-hook>",
                                          "<quickened-segment>")}
        assert sum(analysis.callers.values()) > 0

    def test_second_session_compiles_nothing(self):
        module = compile_source(MIXED_SOURCE)
        AnalysisSession(module, ExecutionTracer(), run_start=False)
        before = _bind_code.cache_info()
        AnalysisSession(module, ExecutionTracer(), run_start=False)
        after = _bind_code.cache_info()
        assert after.misses == before.misses
        assert after.hits > before.hits
