"""Per-call-site hook dispatch (OP_HOOK fusion).

The pre-decoding engine recognizes the instrumentation idiom
``i32.const f; i32.const i; call <hook>`` and fuses it into a pre-bound
``OP_HOOK`` superinstruction whose dispatcher has the Location and all
per-site static information resolved at instantiation time; the legacy
engine reaches the same per-site dispatchers through the hook's host
function. These tests pin down

* the decode-time site recording and pair-fusion interaction,
* that the pre-decoded engine produces event streams identical to the
  legacy string-dispatch engine (differential corpus + hypothesis; the
  corpus streams are also pinned by digest in ``test_golden_pins.py``),
* the shared no-op dispatcher for un-overridden hooks,
* ``Analysis.used_groups()`` and ``AnalysisSession(groups=None)``
  auto-narrowing, and
* the ``emit_locations=False`` regression (args passed through, not copied).
"""

from hypothesis import given, settings, strategies as st

from repro.analyses.tracer import ExecutionTracer
from repro.core import Analysis, AnalysisSession, analyze
from repro.core.analysis import ALL_GROUPS, Location
from repro.core.instrument import InstrumentationConfig
from repro.core.runtime import WasabiRuntime, _noop_dispatcher
from repro.interp import Machine
from repro.interp.predecode import OP_CALL, OP_CONST, OP_HOOK, cached_decode
from repro.minic import compile_source
from repro.wasm.builder import ModuleBuilder
from repro.wasm.module import BrTable
from repro.wasm.types import I32

from .test_instrument_properties import minic_program

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


@settings(max_examples=20, deadline=None)
@given(minic_program(), st.integers(min_value=-8, max_value=8),
       st.integers(min_value=-8, max_value=8))
def test_differential_hypothesis(source, a, b):
    """The default engine and the legacy engine agree on random programs."""
    module = compile_source(source)
    try:
        predecoded = stream(module, Machine(), "main", (a, b))
    except Exception as exc:
        # traps must reproduce identically on the legacy engine
        try:
            stream(module, Machine(predecode=False), "main", (a, b))
        except Exception as legacy_exc:
            assert type(legacy_exc) is type(exc)
            return
        raise AssertionError("default engine trapped, legacy did not")
    legacy = stream(module, Machine(predecode=False), "main", (a, b))
    assert predecoded == legacy


# -- fusion / binding internals --------------------------------------------------


class TestFusion:
    def test_decode_records_sites_and_keeps_cache_unfused(self):
        module = compile_source(MIXED_SOURCE)
        tracer = ExecutionTracer()
        session = AnalysisSession(module, tracer, run_start=False)
        instrumented = session.result.module
        func = next(f for f in instrumented.functions if f.body)
        decoded, _ = cached_decode(func, instrumented)
        assert decoded.hook_sites
        # the shared cache holds the unfused stream: sites are still plain
        # calls, preceded by the two un-consumed location constants
        ops = [ins[0] for ins in decoded.code]
        assert OP_HOOK not in ops
        for pc in decoded.hook_sites:
            assert decoded.code[pc][0] == OP_CALL
            if pc >= 2 and decoded.code[pc][2] >= 2:
                assert decoded.code[pc - 1][0] == OP_CONST
                assert decoded.code[pc - 2][0] == OP_CONST

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
