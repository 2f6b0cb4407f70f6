"""Resource governance: fuel, deadlines, caps, and trap-state hygiene.

Covers the ResourceLimits plumbing through Machine and AnalysisSession on
both engines, the per-invocation budget semantics (a fresh invoke after an
exhaustion trap gets a fresh budget), and the memory.grow bounds.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cli import EXIT_TRAP, main
from repro.core import Analysis, AnalysisSession
from repro.interp import Linker, Machine, Memory, ResourceLimits
from repro.interp.limits import Meter, ResourceUsage
from repro.minic import compile_source
from repro.wasm import (DeadlineExceeded, ExhaustionError, FuelExhausted,
                        ResourceExhausted, Trap, encode_module)
from repro.wasm.types import I32, FuncType, Limits

ENGINES = [True, False]


@pytest.fixture
def spin_module():
    """A bounded loop: spin(n) iterates n times."""
    return compile_source("""
        export func spin(n: i32) -> i32 {
            var i: i32 = 0;
            var acc: i32 = 0;
            while (i < n) {
                acc = acc + i;
                i = i + 1;
            }
            return acc;
        }
    """, "spin")


@pytest.fixture
def recurse_module():
    return compile_source("""
        export func down(n: i32) -> i32 {
            if (n <= 0) { return 0; }
            return down(n - 1) + 1;
        }
    """, "recurse")


@pytest.fixture
def deep_host_module():
    """deep(n) calls an import, then recurses without bound."""
    return compile_source("""
        import func print_i32(x: i32);
        export func deep(n: i32) -> i32 {
            print_i32(n);
            return deep(n + 1);
        }
    """, "deep")


@pytest.fixture
def grow_module():
    return compile_source("""
        memory 1;
        export func grow(delta: i32) -> i32 {
            return memory_grow(delta);
        }
        export func size() -> i32 {
            return memory_size();
        }
    """, "grow")


class TestFuel:
    @pytest.mark.parametrize("predecode", ENGINES)
    def test_fuel_exhaustion_traps(self, spin_module, predecode):
        machine = Machine(predecode=predecode,
                          limits=ResourceLimits(fuel=100))
        instance = machine.instantiate(spin_module, Linker())
        with pytest.raises(FuelExhausted):
            instance.invoke("spin", [1_000_000])

    @pytest.mark.parametrize("predecode", ENGINES)
    def test_enough_fuel_succeeds(self, spin_module, predecode):
        machine = Machine(predecode=predecode,
                          limits=ResourceLimits(fuel=10_000))
        instance = machine.instantiate(spin_module, Linker())
        assert instance.invoke("spin", [100]) == [4950]

    def test_fuel_is_engine_consistent(self, spin_module, recurse_module):
        """Both engines must exhaust the same budget at the same point."""
        for module, entry, arg in ((spin_module, "spin", 10_000),
                                   (recurse_module, "down", 400)):
            exhaustion_points = []
            for predecode in ENGINES:
                for fuel in (57, 500, 1311):
                    machine = Machine(predecode=predecode,
                                      limits=ResourceLimits(fuel=fuel))
                    instance = machine.instantiate(module, Linker())
                    try:
                        instance.invoke(entry, [arg])
                        outcome = ("done", machine.resource_usage().fuel_spent)
                    except FuelExhausted:
                        outcome = ("exhausted", fuel)
                    exhaustion_points.append((predecode, fuel, outcome))
            by_fuel = {}
            for predecode, fuel, outcome in exhaustion_points:
                by_fuel.setdefault(fuel, set()).add(outcome)
            for fuel, outcomes in by_fuel.items():
                assert len(outcomes) == 1, (
                    f"engines disagree at fuel={fuel}: {outcomes}")

    @pytest.mark.parametrize("predecode", ENGINES)
    def test_fuel_rearms_per_invocation(self, spin_module, predecode):
        """Fuel is a per-top-level-invocation budget, not a machine total."""
        machine = Machine(predecode=predecode,
                          limits=ResourceLimits(fuel=500))
        instance = machine.instantiate(spin_module, Linker())
        with pytest.raises(FuelExhausted):
            instance.invoke("spin", [1_000_000])
        # the same call that just exhausted now has a full budget again
        assert instance.invoke("spin", [100]) == [4950]
        assert instance.invoke("spin", [100]) == [4950]

    def test_usage_tracks_cumulative_fuel(self, spin_module):
        machine = Machine(limits=ResourceLimits(fuel=100_000))
        instance = machine.instantiate(spin_module, Linker())
        instance.invoke("spin", [10])
        first = machine.resource_usage().fuel_spent
        instance.invoke("spin", [10])
        assert machine.resource_usage().fuel_spent == 2 * first
        assert first > 10  # at least one event per iteration


class TestDeadline:
    @pytest.mark.parametrize("predecode", ENGINES)
    def test_deadline_aborts_long_run(self, spin_module, predecode):
        machine = Machine(predecode=predecode,
                          limits=ResourceLimits(deadline_seconds=0.05))
        instance = machine.instantiate(spin_module, Linker())
        with pytest.raises(DeadlineExceeded):
            instance.invoke("spin", [100_000_000])

    def test_deadline_rearms_per_invocation(self, spin_module):
        machine = Machine(limits=ResourceLimits(deadline_seconds=0.05))
        instance = machine.instantiate(spin_module, Linker())
        with pytest.raises(DeadlineExceeded):
            instance.invoke("spin", [100_000_000])
        assert instance.invoke("spin", [10]) == [45]

    def test_deadline_uses_injected_clock(self):
        ticks = iter(range(0, 10_000))
        meter = Meter(ResourceLimits(deadline_seconds=5.0),
                      clock=lambda: next(ticks))
        with pytest.raises(DeadlineExceeded):
            for _ in range(10_000):
                meter.enter_call(1)


class TestStackAndDepth:
    @pytest.mark.parametrize("predecode", ENGINES)
    def test_max_call_depth_override(self, recurse_module, predecode):
        machine = Machine(predecode=predecode,
                          limits=ResourceLimits(max_call_depth=50))
        instance = machine.instantiate(recurse_module, Linker())
        assert instance.invoke("down", [30]) == [30]
        with pytest.raises(ExhaustionError):
            instance.invoke("down", [100])

    def test_peak_depth_reported(self, recurse_module):
        machine = Machine(limits=ResourceLimits(fuel=10_000))
        instance = machine.instantiate(recurse_module, Linker())
        instance.invoke("down", [25])
        assert machine.resource_usage().peak_depth == 26

    def test_host_call_at_depth_limit_is_engine_consistent(self,
                                                          deep_host_module):
        """A host callee at the depth limit runs on both engines: the limit
        nests WebAssembly calls only, so metering agrees."""
        outcomes = []
        for predecode in ENGINES:
            calls = []
            linker = Linker()
            linker.define_function("env", "print_i32", FuncType((I32,), ()),
                                   calls.append)
            machine = Machine(predecode=predecode, limits=ResourceLimits(
                fuel=10**6, max_call_depth=5))
            instance = machine.instantiate(deep_host_module, linker)
            with pytest.raises(ExhaustionError):
                instance.invoke("deep", [0])
            usage = machine.resource_usage()
            outcomes.append((len(calls), usage.peak_depth, usage.fuel_spent))
        # five Wasm frames, each making one host call one level deeper
        assert outcomes == [(5, 6, 10), (5, 6, 10)]

    @pytest.mark.parametrize("limit", [5, 10])
    def test_reentrant_host_frames_do_not_count(self, limit):
        """An import that re-invokes the export nests five WebAssembly
        frames and four host frames; only the five count toward the limit,
        on both engines."""
        module = compile_source("""
            import func again(n: i32) -> i32;
            export func f(n: i32) -> i32 {
                if (n <= 0) { return 0; }
                return again(n - 1) + 1;
            }
        """, "reenter")
        outcomes = []
        for predecode in ENGINES:
            instances = []
            linker = Linker()
            linker.define_function(
                "env", "again", FuncType((I32,), (I32,)),
                lambda args: instances[0].invoke("f", args)[0])
            machine = Machine(predecode=predecode, limits=ResourceLimits(
                fuel=10**6, max_call_depth=limit))
            instances.append(machine.instantiate(module, linker))
            result = instances[0].invoke("f", [4])
            usage = machine.resource_usage()
            outcomes.append((result, usage.peak_depth, usage.fuel_spent))
        assert outcomes == [([4], 5, 9), ([4], 5, 9)]

    @pytest.mark.parametrize("record_engine", ["predecode", "legacy"])
    def test_depth_limit_bundle_replays_cross_engine(
            self, deep_host_module, record_engine, tmp_path, monkeypatch,
            capsys):
        """A run that calls the host at the default depth limit, recorded
        on one engine, replays on the other without diverging."""
        wasm = tmp_path / "deep.wasm"
        wasm.write_bytes(encode_module(deep_host_module))
        bundle = tmp_path / "bundle"
        monkeypatch.setenv("REPRO_PREDECODE",
                           "1" if record_engine == "predecode" else "0")
        assert main(["run", str(wasm), "deep", "0",
                     "--record", str(bundle)]) == EXIT_TRAP
        other = "legacy" if record_engine == "predecode" else "predecode"
        assert main(["replay", str(bundle), "--engine", other]) == 0
        assert "reproduced: ExhaustionError" in capsys.readouterr().out

    def test_max_value_stack(self, spin_module):
        # the spin loop keeps a tiny stack; a bound of 0 can only trip if
        # the meter actually checks heights at branch events
        machine = Machine(limits=ResourceLimits(max_value_stack=100))
        instance = machine.instantiate(spin_module, Linker())
        assert instance.invoke("spin", [50]) == [1225]


class TestMemoryBounds:
    def test_grow_at_declared_max(self):
        memory = Memory(Limits(1, 2))
        assert memory.grow(1) == 1
        assert memory.grow(1) == -1  # past declared maximum
        assert memory.size_pages == 2

    def test_grow_by_zero(self):
        memory = Memory(Limits(1, 1))
        assert memory.grow(0) == 1
        assert memory.size_pages == 1

    def test_grow_past_spec_hard_cap(self):
        memory = Memory(Limits(1))
        assert memory.grow(65536) == -1  # 1 + 65536 > 65536 pages

    def test_grow_negative_delta(self):
        memory = Memory(Limits(2))
        assert memory.grow(-1) == -1
        assert memory.size_pages == 2

    def test_policy_cap_tighter_than_declared(self):
        memory = Memory(Limits(1, 10), policy_max_pages=3)
        assert memory.grow(2) == 1
        assert memory.grow(1) == -1  # would reach 4 > policy cap 3
        assert memory.size_pages == 3

    @pytest.mark.parametrize("predecode", ENGINES)
    def test_grow_under_machine_limits(self, grow_module, predecode):
        machine = Machine(predecode=predecode,
                          limits=ResourceLimits(max_memory_pages=2))
        instance = machine.instantiate(grow_module, Linker())
        assert instance.invoke("grow", [1]) == [1]   # 1 -> 2 pages, ok
        assert instance.invoke("grow", [1])[0] == 0xFFFFFFFF  # -1 as u32
        assert instance.invoke("size", []) == [2]

    def test_initial_memory_over_cap_rejected(self, grow_module):
        machine = Machine(limits=ResourceLimits(max_memory_pages=0))
        with pytest.raises(ResourceExhausted):
            machine.instantiate(grow_module, Linker())


class TestTrapHygiene:
    """After any trap, the machine is reusable and internally clean."""

    @pytest.mark.parametrize("predecode", ENGINES)
    @pytest.mark.parametrize("setup", ["fuel", "deadline", "depth", "trap"])
    def test_fresh_invoke_after_trap(self, spin_module, recurse_module,
                                     predecode, setup):
        if setup == "fuel":
            limits, module, entry, bad = (
                ResourceLimits(fuel=100), spin_module, "spin", [10**6])
        elif setup == "deadline":
            limits, module, entry, bad = (
                ResourceLimits(deadline_seconds=0.02), spin_module, "spin",
                [10**8])
        elif setup == "depth":
            limits, module, entry, bad = (
                ResourceLimits(max_call_depth=20), recurse_module, "down",
                [100])
        else:
            limits, module, entry, bad = (None, recurse_module, "down",
                                          [10**6])
        machine = Machine(predecode=predecode, limits=limits)
        instance = machine.instantiate(module, Linker())
        with pytest.raises(Trap):
            instance.invoke(entry, bad)
        assert machine._depth == 0
        good = [10] if entry == "spin" else [5]
        expected = [45] if entry == "spin" else [5]
        assert instance.invoke(entry, good) == expected
        assert machine._depth == 0

    @pytest.mark.parametrize("predecode", ENGINES)
    # the module fixture is read-only (each example builds a new Machine),
    # so sharing it across examples is safe
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(fuel=st.integers(min_value=1, max_value=2000),
           arg=st.integers(min_value=0, max_value=500))
    def test_invariants_hold_for_any_budget(self, spin_module, predecode,
                                            fuel, arg):
        """Hypothesis: whatever budget and input, depth returns to 0 and a
        follow-up invoke computes the correct result."""
        machine = Machine(predecode=predecode,
                          limits=ResourceLimits(fuel=fuel))
        instance = machine.instantiate(spin_module, Linker())
        try:
            result = instance.invoke("spin", [arg])
            assert result == [arg * (arg - 1) // 2]
        except FuelExhausted:
            pass
        assert machine._depth == 0
        # the meter re-arms: a tiny follow-up run must behave identically
        # to the same run on a fresh machine with the same budget
        try:
            again = instance.invoke("spin", [5])
            assert again == [10]
        except FuelExhausted:
            assert fuel <= 20  # only minuscule budgets may fail spin(5)


class TestSessionPlumbing:
    def test_session_limits(self, spin_module):
        session = AnalysisSession(spin_module, Analysis(),
                                  limits=ResourceLimits(fuel=100))
        with pytest.raises(FuelExhausted):
            session.invoke("spin", [10**6])
        usage = session.resource_usage()
        assert isinstance(usage, ResourceUsage)
        assert usage.fuel_spent >= 100
        assert usage.hook_faults == 0

    def test_session_rejects_machine_and_limits(self, spin_module):
        with pytest.raises(ValueError, match="machine or limits"):
            AnalysisSession(spin_module, Analysis(), machine=Machine(),
                            limits=ResourceLimits(fuel=1))

    def test_unlimited_machine_has_no_meter(self):
        assert Machine()._meter is None
        assert Machine(limits=ResourceLimits(max_memory_pages=4))._meter is None
        assert Machine(limits=ResourceLimits(fuel=1))._meter is not None

    def test_usage_as_dict(self):
        usage = ResourceUsage(fuel_spent=5, peak_pages=2, peak_depth=3,
                              hook_faults=1)
        assert usage.as_dict() == {"fuel_spent": 5, "peak_pages": 2,
                                   "peak_depth": 3, "hook_faults": 1}

    def test_usage_reports_peak_pages(self, grow_module):
        machine = Machine()
        instance = machine.instantiate(grow_module, Linker())
        instance.invoke("grow", [2])
        assert machine.resource_usage().peak_pages == 3


class TestSegmentMetering:
    """Compiled straight-line segments (OP_SEGMENT, PR 7) must not change
    resource governance: the loop back-edge still charges fuel every
    iteration, and the deadline is still checked on the
    DEADLINE_CHECK_INTERVAL cadence even when the loop body collapses to a
    single segment dispatch."""

    @pytest.fixture
    def segment_module(self):
        # ~40 dependent arithmetic statements: one maximal straight-line
        # run, far above _SEGMENT_MIN, so quickening compiles the loop
        # body into an OP_SEGMENT slot
        body = "\n".join(f"                acc = acc * 3 + {k};"
                         for k in range(40))
        return compile_source(f"""
            export func crunch(n: i32) -> i32 {{
                var i: i32 = 0;
                var acc: i32 = 0;
                while (i < n) {{
{body}
                    i = i + 1;
                }}
                return acc;
            }}
        """, "segment")

    def test_quickened_stream_contains_a_segment(self, segment_module):
        from repro.interp.predecode import OP_SEGMENT, decode_function
        quickened = [decode_function(f, segment_module).code
                     for f in segment_module.functions]
        assert any(slot[0] == OP_SEGMENT
                   for code in quickened for slot in code)
        plain = [decode_function(f, segment_module, fuse=False).code
                 for f in segment_module.functions]
        assert all(slot[0] != OP_SEGMENT
                   for code in plain for slot in code)

    def test_fuel_parity_quickened_vs_legacy(self, segment_module):
        spent = {}
        for predecode in (True, False):
            machine = Machine(predecode=predecode,
                              limits=ResourceLimits(observe=True))
            instance = machine.instantiate(segment_module, Linker())
            instance.invoke("crunch", [500])
            spent[predecode] = machine.resource_usage().fuel_spent
        assert spent[True] == spent[False]
        assert spent[True] >= 500  # the back-edge charges every iteration

    def test_fuel_exhaustion_inside_segment_loop(self, segment_module):
        machine = Machine(predecode=True, limits=ResourceLimits(fuel=100))
        instance = machine.instantiate(segment_module, Linker())
        with pytest.raises(FuelExhausted):
            instance.invoke("crunch", [10**9])

    def test_deadline_cadence_with_segments(self, segment_module):
        from repro.interp.limits import DEADLINE_CHECK_INTERVAL

        reads = [0]

        def counting_clock():
            # every read advances "time" a full second, so the deadline is
            # in the past from the first post-arm check onward; the trip
            # point then measures the *check cadence*, not real time
            reads[0] += 1
            return float(reads[0])

        limits = ResourceLimits(fuel=50 * DEADLINE_CHECK_INTERVAL,
                                deadline_seconds=5.0)
        machine = Machine(predecode=True, limits=limits)
        machine._meter = Meter(limits, clock=counting_clock)
        instance = machine.instantiate(segment_module, Linker())
        # the fuel budget is a backstop: if segments suppressed the
        # deadline cadence, this raises FuelExhausted (a clean failure)
        # instead of spinning for 10**9 iterations
        with pytest.raises(DeadlineExceeded):
            instance.invoke("crunch", [10**9])
        charges = machine._meter.fuel_spent_total
        # the deadline armed ~5s ahead and the clock leaps 1s per read, so
        # the trip lands within a handful of 128-charge check windows
        assert charges <= 10 * DEADLINE_CHECK_INTERVAL
        # and the clock was actually read on the documented cadence
        assert reads[0] >= charges // DEADLINE_CHECK_INTERVAL
