"""Hook-fault containment: the on_analysis_error policies.

The central guarantee tested here is the quarantine differential: a hook
that raises on its Nth event must leave guest-visible results *identical*
to an un-instrumented run, on both engines.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import Analysis, AnalysisSession, Location, instrument_module
from repro.core.hooks import HOOK_MODULE
from repro.core.runtime import WasabiRuntime, _noop_dispatcher
from repro.interp import Linker, Machine, WasmFunction
from repro.minic import compile_source
from repro.wasm import AnalysisAbort, AnalysisError, Trap
from repro.wasm.builder import ModuleBuilder
from repro.wasm.types import I32

from .test_quickened import hook_segments

#: The two engines (``predecode``).
CONFIGS = [True, False]


@pytest.fixture
def work_module():
    """Enough structure that every hook group fires: loops, calls, memory."""
    return compile_source("""
        memory 1;
        func helper(x: i32) -> i32 {
            return x * 2 + 1;
        }
        export func work(n: i32) -> i32 {
            var i: i32 = 0;
            var acc: i32 = 0;
            while (i < n) {
                acc = acc + helper(i);
                mem_i32[i % 64] = acc;
                i = i + 1;
            }
            return acc + mem_i32[(n - 1) % 64];
        }
    """, "work")


class FlakyAnalysis(Analysis):
    """Counts events and raises on the Nth one."""

    def __init__(self, fail_at: int, exc: Exception | None = None):
        self.events = 0
        self.fail_at = fail_at
        self.exc = exc or RuntimeError("injected analysis fault")

    def binary(self, loc, op, a, b, r):
        self.events += 1
        if self.events == self.fail_at:
            raise self.exc


class BrokenOpAnalysis(Analysis):
    """Raises every time one specific binary op's hook fires.

    Quarantine is per monomorphized hook (e.g. ``binary_i32_mul``), so a
    hook that is broken for one op must be silenced for that op only.
    """

    def __init__(self, bad_op: str):
        self.counts: dict[str, int] = {}
        self.bad_op = bad_op

    def binary(self, loc, op, a, b, r):
        self.counts[op] = self.counts.get(op, 0) + 1
        if op == self.bad_op:
            raise RuntimeError("injected analysis fault")


class TestPolicies:
    def test_invalid_policy_rejected(self, work_module):
        with pytest.raises(ValueError, match="on_analysis_error"):
            AnalysisSession(work_module, Analysis(),
                            on_analysis_error="retry")

    def test_raise_policy_wraps_with_location(self, work_module):
        session = AnalysisSession(work_module, FlakyAnalysis(3),
                                  on_analysis_error="raise")
        with pytest.raises(AnalysisError) as excinfo:
            session.invoke("work", [10])
        err = excinfo.value
        assert isinstance(err.__cause__, RuntimeError)
        assert err.hook_name is not None
        assert err.location is not None and err.location.func >= 0
        assert not isinstance(err, Trap)  # raise is an embedder error
        assert len(session.hook_faults) == 1

    def test_abort_policy_traps_cleanly(self, work_module):
        session = AnalysisSession(work_module, FlakyAnalysis(3),
                                  on_analysis_error="abort")
        with pytest.raises(AnalysisAbort) as excinfo:
            session.invoke("work", [10])
        assert isinstance(excinfo.value, Trap)
        # trap-clean: the machine unwound fully and works again
        assert session.machine._depth == 0
        session.analysis.fail_at = -1  # disarm
        assert session.invoke("work", [3]) == session.invoke("work", [3])

    def test_log_policy_keeps_dispatching(self, work_module, capsys):
        analysis = FlakyAnalysis(2)
        session = AnalysisSession(work_module, analysis,
                                  on_analysis_error="log")
        result = session.invoke("work", [10])
        assert result  # completed despite the fault
        assert len(session.hook_faults) == 1
        assert session.resource_usage().hook_faults == 1
        # the hook was NOT quarantined: later events still dispatched
        assert analysis.events > 2
        assert "contained" in capsys.readouterr().err

    def test_quarantine_policy_stops_dispatch(self, work_module, capsys):
        analysis = BrokenOpAnalysis("i32.mul")
        session = AnalysisSession(work_module, analysis,
                                  on_analysis_error="quarantine")
        session.invoke("work", [50])
        # the first i32.mul event raised; its hook was quarantined, so the
        # count froze at the faulting event even though helper() ran 50x
        assert analysis.counts["i32.mul"] == 1
        assert analysis.counts["i32.add"] > 50  # other variants unaffected
        assert len(session.hook_faults) == 1
        assert "quarantined" in capsys.readouterr().err

    def test_faults_accumulate_under_log(self, work_module):
        class AlwaysBroken(Analysis):
            def binary(self, loc, op, a, b, r):
                raise ValueError("boom")

        session = AnalysisSession(work_module, AlwaysBroken(),
                                  on_analysis_error="log")
        session.invoke("work", [5])
        assert len(session.hook_faults) > 1
        first = session.hook_faults[0]
        assert first.hook_name is not None
        assert isinstance(first.__cause__, ValueError)


class TestQuarantineDifferential:
    """Guest results under quarantine == un-instrumented results."""

    @pytest.mark.parametrize("predecode", CONFIGS)
    @pytest.mark.parametrize("fail_at", [1, 7, 40])
    def test_results_identical_to_uninstrumented(self, work_module,
                                                 predecode, fail_at):
        args_list = [[5], [13], [40]]
        baseline_machine = Machine(predecode=predecode)
        baseline = baseline_machine.instantiate(work_module, Linker())
        expected = [baseline.invoke("work", args) for args in args_list]
        expected_mem = bytes(baseline.memory.data[:512])

        session = AnalysisSession(
            work_module, FlakyAnalysis(fail_at),
            machine=Machine(predecode=predecode),
            on_analysis_error="quarantine")
        got = [session.invoke("work", args) for args in args_list]
        got_mem = bytes(session.instance.memory.data[:512])

        assert got == expected
        assert got_mem == expected_mem
        assert len(session.hook_faults) == 1

    @pytest.mark.parametrize("predecode", CONFIGS)
    def test_multi_hook_quarantine_is_per_hook(self, work_module,
                                               predecode):
        """Only the faulting hook is quarantined; others keep reporting."""

        class PartiallyBroken(BrokenOpAnalysis):
            def __init__(self):
                super().__init__("i32.mul")
                self.locals_seen = 0

            def local(self, loc, op, idx, value):
                self.locals_seen += 1

        analysis = PartiallyBroken()
        session = AnalysisSession(work_module, analysis,
                                  machine=Machine(predecode=predecode),
                                  on_analysis_error="quarantine")
        session.invoke("work", [20])
        assert analysis.counts["i32.mul"] == 1  # quarantined after 1 fault
        assert analysis.counts["i32.add"] > 20  # sibling hooks unaffected
        assert analysis.locals_seen > 20  # the local hook kept running

    @pytest.mark.parametrize("predecode", CONFIGS)
    def test_quarantine_persists_across_invokes(self, work_module,
                                                predecode):
        analysis = BrokenOpAnalysis("i32.mul")
        session = AnalysisSession(work_module, analysis,
                                  machine=Machine(predecode=predecode),
                                  on_analysis_error="quarantine")
        first = session.invoke("work", [10])
        second = session.invoke("work", [10])
        assert first == second
        # no new events for the quarantined hook, even on a fresh invoke
        assert analysis.counts["i32.mul"] == 1

    def test_quarantine_differential_under_fresh_sites(self, work_module):
        """Sites bound *after* a quarantine bind straight to the no-op.

        A second instantiation of the same session's runtime (new machine,
        same host functions) must respect an earlier quarantine.
        """
        analysis = BrokenOpAnalysis("i32.mul")
        session = AnalysisSession(work_module, analysis,
                                  on_analysis_error="quarantine")
        session.invoke("work", [5])
        assert analysis.counts["i32.mul"] == 1
        # bind the same hosts into a brand-new instance
        from repro.core.hooks import HOOK_MODULE
        linker = Linker()
        for name, host in session.runtime._hosts.items():
            linker.define(HOOK_MODULE, name, host)
        machine = Machine()
        instance = machine.instantiate(session.result.module, linker,
                                       run_start=False)
        baseline = Machine().instantiate(work_module, Linker())
        assert (instance.invoke("work", [8])
                == baseline.invoke("work", [8]))
        assert analysis.counts["i32.mul"] == 1  # still quarantined


def two_mul_module():
    """``f(a, b) = a * b * a``: one straight-line run holding two sites of
    the same low-level hook (``i32.mul`` binary events)."""
    builder = ModuleBuilder()
    fb = builder.function((I32, I32), (I32,), export="f")
    fb.get_local(0).get_local(1).emit("i32.mul").get_local(0).emit("i32.mul")
    fb.finish()
    return builder.build()


class TestQuarantineInsideOneSegment:
    """A quarantine takes effect at the next site of the segment that
    faulted: a compiled hook segment reads the dispatcher table at every
    event."""

    def test_both_sites_lie_in_one_hook_segment(self):
        session = AnalysisSession(two_mul_module(), FlakyAnalysis(1),
                                  machine=Machine(predecode=True))
        wfunc, = (f for f in session.instance.functions
                  if isinstance(f, WasmFunction))
        decoded = wfunc.decoded
        assert len(decoded.hook_sites) == 2
        assert len({import_idx for _, import_idx, _ in decoded.hook_sites}) == 1
        segments = hook_segments(decoded)
        assert len(segments) == 1
        (start, ins), = segments
        span = ins[-1]
        assert ins[1].__globals__["_site"] == 0
        for pc, _, consts in decoded.hook_sites:
            assert consts and start <= pc - 2 < start + span

    @pytest.mark.parametrize("predecode", CONFIGS)
    @pytest.mark.parametrize("policy, dispatched", [("quarantine", 1),
                                                    ("log", 2)])
    def test_policy_applies_at_the_next_site(self, predecode, policy,
                                             dispatched, capsys):
        analysis = FlakyAnalysis(1)
        session = AnalysisSession(two_mul_module(), analysis,
                                  machine=Machine(predecode=predecode),
                                  on_analysis_error=policy)
        assert session.invoke("f", [3, 5]) == [45]
        # one fault; under quarantine the second site of the same run
        # already dispatched the no-op, under log it reached the analysis
        assert len(session.hook_faults) == 1
        assert analysis.events == dispatched
        if predecode:
            wfunc, = (f for f in session.instance.functions
                      if isinstance(f, WasmFunction))
            swapped = [entry is _noop_dispatcher for entry in wfunc.hooks]
            assert swapped == [policy == "quarantine"] * 2
        assert "contained" in capsys.readouterr().err


class LocalCounter(Analysis):
    def __init__(self):
        self.calls = 0

    def local(self, loc, op, index, value):
        self.calls += 1


def _session_with_unbindable_site(predecode: bool, policy: str):
    """``f`` instrumented for local hooks, with the location constant of its
    first ``local_*`` hook call moved to an instruction the static info has
    no variable index for, so that site's dispatcher fails to bind."""
    module = compile_source("""
        export func f(x: i32) -> i32 { var y: i32 = x * 3; return y + 1; }
    """)
    result = instrument_module(module, groups={"local"})
    hook_names = [imp.name for imp in result.module.imported_functions()]
    body = result.module.functions[0].body
    call_pc = next(pc for pc, ins in enumerate(body) if ins.op == "call"
                   and hook_names[ins.idx].startswith("local_"))
    assert body[call_pc - 1].op == "i32.const"
    body[call_pc - 1] = replace(body[call_pc - 1], value=99999)
    analysis = LocalCounter()
    runtime = WasabiRuntime(result, analysis, on_analysis_error=policy)
    linker = Linker()
    for name, host in runtime.host_functions().items():
        linker.define(HOOK_MODULE, name, host)
    instance = Machine(predecode=predecode).instantiate(result.module, linker)
    runtime.bind(instance)
    return instance, runtime, analysis


class TestBindFailure:
    """A site with no static info fails to bind; at its first event that
    failure is a hook fault at the site's location, on both engines."""

    @pytest.mark.parametrize("predecode", CONFIGS)
    def test_raise(self, predecode):
        instance, runtime, analysis = _session_with_unbindable_site(
            predecode, "raise")
        with pytest.raises(AnalysisError) as excinfo:
            instance.invoke("f", [5])
        assert str(excinfo.value) == ("analysis hook 'local_get_local_i32' "
                                      "raised KeyError: (0, 99999) at 0:99999")
        assert excinfo.value.location == Location(0, 99999)
        assert isinstance(excinfo.value.__cause__, KeyError)
        assert analysis.calls == 0 and len(runtime.hook_faults) == 1

    @pytest.mark.parametrize("predecode", CONFIGS)
    @pytest.mark.parametrize("policy, calls", [("log", 2), ("quarantine", 1)])
    def test_contained(self, predecode, policy, calls, capsys):
        instance, runtime, analysis = _session_with_unbindable_site(
            predecode, policy)
        assert instance.invoke("f", [5]) == [16]
        # under quarantine the other get_local site of the same hook is
        # silenced too; only the set_local event reaches the analysis
        assert analysis.calls == calls
        assert len(runtime.hook_faults) == 1
        assert "contained" in capsys.readouterr().err
