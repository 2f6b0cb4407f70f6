"""The evaluation harness itself: sweeps, reports, and the hook matrix."""

import json
import re
from itertools import count
from pathlib import Path

import pytest

from repro.core.analysis import ALL_GROUPS, used_groups
from repro.eval import (FIGURE_GROUPS, EngineBench, SizeReport, bench_engines,
                        bench_pairs, engine_config, figure_configs,
                        make_full_analysis, make_group_analysis,
                        polybench_workloads, render_fig8, render_fig9,
                        render_table, render_table5, size_sweep,
                        time_instrumentation)
from repro.eval.faithfulness import run_instrumented, run_original
from repro.interp import Linker
from repro.obs import Tracer
from repro.workloads.polybench import compile_kernel

ROOT = Path(__file__).resolve().parent.parent


def _legacy_ratios(bench: dict) -> list[float]:
    return [w["ratio"]["legacy"] for w in bench["workloads"]]


#: Each README sentence that prints numbers from BENCH_engine.json: a
#: pattern over the README with runs of whitespace collapsed, and the
#: values its groups print (factors, and worst disabled-path estimates in
#: percent).
README_ENGINE_NUMBERS = {
    "legacy": (
        r"\*\*≈([\d.]+)× geomean\*\* over the legacy loop, "
        r"per-kernel ([\d.]+)–([\d.]+)×",
        lambda b: (b["geomean"]["legacy"], min(_legacy_ratios(b)),
                   max(_legacy_ratios(b)))),
    "metered": (
        r"measured ≲([\d.]+)% \(floor: ≤2%\) on the Fig\. 9 subset, see the "
        r"`metered` entries of `benchmarks/results/BENCH_engine\.json`; "
        r"active metering costs ≈([\d.]+)×",
        lambda b: (100 * b["max_disabled_overhead"]["metered"],
                   b["geomean"]["metered"])),
    "recording": (
        r"≲([\d.]+)% on the Fig\. 9 subset, recording ≈([\d.]+)×",
        lambda b: (100 * b["max_disabled_overhead"]["recording"],
                   b["geomean"]["recording"])),
    "counted": (
        r"disabled-path cost is ≲([\d.]+)% against a ≤2% floor, attached "
        r"counting ≈([\d.]+)×, full profiling ≈([\d.]+)×",
        lambda b: (100 * b["max_disabled_overhead"]["counted"],
                   b["geomean"]["counted"], b["geomean"]["profiled"])),
}


class TestHooksMatrix:
    def test_figure_groups_cover_all(self):
        assert set(FIGURE_GROUPS) == set(ALL_GROUPS)
        assert len(FIGURE_GROUPS) == 21

    @pytest.mark.parametrize("group", FIGURE_GROUPS)
    def test_group_analysis_implements_exactly_one_group(self, group):
        analysis = make_group_analysis(group)
        assert used_groups(analysis) == frozenset({group})

    def test_full_analysis_implements_everything(self):
        assert used_groups(make_full_analysis()) == frozenset(ALL_GROUPS)

    def test_group_analyses_are_noops(self):
        analysis = make_group_analysis("binary")
        analysis.binary(None, "i32.add", 1, 2, 3)  # must not raise

    def test_group_analysis_of_several_groups(self):
        analysis = make_group_analysis("load", "store")
        assert used_groups(analysis) == frozenset({"load", "store"})

    def test_figure_configs_instrument_one_group_each(self, fib_module):
        """Figure 9's configurations: every group alone, then all, each a
        fresh session instrumented for exactly its groups that still
        computes what the uninstrumented module does."""
        configs = figure_configs()
        assert list(configs) == FIGURE_GROUPS + ["all"]
        for config, factory in configs.items():
            session, count = factory(fib_module, Linker())
            assert count is None
            expected = ALL_GROUPS if config == "all" else {config}
            assert session.groups == frozenset(expected)
            assert session.invoke("fib", [10]) == [55]


class TestSizeSweep:
    def test_sweep_shape(self):
        module = compile_kernel("trisolv")
        reports = size_sweep("trisolv", module)
        assert len(reports) == len(FIGURE_GROUPS) + 1
        assert reports[-1].config == "all"
        all_report = reports[-1]
        assert all_report.increase_percent > \
            max(r.increase_percent for r in reports[:-1])

    def test_size_report_math(self):
        report = SizeReport("x", "all", 100, 150, 3)
        assert report.increase_percent == 50.0


class TestTimingAndOverhead:
    def test_timing_report(self):
        report = time_instrumentation("gemm", compile_kernel("gemm"), repeats=2)
        assert report.mean_seconds > 0
        assert report.throughput_mb_per_s > 0
        assert report.repeats == 2

    def test_engine_bench_ratio_is_median_of_pairs(self):
        bench = EngineBench("x", {"default": 1.0, "a": 1.5},
                            {"a": [4.0, 1.5, 2.0]}, {}, {})
        # not best over best (1.5x): the pair ratios' median
        assert bench.ratio("a") == 2.0

    def test_bench_engines_pairs_real_runs(self):
        workload = polybench_workloads(["trisolv"])[0]
        configs = figure_configs()
        (bench,) = bench_engines(
            [workload], {"nop": configs["nop"], "all": configs["all"],
                         "legacy": engine_config(predecode=False)},
            repeats=2)
        assert set(bench.seconds) == {"default", "nop", "all", "legacy"}
        assert {c: len(r) for c, r in bench.ratios.items()} == \
            {"nop": 2, "all": 2, "legacy": 2}
        assert all(0 < s < float("inf") for s in bench.seconds.values())
        assert bench.ratio("all") > 1


def fake_clock(step: float = 1e-3):
    """A deterministic clock advancing ``step`` per reading."""
    return count(step=step).__next__


def logging_arms(log: list, names=("base", "a", "b")) -> dict:
    """Prepares whose timed call appends the arm's name to ``log``."""
    return {name: (lambda name=name: lambda: log.append(name))
            for name in names}


class TestBenchPairs:
    def test_each_arm_runs_right_after_a_baseline_run(self):
        log = []
        pairs = bench_pairs(logging_arms(log), 3, name="run")
        assert log == ["base", "a", "base", "b"] * 3
        assert {arm: len(s) for arm, s in pairs.samples.items()} == \
            {"base": 6, "a": 3, "b": 3}
        assert {arm: len(r) for arm, r in pairs.ratios.items()} == \
            {"a": 3, "b": 3}

    def test_prepare_is_not_timed(self):
        clock = fake_clock()

        def slow_prepare():
            for _ in range(5):  # set-up that takes five clock steps
                clock()
            return lambda: None

        pairs = bench_pairs({"base": lambda: lambda: None,
                             "slow": slow_prepare}, 3, name="run",
                            clock=clock)
        assert pairs.samples == {"base": [pytest.approx(1e-3)] * 3,
                                 "slow": [pytest.approx(1e-3)] * 3}
        assert pairs.ratio("slow") == pytest.approx(1.0)

    def test_lone_baseline_runs_alone(self):
        log = []
        pairs = bench_pairs(logging_arms(log, ["base"]), 4, name="run")
        assert log == ["base"] * 4
        assert len(pairs.samples["base"]) == 4
        assert pairs.ratios == {}

    def test_samples_deterministic_under_fake_clock(self):
        def run():
            return bench_pairs(logging_arms([], ["base", "a"]), 5,
                               name="run", clock=fake_clock(2e-3))

        first = run()
        assert first.samples == {"base": [pytest.approx(2e-3)] * 5,
                                 "a": [pytest.approx(2e-3)] * 5}
        assert run().samples == first.samples
        assert first.ratios == {"a": [pytest.approx(1.0)] * 5}

    def test_each_run_is_one_span_tagged_with_its_arm(self):
        tracer = Tracer(clock=fake_clock())
        bench_pairs(logging_arms([], ["base", "a"]), 2, name="step",
                    attrs={"workload": "w"}, tracer=tracer)
        assert [(s.name, s.attrs) for s in tracer.spans] == \
            [("step", {"workload": "w", "config": arm})
             for arm in ["base", "a"] * 2]


class TestFaithfulnessHelpers:
    def test_run_original_captures_prints(self):
        workload = polybench_workloads(["durbin"])[0]
        result, printed = run_original(workload)
        assert printed and isinstance(result, list)

    def test_run_instrumented_matches(self):
        workload = polybench_workloads(["durbin"])[0]
        expected, expected_printed = run_original(workload)
        actual, actual_printed, module = run_instrumented(workload)
        assert actual == expected
        assert actual_printed == expected_printed


class TestRendering:
    def test_render_table_alignment(self):
        text = render_table(["a", "bbbb"], [["x", 1], ["yyyy", 22]], "T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len(lines) == 5  # title + header + rule + 2 rows
        assert all(len(line) <= len(max(lines, key=len)) for line in lines)

    def test_render_table5(self):
        report = time_instrumentation("polybench/x", compile_kernel("trisolv"),
                                      repeats=2)
        text = render_table5([report])
        assert "Table 5" in text and "PolyBench" in text

    def test_render_fig8(self):
        reports = {"s": [SizeReport("a", "nop", 100, 101, 1),
                         SizeReport("a", "all", 100, 700, 10)]}
        text = render_fig8(reports, ["nop", "all"])
        assert "+1.0%" in text and "+600.0%" in text

    def test_render_fig9_geomean(self):
        series = {"s": [EngineBench("a", {}, {"all": [3.0, 4.0, 5.0]}, {}, {})],
                  "t": [EngineBench("b", {}, {"all": [9.0]}, {}, {})]}
        text = render_fig9(series, ["all", "nop"])
        assert "4.00x" in text and "9.00x" in text and "6.00x" in text
        assert text.splitlines()[-1].split() == ["nop", "-", "-", "-"]

    @pytest.mark.parametrize("name", ["fig9_runtime_overhead",
                                      "ablation_selective",
                                      "analyses_overhead",
                                      "table4_analyses"])
    def test_experiments_quotes_result_file(self, name):
        """EXPERIMENTS.md quotes these regenerated results between markers
        rather than retyping their numbers; a stale quote fails here."""
        match = re.search(
            rf"<!-- quote: results/{name}.txt -->\n```text\n(.*?)```\n",
            (ROOT / "EXPERIMENTS.md").read_text(), re.S)
        assert match, f"EXPERIMENTS.md does not quote results/{name}.txt"
        result = (ROOT / "benchmarks" / "results" / f"{name}.txt").read_text()
        assert [line.rstrip() for line in match[1].splitlines()] == \
            [line.rstrip() for line in result.splitlines()]

    @pytest.mark.parametrize("sentence", sorted(README_ENGINE_NUMBERS))
    def test_readme_engine_numbers_match_bench(self, sentence):
        """The README's engine numbers are BENCH_engine.json's, rounded to
        the digits printed; regenerating the JSON without updating the
        README fails here."""
        pattern, values = README_ENGINE_NUMBERS[sentence]
        readme = " ".join((ROOT / "README.md").read_text().split())
        match = re.search(pattern, readme)
        assert match, f"README.md lost the {sentence} sentence"
        bench = json.loads(
            (ROOT / "benchmarks/results/BENCH_engine.json").read_text())
        for printed, value in zip(match.groups(), values(bench), strict=True):
            digits = len(printed.partition(".")[2])
            assert printed == f"{value:.{digits}f}", (sentence, printed, value)
