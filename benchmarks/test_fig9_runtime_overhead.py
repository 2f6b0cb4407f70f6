"""Figure 9: runtime overhead per instrumented hook group (RQ5).

Runs each workload uninstrumented and under each selective configuration
(plus 'all') with an empty analysis attached, reporting relative runtimes.
By default a representative PolyBench subset keeps the sweep to a few
minutes (REPRO_FULL=1 runs all 30 kernels, as the paper does).

Paper-shape expectations checked below: rare hooks ≈ 1.0x; call/return
moderate; const/local/binary expensive; 'all' the most expensive; numeric
PolyBench pays more for `binary`/`local` than the diverse real-world code.
"""

from __future__ import annotations

import json
import statistics

from repro.eval import (FIGURE_GROUPS, POLYBENCH_FAST_SUBSET, baseline_runtime,
                        instrumented_runtime, overhead_sweep,
                        polybench_workloads, realworld_workloads, render_fig9)
from repro.eval.timing import bench_interpreter, interp_bench_payload
from repro.workloads.polybench import kernel_names

from conftest import full_run


def _geomean_for(reports, config):
    values = [r.relative_runtime for r in reports if r.config == config]
    return statistics.geometric_mean(values)


def test_fig9(benchmark, write_report):
    if full_run():
        poly_names = kernel_names()
        repeats = 3
    else:
        poly_names = POLYBENCH_FAST_SUBSET
        repeats = 1
    configs = FIGURE_GROUPS

    poly_reports = []
    for workload in polybench_workloads(poly_names):
        poly_reports.extend(overhead_sweep(workload, configs, repeats=repeats))
    pdf_workload, engine_workload = realworld_workloads(rounds=6)
    pdf_reports = overhead_sweep(pdf_workload, configs, repeats=repeats)
    engine_reports = overhead_sweep(engine_workload, configs, repeats=repeats)

    series = {
        f"PolyBench ({len(poly_names)})": poly_reports,
        "PSPDFKit~": pdf_reports,
        "UnrealEngine~": engine_reports,
    }
    write_report("fig9_runtime_overhead",
                 render_fig9(series, configs + ["all"]))

    # paper-shape assertions (geomean over the PolyBench subset):
    # (1) hooks for instructions that rarely/never execute cost ~nothing
    for cheap in ["nop", "unreachable", "memory_size", "memory_grow"]:
        assert _geomean_for(poly_reports, cheap) < 1.3
    # (2) the expensive hooks of the paper are the expensive hooks here
    assert _geomean_for(poly_reports, "binary") > 1.5
    assert _geomean_for(poly_reports, "local") > 1.5
    assert _geomean_for(poly_reports, "const") > 1.2
    # (3) 'all' dominates every single group
    all_overhead = _geomean_for(poly_reports, "all")
    for config in configs:
        assert all_overhead >= _geomean_for(poly_reports, config) * 0.9
    assert all_overhead > 3.0
    # (4) numeric PolyBench pays more for `binary` than the diverse code
    assert _geomean_for(poly_reports, "binary") >= \
        _geomean_for(engine_reports, "binary") * 0.8

    # the pytest-benchmark number: 'all'-instrumented gemm iteration
    gemm = polybench_workloads(["gemm"])[0]
    base = baseline_runtime(gemm, repeats=1)

    def run_all():
        return instrumented_runtime(gemm, "all", repeats=1)

    instrumented = benchmark.pedantic(run_all, rounds=1, iterations=1)
    assert instrumented > base


def test_interp_predecode_speedup(benchmark, results_dir):
    """Tentpole perf floor: the quickened engine must stay ≥3× faster
    (geomean) than the legacy string-dispatch loop on the Fig. 9 PolyBench
    uninstrumented baseline, with no single workload below 1.8×. Records
    the numbers — each with its dynamic opcode-class mix, so per-workload
    regressions are diagnosable — as BENCH_interp.json.

    This doubles as the CI bench-smoke benchmark: the pytest-benchmark
    fixture times an uninstrumented gemm run on the quickened engine, and
    the CI job puts a wall-clock ceiling on the whole invocation so a
    catastrophic interpreter slowdown fails the build.
    """
    repeats = 5 if full_run() else 3
    workloads = polybench_workloads(POLYBENCH_FAST_SUBSET)
    payload = interp_bench_payload(bench_interpreter(workloads, repeats=repeats))

    path = results_dir / "BENCH_interp.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    for entry in payload["workloads"]:
        mix = ", ".join(f"{cls} {share:.0%}"
                        for cls, share in
                        list(entry["opcode_classes"].items())[:4])
        print(f"{entry['name']:16s} legacy={entry['legacy_seconds']:.4f}s "
              f"predecoded={entry['predecoded_seconds']:.4f}s "
              f"speedup={entry['speedup']:.2f}x [{mix}]")
    print(f"geomean speedup: {payload['geomean_speedup']:.2f}x "
          f"[recorded in {path}]")

    assert payload["geomean_speedup"] >= 3.0, (
        f"quickened engine regressed below the 3x floor: "
        f"{payload['geomean_speedup']:.2f}x geomean")
    for entry in payload["workloads"]:
        assert entry["speedup"] >= 1.8, (
            f"{entry['name']} below the 1.8x per-workload floor: "
            f"{entry['speedup']:.2f}x")
    # the pytest-benchmark number: uninstrumented gemm, quickened engine
    from repro.eval.timing import time_workload
    gemm = polybench_workloads(["gemm"])[0]
    benchmark.pedantic(lambda: time_workload(gemm, repeats=1, predecode=True),
                       rounds=1, iterations=1)
