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

import statistics

from repro.eval import (FIGURE_GROUPS, POLYBENCH_FAST_SUBSET, baseline_runtime,
                        instrumented_runtime, overhead_sweep,
                        polybench_workloads, realworld_workloads, render_fig9)
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

