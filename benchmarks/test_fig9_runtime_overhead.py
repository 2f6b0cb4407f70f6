"""Figure 9: runtime overhead per instrumented hook group (RQ5).

Times each workload under each selective configuration (plus 'all') with
an empty analysis attached, every run paired with an uninstrumented run of
its own (:func:`repro.eval.timing.bench_engines`), and reports the median
pair ratios. By default a representative PolyBench subset and 3 repeats
keep the sweep to about a minute (REPRO_FULL=1 runs all 30 kernels, as the
paper does, with 5 repeats).

Paper-shape expectations checked below: rare hooks ≈ 1.0x; call/return
moderate; const/local/binary expensive; 'all' the most expensive; numeric
PolyBench pays more for `binary`/`local` than the diverse real-world code.
"""

from __future__ import annotations

import statistics

from repro.eval import (FIGURE_GROUPS, POLYBENCH_FAST_SUBSET, bench_engines,
                        figure_configs, polybench_workloads,
                        realworld_workloads, render_fig9)
from repro.workloads.polybench import kernel_names

from conftest import full_run


def _geomean_for(benches, config):
    return statistics.geometric_mean(b.ratio(config) for b in benches)


def test_fig9(write_report):
    if full_run():
        poly_names, repeats = kernel_names(), 5
    else:
        poly_names, repeats = POLYBENCH_FAST_SUBSET, 3
    configs = figure_configs()

    poly = bench_engines(polybench_workloads(poly_names), configs,
                         repeats=repeats)
    pdf, engine = bench_engines(realworld_workloads(rounds=6), configs,
                                repeats=repeats)
    series = {
        f"PolyBench ({len(poly_names)})": poly,
        "PSPDFKit~": [pdf],
        "UnrealEngine~": [engine],
    }
    write_report("fig9_runtime_overhead", render_fig9(series, list(configs)))

    # paper-shape assertions (geomean over the PolyBench subset):
    # (1) hooks for instructions that rarely/never execute cost ~nothing
    for cheap in ["nop", "unreachable", "memory_size", "memory_grow"]:
        assert _geomean_for(poly, cheap) < 1.3
    # (2) the expensive hooks of the paper are the expensive hooks here
    assert _geomean_for(poly, "binary") > 1.5
    assert _geomean_for(poly, "local") > 1.5
    assert _geomean_for(poly, "const") > 1.2
    # (3) 'all' dominates every single group
    all_overhead = _geomean_for(poly, "all")
    for config in FIGURE_GROUPS:
        assert all_overhead >= _geomean_for(poly, config) * 0.9
    assert all_overhead > 3.0
    # (5) the headline: hook sites run inside compiled segments, so a fall
    # back to slot-by-slot hook dispatch (PolyBench 'all' about 12x) fails
    assert all_overhead <= 8.0
    # (4) numeric PolyBench pays more for `binary` than the diverse code
    assert _geomean_for(poly, "binary") >= engine.ratio("binary") * 0.8
    # (6) gemm pays for 'all' on its own too, not only in the geomean
    (gemm,) = (b for b in poly if b.name == "gemm")
    assert gemm.ratio("all") > 1
