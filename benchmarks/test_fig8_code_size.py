"""Figure 8: binary size increase per instrumented hook group (RQ4).

For every hook group (and 'all'), instruments each program selectively and
reports the encoded-size increase as a percentage — PolyBench as the mean
over all 30 kernels, plus the two real-world stand-ins, matching the
paper's three series.
"""

from __future__ import annotations

import statistics

from repro.eval import FIGURE_GROUPS, render_fig8, size_sweep
from repro.workloads import engine_demo, pdf_toolkit
from repro.workloads.polybench import compile_kernel, kernel_names


def test_fig8(write_report):
    configs = FIGURE_GROUPS + ["all"]
    polybench_reports = []
    for name in kernel_names():
        polybench_reports.extend(size_sweep(name, compile_kernel(name)))
    series = {
        "PolyBench (mean)": polybench_reports,
        "PSPDFKit~": size_sweep("pdf_toolkit", pdf_toolkit()),
        "UnrealEngine~": size_sweep("engine_demo", engine_demo()),
    }
    write_report("fig8_code_size", render_fig8(series, configs))

    def mean_increase(reports, config):
        values = [r.increase_percent for r in reports if r.config == config]
        return statistics.mean(values)

    poly = polybench_reports
    # paper-shape assertions:
    # (1) rare-instruction hooks cost (almost) nothing
    for cheap in ["nop", "unreachable", "memory_size", "memory_grow"]:
        assert mean_increase(poly, cheap) < 2.0
    # (2) frequent-instruction hooks dominate
    assert mean_increase(poly, "binary") > mean_increase(poly, "drop")
    assert mean_increase(poly, "local") > 30
    assert mean_increase(poly, "const") > 30
    assert mean_increase(poly, "load") > 10
    # (3) 'all' is several hundred percent (paper: 495-743%)
    assert 300 < mean_increase(poly, "all") < 1200
    # (4) PolyBench (numeric) pays more for `binary` than the diverse
    #     real-world code (paper's explanation of the binary-hook gap)
    assert mean_increase(poly, "binary") > \
        mean_increase(series["UnrealEngine~"], "binary")
