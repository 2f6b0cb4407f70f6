"""Plain-text table/figure renderers matching the paper's presentation.

Each printer emits the same rows/series the paper reports (grouped by
PolyBench mean vs the two real-world programs), so `pytest benchmarks/`
output can be compared side by side with the paper.
"""

from __future__ import annotations

import statistics
from typing import Iterable, Sequence

from .sizes import SizeReport
from .timing import EngineBench, TimingReport


def _geomean(values: Sequence[float]) -> float:
    return statistics.geometric_mean(values) if values else float("nan")


def render_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: str = "") -> str:
    table_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in table_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in table_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_table5(reports: list[TimingReport],
                  polybench_group: str = "polybench") -> str:
    """Table 5: instrumentation time, averaged over the PolyBench suite."""
    poly = [r for r in reports if r.name.startswith(polybench_group)]
    rest = [r for r in reports if not r.name.startswith(polybench_group)]
    rows = []
    if poly:
        rows.append([
            f"PolyBench (avg of {len(poly)})",
            f"{statistics.mean(r.binary_bytes for r in poly):,.0f}",
            f"{1000 * statistics.mean(r.mean_seconds for r in poly):.1f} ± "
            f"{1000 * statistics.mean(r.stdev_seconds for r in poly):.1f}",
            f"{statistics.mean(r.throughput_mb_per_s for r in poly):.2f}",
        ])
    for r in rest:
        rows.append([r.name, f"{r.binary_bytes:,}",
                     f"{1000 * r.mean_seconds:.1f} ± {1000 * r.stdev_seconds:.1f}",
                     f"{r.throughput_mb_per_s:.2f}"])
    return render_table(
        ["Program", "Binary size (B)", "Instrument (ms)", "MB/s"], rows,
        title="Table 5: time to instrument")


def render_fig8(reports_by_series: dict[str, list[SizeReport]],
                configs: list[str]) -> str:
    """Figure 8: binary size increase (%) per instrumented hook group."""
    headers = ["Hook"] + list(reports_by_series)
    rows = []
    for config in configs:
        row = [config]
        for series, reports in reports_by_series.items():
            matching = [r for r in reports if r.config == config]
            if not matching:
                row.append("-")
            else:
                row.append(f"{statistics.mean(r.increase_percent for r in matching):+.1f}%")
        rows.append(row)
    return render_table(headers, rows,
                        title="Figure 8: binary size increase per hook")


def render_fig9(benches_by_series: dict[str, list[EngineBench]],
                configs: list[str]) -> str:
    """Figure 9: relative runtime per instrumented hook group, the geomean
    of each workload's median pair ratio (:meth:`EngineBench.ratio`)."""
    headers = ["Hook"] + list(benches_by_series) + ["geomean"]
    rows = []
    for config in configs:
        row = [config]
        all_values = []
        for benches in benches_by_series.values():
            values = [b.ratio(config) for b in benches if config in b.ratios]
            all_values.extend(values)
            row.append(f"{_geomean(values):.2f}x" if values else "-")
        row.append(f"{_geomean(all_values):.2f}x" if all_values else "-")
        rows.append(row)
    return render_table(headers, rows,
                        title="Figure 9: relative runtime per hook")
