"""Render the measured numbers in README.md from the recorded results.

    python benchmarks/e2e/render_readme.py

rewrites the section between the two markers from BENCHMARK.json,
``results/baseline-{1,2}.json`` and ``results/trace-1.json``, so no number
in README.md is typed by hand (``test_e2e_bench.py`` fails when it drifts).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import compare

HERE = Path(__file__).resolve().parent
README = HERE / "README.md"
RESULTS = HERE / "results"
BEGIN = "<!-- begin results: rendered by render_readme.py, do not edit -->"
END = "<!-- end results -->"
#: Layer rows shown per workload (the rest are under 1% of op time).
MIN_SHARE = 0.01


def _env_line(env: dict) -> str:
    rev = (env.get("git_rev") or "unknown")[:12]
    return (f"Python {env['python']} on {env['platform']}, {env['nproc']} CPUs, "
            f"rev `{rev}`, seed {env['seed']}, {env['seconds']:g} s per run.")


def render() -> str:
    spec = json.loads((compare.REPO / "BENCHMARK.json").read_text())
    lines = ["#### Bounds (BENCHMARK.json)", "",
             "| metric | unit | better | bound |", "|---|---|---|---|"]
    for metric in spec["end_to_end"]:
        lines.append(f"| `{metric['name']}` | {metric['unit']} | "
                     f"{metric['better']} | {metric['bound']:.0%} |")
    lines.append("| `fail_ratio` | failed/attempted | lower | 0 |")

    runs = [RESULTS / "baseline-1.json", RESULTS / "baseline-2.json"]
    env = json.loads(runs[0].read_text())["env"]
    rows = compare.compare(runs[:1], runs[1:], compare.load_bounds())
    lines += ["", "#### Baseline: two untraced runs (results/baseline-1.json, "
              "results/baseline-2.json)", "", _env_line(env), "",
              "`compare.py results/baseline-1.json results/baseline-2.json`:",
              "", compare.render(rows)]

    trace = json.loads((RESULTS / "trace-1.json").read_text())
    lines += ["", "#### Layers: one traced run (results/trace-1.json)", "",
              _env_line(trace["env"]), "",
              "Self time per layer, per op (per mutant on fuzz), with its share "
              "of op wall time; layers under 1% are left out.", ""]
    for workload, out in trace["workloads"].items():
        per_layer = out["per_layer"]
        lines += [f"**{workload}** — tracing keeps "
                  f"{per_layer['trace.overhead_ratio']['value']:.2f}× of the "
                  f"untraced {per_layer['trace.untraced_ops_per_s']['value']:.4g}"
                  f" ops/s; the op span's own time is "
                  f"{per_layer['trace.unattributed_share']['value']:.1%}.", "",
                  "| layer | ms/op | share |", "|---|---|---|"]
        for layer, row in out["layers"].items():
            if row["share"] >= MIN_SHARE:
                lines.append(f"| {layer} | {row['self_s_per_op'] * 1e3:.4g} | "
                             f"{row['share']:.1%} |")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def rendered_section(text: str) -> str:
    start = text.index(BEGIN) + len(BEGIN)
    return text[start:text.index(END)].strip("\n") + "\n"


def main() -> int:
    text = README.read_text()
    head = text[:text.index(BEGIN) + len(BEGIN)]
    README.write_text(f"{head}\n{render()}{text[text.index(END):]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
