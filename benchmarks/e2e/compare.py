"""Compare end-to-end benchmark results of a parent and a change.

    python benchmarks/e2e/compare.py PARENT.json... CHANGE.json...

The first half of the files are the parent's runs, the second half the
change's, paired in order (run them alternately, parent first on odd pairs
and change first on even ones). Each file is a ``run.py --out`` result.
One row per (workload, metric) gives each side's median and quartiles and
a verdict, using the metric's bound from BENCHMARK.json:

* ``worse`` — the change's median is worse than the parent's by more
  than the bound (under a spread wider than the bound, only when every
  change run also reads worse than every parent run);
* ``unresolved`` — the parent's own spread (inter-quartile range over
  median) is wider than the bound, and the runs do not separate;
* ``improved`` — over at least ten pairs, the change wins nine in ten
  (ties count for neither) and the medians differ by more than the
  parent's inter-quartile range, or, under a spread wider than the bound,
  every change run reads better than every parent run;
* ``unchanged`` — otherwise.

``fail_ratio`` has a bound of 0: any increase is ``worse``. The exit
status is 1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
#: The claim rule: at least ten pairs, the change winning nine in ten.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_bounds(path: Path = REPO / "BENCHMARK.json") -> dict[str, dict]:
    """Metric name -> {"better", "bound", "unit"}, plus fail_ratio's."""
    spec = json.loads(path.read_text())
    bounds = {m["name"]: {"better": m["better"], "bound": m["bound"],
                          "unit": m["unit"]} for m in spec["end_to_end"]}
    bounds["fail_ratio"] = {"better": "lower", "bound": 0.0,
                            "unit": "failed/attempted"}
    return bounds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> dict:
    """The comparison row for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    # relative change, positive when the change reads better
    gain = sign * (cm - pm) / abs(pm) if pm else sign * (cm - pm)
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    all_worse = all(sign * (c - p) < 0 for c in change for p in parent)
    claim = (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
             and abs(cm - pm) > p3 - p1 and gain > 0)
    if bound == 0.0:
        result = "worse" if max(change) > max(parent) else (
            "improved" if claim else "unchanged")
    elif spread > bound:
        if all_better:
            result = "improved"
        elif all_worse and -gain > bound:
            result = "worse"
        else:
            result = "unresolved"
    elif -gain > bound:
        result = "worse"
    elif claim:
        result = "improved"
    else:
        result = "unchanged"
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3), "gain": gain,
            "spread": spread, "wins": wins, "pairs": len(pairs),
            "verdict": result}


def collect(paths: list[Path]) -> dict[tuple[str, str], list[float]]:
    values: dict[tuple[str, str], list[float]] = {}
    for path in paths:
        payload = json.loads(Path(path).read_text())
        for workload, out in payload["workloads"].items():
            for name, metric in out.get("metrics", {}).items():
                values.setdefault((workload, name), []).append(metric["value"])
    return values


def compare(parent_paths: list[Path], change_paths: list[Path],
            bounds: dict[str, dict]) -> list[dict]:
    parent, change = collect(parent_paths), collect(change_paths)
    rows = []
    for (workload, name), values in sorted(parent.items()):
        if name not in bounds or (workload, name) not in change:
            continue
        spec = bounds[name]
        row = verdict(values, change[(workload, name)], spec["better"],
                      spec["bound"])
        row.update(workload=workload, metric=name, unit=spec["unit"],
                   bound=spec["bound"])
        rows.append(row)
    return rows


def render(rows: list[dict]) -> str:
    head = (f"| workload | metric | unit | parent median [q1, q3] | "
            f"change median [q1, q3] | change | bound | wins | verdict |")
    lines = [head, "|" + "---|" * 9]
    for row in rows:
        p1, pm, p3 = row["parent"]
        c1, cm, c3 = row["change"]
        lines.append(
            f"| {row['workload']} | {row['metric']} | {row['unit']} | "
            f"{pm:.4g} [{p1:.4g}, {p3:.4g}] | {cm:.4g} [{c1:.4g}, {c3:.4g}] | "
            f"{row['gain']:+.1%} | {row['bound']:.0%} | "
            f"{row['wins']}/{row['pairs']} | {row['verdict']} |")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="compare parent and change results of run.py --out")
    parser.add_argument("results", nargs="+", type=Path,
                        help="the parent's result files, then the change's "
                             "(equally many)")
    args = parser.parse_args(argv)
    if len(args.results) % 2:
        parser.error("pass as many change results as parent results")
    half = len(args.results) // 2
    rows = compare(args.results[:half], args.results[half:], load_bounds())
    print(render(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
