"""End-to-end benchmark of the Wasabi reproduction: instrument, run, analyze,
serve and fuzz, with per-layer numbers from a traced run.

From the repository root::

    python benchmarks/e2e/run.py --seed 11 --out result.json
    python benchmarks/e2e/run.py --workload serve --seed 11 --seconds 10
    python benchmarks/e2e/run.py --workload instrument --seed 11 --trace 1

It prints every metric by name and unit, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` reports the per-layer metrics and
writes a Perfetto trace and a layer table per workload to ``--trace-dir``.
See README.md for the metrics, the workloads and the compare tool.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
WORKLOADS = ("instrument", "execute", "analyze", "serve", "fuzz")


def default_seconds() -> int:
    """``run_seconds`` from BENCHMARK.json, or 10 without one."""
    try:
        return int(json.loads((REPO / "BENCHMARK.json").read_text())["run_seconds"])
    except (OSError, ValueError, KeyError):
        return 10


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=11,
                        help="seed of the generated op lists (default: 11)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="least measured time per run, in whole blocks "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: a traced run for the per-layer metrics")
    parser.add_argument("--trace-dir", type=Path,
                        default=REPO / ".bench_build" / "e2e-trace",
                        help="where a traced run writes its Perfetto trace "
                             "and layer table")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the full result (environment, metric "
                             "samples, failures, layer tables) as JSON")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from harness import run_benchmark
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    seconds = args.seconds if args.seconds is not None else default_seconds()
    return run_benchmark(workloads, args.seed, seconds, bool(args.trace),
                         args.trace_dir, args.out)


if __name__ == "__main__":
    sys.exit(main())
