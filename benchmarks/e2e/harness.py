"""The parent side of the end-to-end benchmark: launches, checks, metrics.

For each workload the parent builds the seeded op list and its inputs in a
fresh work directory, then starts ``drive.py`` in fresh processes:

* untraced — six set-up-only launches and one measuring launch; each
  launch's time from process start to ``ready`` is one ``setup_s`` sample,
  scaled by the host calibrations the parent takes around it;
* traced — one untraced measuring launch, then one traced launch over the
  same blocks. The untraced launch gives the base of
  ``trace.overhead_ratio``; the traced one gives only layer numbers.

Every op record is checked against its oracle here, outside the measured
process, and a mismatch counts as a failed op. Times are reported in
nominal-host seconds (see ``hostspeed.py``), with the raw value beside.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import math
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import drive
import hostspeed
import layers
import ops

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
WORK_ROOT = REPO / ".bench_build" / "e2e"
RESULT_SCHEMA = "repro.e2e-bench/1"

#: Launches per untraced workload run; the last one also measures.
SETUP_LAUNCHES = 7
#: Ops a run times at least: p90 then has >= 10 samples beyond it.
MIN_SAMPLES = 100
LAUNCH_TIMEOUT = 170.0
#: Engine switches the benchmark refuses to run under when they turn the
#: default engine off: the numbers would belong to a different program.
ENGINE_SWITCHES = ("REPRO_PREDECODE", "REPRO_SPECIALIZE_HOOKS", "REPRO_QUICKEN")

#: The end-to-end metrics, as named and united in BENCHMARK.json.
END_TO_END = (("setup_s", "s"), ("ops_per_s", "ops/s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("input_mb_per_s", "MB/s"),
              ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    """A launch failed outright (as opposed to an op failing its check)."""


def tail_percentile(samples: list[float], q: float = 0.9,
                    min_beyond: int = 10) -> tuple[float, int] | None:
    """Nearest-rank ``q`` percentile and the number of samples above it,
    or ``None`` when fewer than ``min_beyond`` samples lie beyond it."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered))
    beyond = len(ordered) - rank
    if beyond < min_beyond:
        return None
    return ordered[rank - 1], beyond


def engine_overrides(environ=os.environ) -> list[str]:
    """The engine switches set to turn a default-on engine feature off."""
    off = ("0", "false", "no", "off")
    return [f"{name}={environ[name]}" for name in ENGINE_SWITCHES
            if environ.get(name, "1").lower() in off]


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_rev() -> str | None:
    if not (REPO / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def environment(seed: int, seconds: float) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_rev": _git_rev(),
        "src_sha256": _source_digest(),
        "seed": seed,
        "seconds": seconds,
        "repro_env": {k: v for k, v in sorted(os.environ.items())
                      if k.startswith("REPRO_")},
        "started": datetime.datetime.now(datetime.timezone.utc)
                   .isoformat(timespec="seconds"),
    }


def _launch(workload: str, workdir: Path, tag: str, seconds: float, *,
            ready_only: bool = False, traced: bool = False,
            blocks: int | None = None) -> tuple[float, dict | None]:
    """Start ``drive.py``; return (seconds from start to ``ready``, result)."""
    result_path = workdir / f"result-{tag}.json"
    config = {"workload": workload, "workdir": str(workdir),
              "launch": f"launch-{tag}", "seconds": seconds,
              "min_samples": MIN_SAMPLES, "blocks": blocks, "traced": traced,
              "ready_only": ready_only, "result": str(result_path)}
    config_path = workdir / f"launch-{tag}.json"
    config_path.write_text(json.dumps(config))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    stderr_path = workdir / f"launch-{tag}.stderr"
    with open(stderr_path, "wb") as stderr:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "drive.py"),
                                 str(config_path)], stdout=subprocess.PIPE,
                                stderr=stderr, env=env)
        try:
            ready = _wait_ready(proc, started)
            proc.wait(timeout=LAUNCH_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    if proc.returncode != 0 or ready is None:
        tail = stderr_path.read_text(errors="replace").strip()[-2000:]
        raise BenchError(f"{workload} launch {tag} failed "
                         f"(exit {proc.returncode}):\n{tail}")
    if ready_only:
        return ready, None
    return ready, json.loads(result_path.read_text())


def _wait_ready(proc: subprocess.Popen, started: float) -> float | None:
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        while time.perf_counter() - started < LAUNCH_TIMEOUT:
            if selector.select(timeout=0.5):
                line = proc.stdout.readline()
                if line.strip() == b"ready":
                    return time.perf_counter() - started
                if not line:
                    return None
    return None


def normalize(result: dict) -> float:
    """Give every record its host-speed factor ``f`` (time-weighted over
    the intervals its segments fall in); return the measured wall time in
    nominal-host seconds."""
    scale = hostspeed.factors(result["calibrations"])
    for record in result["records"]:
        scaled = sum(seconds * scale[k] for k, seconds in record["seg"])
        record["f"] = scaled / record["t"] if record["t"] else scale[record["seg"][0][0]]
    return sum(wall * f for wall, f in zip(result["intervals"], scale))


def _timings(records: list[dict], wall: float, factor) -> dict:
    """Throughput and latency values, each time scaled by ``factor(record)``.
    A failed op misses every latency limit."""
    good = [r for r in records if not r["failed"]]
    latencies = [r["t"] * factor(r) / r["n"] * 1e3 if not r["failed"]
                 else math.inf for r in records]
    p90 = tail_percentile(latencies)
    if p90 is None:
        raise BenchError(f"{len(latencies)} latency samples cannot support p90")
    return {"ops_per_s": sum(r["n"] for r in good) / wall,
            "op_p50_ms": statistics.median(latencies),
            "op_p90_ms": p90[0], "beyond": p90[1], "samples": len(latencies),
            "input_mb_per_s": sum(r["bytes"] for r in good) / 1e6 / wall}


def end_to_end(result: dict, setup: list[float], setup_raw: list[float]) -> dict:
    """The end-to-end metrics of one checked, untraced measuring launch, in
    nominal-host time, each with its raw (unscaled) value."""
    records = result["records"]
    wall = normalize(result)
    nominal = _timings(records, wall, lambda r: r["f"])
    raw = _timings(records, result["wall_s"], lambda r: 1.0)
    units = dict(END_TO_END)
    metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s",
                           "raw": statistics.median(setup_raw),
                           "samples": setup}}
    for name in ("ops_per_s", "op_p50_ms", "op_p90_ms", "input_mb_per_s"):
        metrics[name] = {"value": nominal[name], "unit": units[name],
                         "raw": raw[name]}
    metrics["op_p50_ms"]["samples"] = nominal["samples"]
    metrics["op_p90_ms"].update(samples=nominal["samples"],
                                beyond=nominal["beyond"])
    metrics["peak_rss_mb"] = {"value": result["peak_rss_mb"], "unit": "MB"}
    attempted = sum(r["n"] for r in records)
    failed = sum(r["n"] for r in records if r["failed"])
    metrics["fail_ratio"] = {"value": failed / attempted if attempted else 0.0,
                             "unit": "failed/attempted",
                             "attempted": attempted, "failed": failed}
    return metrics


def _setup_samples(workload: str, workdir: Path,
                   seconds: float) -> tuple[list, list, dict]:
    """Time SETUP_LAUNCHES launches, the last of which measures; the parent
    calibrates the host before the first launch and after each one."""
    raw, calibrations = [], [hostspeed.calibrate()]
    for k in range(SETUP_LAUNCHES):
        last = k == SETUP_LAUNCHES - 1
        ready, result = _launch(workload, workdir,
                                "measure" if last else f"setup{k}", seconds,
                                ready_only=not last)
        raw.append(ready)
        calibrations.append(hostspeed.calibrate())
    scaled = [t * f for t, f in zip(raw, hostspeed.factors(calibrations))]
    return scaled, raw, result


def _summary(result: dict, failures: list[dict]) -> dict:
    records = result["records"]
    return {"attempted": sum(r["n"] for r in records),
            "failed": sum(r["n"] for r in records if r["failed"]),
            "blocks": result["blocks"], "wall_s": result["wall_s"],
            "failures": failures[:10]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 trace_dir: Path, expected: dict) -> dict:
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    try:
        blocks, expectations = ops.build(workload, seed, workdir, expected)
        plan = {"blocks": blocks, "warmup": ops.warmup_op(workload, workdir)}
        (workdir / "ops.json").write_text(json.dumps(plan))
        # single-process workloads run on one CPU, inherited by each launch
        with hostspeed.pinned(not drive.RUNNERS[workload].concurrent):
            if not trace:
                return _untraced(workload, workdir, seconds, expectations)
            return _traced(workload, workdir, seconds, expectations, trace_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _untraced(workload: str, workdir: Path, seconds: float,
              expectations: list) -> dict:
    setup, setup_raw, result = _setup_samples(workload, workdir, seconds)
    failures = ops.check(result["records"], expectations)
    out = _summary(result, failures)
    out["metrics"] = end_to_end(result, setup, setup_raw)
    if "serve_stats" in result:
        out["serve_stats"] = result["serve_stats"]
    return out


def _traced(workload: str, workdir: Path, seconds: float, expectations: list,
            trace_dir: Path) -> dict:
    _, base = _launch(workload, workdir, "untraced", seconds)
    _, traced = _launch(workload, workdir, "traced", seconds, traced=True,
                        blocks=base["blocks"])
    base_failures = ops.check(base["records"], expectations)
    failures = ops.check(traced["records"], expectations)
    base_ops = sum(r["n"] for r in base["records"]) / normalize(base)
    traced_ops = sum(r["n"] for r in traced["records"]) / normalize(traced)
    out = _summary(traced, base_failures + failures)
    out["attempted"] += sum(r["n"] for r in base["records"])
    out["failed"] += sum(r["n"] for r in base["records"] if r["failed"])
    values = layers.per_layer(
        workload, traced["records"], base_ops, traced_ops,
        traced.get("serve_stats"),
        warmup_plain_runs=1 if workload == "serve" else 0)
    units = dict(layers.PER_LAYER)
    out["per_layer"] = {name: {"value": values[name], "unit": units[name]}
                        for name, _ in layers.PER_LAYER}
    out["layers"] = layers.layer_table(workload, traced["records"])
    written = layers.write_trace(workload, traced["records"], trace_dir)
    out["trace_files"] = [_relative(path) for path in written]
    return out


def _relative(path: str) -> str:
    """``path`` relative to the repository root when it lies inside it."""
    try:
        return str(Path(path).resolve().relative_to(REPO))
    except ValueError:
        return path


def _finite(value: float) -> float:
    return value if math.isfinite(value) else sys.float_info.max


def final_line(results: dict, trace: bool) -> dict:
    """The one-line summary: correctness, op counts, and every metric
    (prefixed by workload when the run covered more than one)."""
    key = "per_layer" if trace else "metrics"
    names = [name for name, _ in (layers.PER_LAYER if trace else END_TO_END)]
    metrics = {}
    for workload, out in results.items():
        prefix = f"{workload}/" if len(results) > 1 else ""
        for name in names:
            metric = out[key][name]
            metrics[prefix + name] = {"value": _finite(metric["value"]),
                                      "unit": metric["unit"]}
    attempted = sum(out["attempted"] for out in results.values())
    failed = sum(out["failed"] for out in results.values())
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def render(results: dict, trace: bool) -> str:
    lines = []
    for workload, out in results.items():
        lines.append(f"== {workload}: {out['attempted']} ops attempted, "
                     f"{out['failed']} failed, {out['blocks']} blocks in "
                     f"{out['wall_s']:.2f}s")
        for failure in out["failures"]:
            lines.append(f"   FAILED {failure['label']} (block {failure['block']}, "
                         f"op {failure['index']}): {failure['why']}")
        metrics = out["per_layer"] if trace else out["metrics"]
        for name, metric in metrics.items():
            extra = ""
            if "beyond" in metric:
                extra = f"  ({metric['samples']} samples, {metric['beyond']} beyond)"
            elif name == "setup_s":
                extra = f"  (median of {len(metric['samples'])} launches)"
            lines.append(f"   {name:<30} {metric['value']:>14.6g} "
                         f"{metric['unit']}{extra}")
        if trace:
            lines.append(layers.render_layer_table(workload, out["layers"]).rstrip())
            lines.extend(f"   wrote {path}" for path in out["trace_files"])
    return "\n".join(lines)


def run_benchmark(workloads: list[str], seed: int, seconds: float,
                  trace: bool, trace_dir: Path, out_path: Path | None) -> int:
    overrides = engine_overrides()
    if overrides:
        print(f"refusing to run: {', '.join(overrides)} turns off part of the "
              f"default engine, so the numbers would describe another "
              f"program", file=sys.stderr)
        return 2
    expected = ops.load_expected()
    env = environment(seed, seconds)
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(workload, seed, seconds, trace,
                                             trace_dir, expected)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    payload = {"schema": RESULT_SCHEMA, "env": env, "trace": trace,
               "workloads": results}
    if out_path is not None:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(payload, indent=1) + "\n")
    print(render(results, trace))
    line = final_line(results, trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1
