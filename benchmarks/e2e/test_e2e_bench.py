"""Tests of the end-to-end benchmark itself: ``pytest benchmarks/e2e``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(REPO / "src"))

import compare  # noqa: E402
import drive  # noqa: E402
import harness  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
import ops  # noqa: E402
import render_readme  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


# -- the percentile helper -------------------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    assert harness.tail_percentile([float(v) for v in range(1, 101)]) == (90.0, 10)
    assert harness.tail_percentile([float(v) for v in range(1, 100)]) is None
    assert harness.tail_percentile([]) is None


# -- op lists ---------------------------------------------------------------------


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_op_lists_follow_the_seed(tmp_path, workload):
    first = ops.build(workload, 1, tmp_path / "a")
    again = ops.build(workload, 1, tmp_path / "b")
    other = ops.build(workload, 2, tmp_path / "c")
    assert first == again
    assert first[0] != other[0]
    for a, c in zip(first[0], other[0]):
        # every block holds the same mix of work under any seed
        mix = sorted(op["op"] for op in a)
        assert mix == sorted(op["op"] for op in c)


def test_serve_zipf_draw_changes_with_the_seed(tmp_path):
    (first, _), (other, _) = (ops.build("serve", seed, tmp_path / str(seed))
                              for seed in (1, 2))
    kernels = [[op.get("file") for op in block] for block in first]
    assert kernels != [[op.get("file") for op in block] for block in other]
    counts = ops.zipf_counts(110, 30)
    assert sum(counts) == 110 and counts == sorted(counts, reverse=True)
    hottest = f"inputs/pb-{sorted(ops.kernel_names())[0]}-x1.wasm"
    runs = [op["file"] for op in first[0] if op.get("analysis") == "none"]
    assert runs.count(hottest) == counts[0]


# -- oracle checks ----------------------------------------------------------------


def _records(n: int, failed: int = 0) -> list[dict]:
    return [{"b": 0, "i": 0, "seg": [[0, 0.001 * (k + 1)]], "t": 0.001 * (k + 1),
             "n": 1, "bytes": 10, "failed": k < failed} for k in range(n)]


def test_corrupted_output_byte_fails_the_op(tmp_path, monkeypatch):
    blocks, expectations = ops.build("instrument", 1, tmp_path)
    monkeypatch.chdir(tmp_path)
    index = next(i for i, op in enumerate(blocks[0])
                 if op["file"].startswith("inputs/pb-"))
    op = blocks[0][index]
    runner = drive.InstrumentRunner({})
    schedule = drive._Schedule(blocks, 0.0, 1, 1, checkpoints=False)
    good = drive._record(runner, op, 0, index, None, None, schedule)
    assert ops.check([good], expectations) == []

    encode = drive.encode_module

    def corrupt(module):
        out = bytearray(encode(module))
        out[len(out) // 2] ^= 0x01
        return bytes(out)

    monkeypatch.setattr(drive, "encode_module", corrupt)
    bad = drive._record(runner, op, 0, index, None, None, schedule)
    failures = ops.check([bad], expectations)
    assert bad["ok"] and bad["failed"]
    assert len(failures) == 1 and "oracle" in failures[0]["why"]


def test_failed_ops_count_and_miss_every_latency_limit():
    # a host at half the nominal speed: scaled times are half the raw ones
    slow = [2 * hostspeed.NOMINAL_S]
    result = {"records": _records(120, failed=20), "wall_s": 1.0,
              "intervals": [1.0], "calibrations": [slow, slow],
              "peak_rss_mb": 1.0}
    metrics = harness.end_to_end(result, [0.5], [1.0])
    assert metrics["fail_ratio"]["value"] == pytest.approx(20 / 120)
    assert metrics["op_p90_ms"]["value"] == float("inf")
    assert metrics["ops_per_s"]["value"] == pytest.approx(200.0)
    assert metrics["ops_per_s"]["raw"] == pytest.approx(100.0)
    assert metrics["op_p50_ms"]["value"] == pytest.approx(
        metrics["op_p50_ms"]["raw"] / 2)


# -- compare.py -------------------------------------------------------------------


def _result(path: Path, values: dict) -> Path:
    path.write_text(json.dumps({"workloads": {"w": {"metrics": {
        name: {"value": value} for name, value in values.items()}}}}))
    return path


@pytest.mark.parametrize("change, expected", [
    (lambda k, p: p, "unchanged"),
    (lambda k, p: p * 1.5, "improved"),
    (lambda k, p: p * 0.7, "worse"),
    (lambda k, p: p * (1.04 if k % 2 else 0.98), "unchanged"),
])
def test_compare_verdicts(tmp_path, change, expected):
    parent = [100.0 + k for k in range(10)]
    rows = compare.compare(
        [_result(tmp_path / f"p{k}.json", {"ops_per_s": v})
         for k, v in enumerate(parent)],
        [_result(tmp_path / f"c{k}.json", {"ops_per_s": change(k, v)})
         for k, v in enumerate(parent)],
        compare.load_bounds())
    assert [row["verdict"] for row in rows] == [expected]


def test_compare_unresolved_under_a_wide_spread():
    parent = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    change = [v * 1.05 for v in reversed(parent)]
    assert compare.verdict(parent, change, "higher", 0.1)["verdict"] == "unresolved"
    better = [200.0 + k for k in range(10)]
    assert compare.verdict(parent, better, "higher", 0.1)["verdict"] == "improved"


def test_compare_flags_any_failure_increase():
    assert compare.verdict([0.0] * 3, [0.0, 0.01, 0.0], "lower", 0.0)[
        "verdict"] == "worse"
    assert compare.verdict([0.0] * 3, [0.0] * 3, "lower", 0.0)[
        "verdict"] == "unchanged"


def test_compare_exit_status(tmp_path):
    parent = _result(tmp_path / "p.json", {"op_p50_ms": 10.0})
    slower = _result(tmp_path / "c.json", {"op_p50_ms": 20.0})
    assert compare.main([str(parent), str(parent)]) == 0
    assert compare.main([str(parent), str(slower)]) == 1


# -- tiny runs of every workload --------------------------------------------------


def _tiny(build, workload: str, workdir: Path) -> tuple[list, list]:
    """One block of the workload's cheapest ops, one of each op kind."""
    blocks, expectations = build(workload, 1, workdir)
    picked: dict[str, tuple] = {}
    for op, expect in sorted(zip(blocks[0], expectations[0]),
                             key=lambda pair: pair[0]["bytes"]):
        if op["op"] == "run" and ({"--stdin-file", "--fs-dir"} & set(op["argv"])):
            continue
        kind = op["op"] + op.get("analysis", "")[:4]
        picked.setdefault(kind, (dict(op, mutants=5) if kind == "fuzz" else op,
                                 expect))
    return [[op for op, _ in picked.values()]], [[e for _, e in picked.values()]]


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_tiny_run_emits_every_declared_metric(tmp_path, monkeypatch, workload):
    build = ops.build
    monkeypatch.setattr(ops, "build", lambda w, seed, workdir, expected=None:
                        _tiny(build, w, Path(workdir)))
    monkeypatch.setattr(harness, "SETUP_LAUNCHES", 2)
    expected = ops.load_expected()
    out = harness.run_workload(workload, 1, 0.0, False, tmp_path, expected)
    assert out["failed"] == 0, out["failures"]
    declared = {m["name"] for m in SPEC["end_to_end"]}
    assert declared <= set(out["metrics"])
    line = harness.final_line({workload: out}, trace=False)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == declared

    traced = harness.run_workload(workload, 1, 0.0, True, tmp_path, expected)
    assert traced["failed"] == 0, traced["failures"]
    assert set(traced["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    table = traced["layers"]
    assert sum(row["share"] for row in table.values()) == pytest.approx(1.0)
    assert (tmp_path / f"{workload}.perfetto.json").is_file()


# -- declarations, guards, docs ---------------------------------------------------


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(ops.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(
        harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(
        layers.PER_LAYER)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_engine_overrides_refuse_the_run(monkeypatch):
    assert harness.engine_overrides({}) == []
    assert harness.engine_overrides({"REPRO_QUICKEN": "1"}) == []
    assert harness.engine_overrides({"REPRO_PREDECODE": "0"}) == [
        "REPRO_PREDECODE=0"]
    monkeypatch.setenv("REPRO_SPECIALIZE_HOOKS", "off")
    assert harness.run_benchmark(["fuzz"], 1, 1.0, False, Path("."), None) == 2


def test_run_fails_without_the_source_tree(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "fuzz",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"})
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_readme_numbers_are_rendered_from_the_results():
    assert render_readme.rendered_section(
        render_readme.README.read_text()) == render_readme.render()
