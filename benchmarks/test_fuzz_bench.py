"""Fuzzing campaign throughput and guidance quality (BENCH_fuzz.json).

Two claims, one JSON artifact:

* **Throughput** — the sharded engine vs one in-process shard
  (``FuzzConfig(parallel=1)``) at the same budget and seed; blind
  aggregates do not depend on the shard count (pinned by tier-1
  ``test_parallel_blind_matches_serial``). Absolute speedups depend
  on the machine (this box may have one core, and on 3.10/3.11 the
  ``settrace`` coverage backend multiplies per-mutant cost ~5x), so the
  numbers are recorded honestly and the floors are gated on
  ``os.cpu_count()`` / the collector backend instead of asserted blind.
* **Guidance** — coverage-guided mode finds strictly more unique
  ``(stage, outcome, error-class)`` signatures than blind mutation at
  equal budget and seed. The campaign shape (budget, seed, shard count,
  round size) is pinned to the CI configuration, and shard merging is
  submission-order deterministic, so this comparison reproduces exactly
  on any machine and is asserted unconditionally. At larger budgets blind
  eventually reaches the same classes (the signature space of a robust
  pipeline is small); the guided win is reaching them with fewer mutants.
"""

from __future__ import annotations

import json
import os
import sys
import time

from repro.eval.coverage import default_backend
from repro.eval.fuzz import FuzzConfig, bench_payload, run_fuzz_campaign

from conftest import full_run

SEED = 20260806  # the CI campaign seed; ISSUE-6 pins the comparison here

#: The pinned guidance-comparison shape: 4 shards x 250-mutant rounds,
#: 2000 mutants. Changing any of these changes which mutants each mode
#: schedules, i.e. it is a different experiment.
GUIDANCE_BUDGET = 2000
GUIDANCE_SHARDS = 4
GUIDANCE_ROUND = 250


def _workers() -> int:
    return max(1, min(4, os.cpu_count() or 1))


def test_fuzz_throughput_and_guidance(results_dir):
    budget = 5000 if full_run() else 2000
    workers = _workers()

    start = time.perf_counter()
    serial = run_fuzz_campaign(FuzzConfig(mutants=budget, seed=SEED,
                                          parallel=1))
    serial_elapsed = time.perf_counter() - start
    serial_rate = budget / serial_elapsed
    assert serial.ok, serial.summary()

    blind = run_fuzz_campaign(FuzzConfig(
        mutants=budget, seed=SEED, parallel=workers))
    par_cov = run_fuzz_campaign(FuzzConfig(
        mutants=budget, seed=SEED, parallel=workers, coverage=True))
    assert blind.ok and par_cov.ok

    # the guidance experiment: pinned shape, deterministic on any machine
    gblind = run_fuzz_campaign(FuzzConfig(
        mutants=GUIDANCE_BUDGET, seed=SEED, parallel=GUIDANCE_SHARDS,
        round_size=GUIDANCE_ROUND))
    gcov = run_fuzz_campaign(FuzzConfig(
        mutants=GUIDANCE_BUDGET, seed=SEED, parallel=GUIDANCE_SHARDS,
        round_size=GUIDANCE_ROUND, coverage=True))
    blind_sigs = set(gblind.signatures)
    cov_sigs = set(gcov.signatures)

    payload = {
        "budget": budget,
        "seed": SEED,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "coverage_backend": default_backend(),
        "serial": {"mutants": budget,
                   "elapsed_seconds": round(serial_elapsed, 4),
                   "mutants_per_sec": round(serial_rate, 1)},
        "parallel_blind": bench_payload(blind),
        "parallel_coverage": bench_payload(par_cov),
        "blind_speedup": round(blind.mutants_per_sec / serial_rate, 3),
        "coverage_speedup": round(par_cov.mutants_per_sec / serial_rate, 3),
        "guidance": {
            "budget": GUIDANCE_BUDGET,
            "shards": GUIDANCE_SHARDS,
            "round_size": GUIDANCE_ROUND,
            "signatures_blind": sorted(blind_sigs),
            "signatures_coverage": sorted(cov_sigs),
            "signatures_coverage_only": sorted(cov_sigs - blind_sigs),
        },
    }
    path = results_dir / "BENCH_fuzz.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"serial {serial_rate:,.0f}/s | "
          f"blind x{payload['blind_speedup']} | "
          f"coverage x{payload['coverage_speedup']} "
          f"({payload['coverage_backend']}, {workers} workers) | "
          f"signatures {len(blind_sigs)} blind vs {len(cov_sigs)} guided "
          f"[recorded in {path}]")

    # guidance claim: strictly more unique signatures at equal budget+seed
    assert len(cov_sigs) > len(blind_sigs), payload["guidance"]
    assert cov_sigs > blind_sigs, payload["guidance"]  # superset, not a trade
    assert gcov.new_signatures  # bundling is exercised in tier-1 tests

    # throughput floors, where the hardware can express them
    cores = os.cpu_count() or 1
    if cores >= 2:
        # sharding must not be slower than one in-process shard
        assert payload["blind_speedup"] >= 0.9, payload
    if cores >= 4:
        # blind sharding parallelizes near-linearly (no coverage tax)
        assert payload["blind_speedup"] >= 2.5, payload
    if cores >= 4 and default_backend() == "monitoring":
        # the acceptance floor: guided throughput >= 5x one serial shard
        # needs real cores *and* the ~free 3.12 sys.monitoring backend
        # (settrace multiplies per-mutant cost by ~5x and would hide it)
        assert payload["coverage_speedup"] >= 5.0, payload

