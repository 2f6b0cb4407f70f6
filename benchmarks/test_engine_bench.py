"""Engine configurations against the default engine, from one table.

:func:`repro.eval.timing.bench_engines` times the Figure 9 PolyBench fast
subset on each configuration below, every run paired with a default-engine
run of its own; a ratio is the median of its pair ratios. Every floor is
asserted from that table:

1. **The quickened engine pays.** The legacy loop is at least 3x slower
   than the default engine (geomean), and at least 1.8x on every kernel.
2. **Disabled paths are (near-)free.** Without limits, telemetry or a
   recorder, the engines pay one hoisted ``x is not None`` test per
   guarded event (taken branches and calls; host calls for the recorder).
   The guard's unit cost, measured once by timeit differencing, times the
   events the enabled configuration counts per run gives an upper-bound
   estimate of the disabled-path cost. Floor: <= 2% on every kernel.
3. **Enabled paths are cheap.** Metering with budgets that never bind,
   counted telemetry and a live recorder each stay within 1.5x (geomean).
4. **The profiler pays for what it gives.** Its factor is recorded, not
   asserted.

Results are recorded in ``benchmarks/results/BENCH_engine.json``.
"""

from __future__ import annotations

import json
import statistics
import timeit

import pytest

from repro.eval import (POLYBENCH_FAST_SUBSET, bench_engines, engine_config,
                        polybench_workloads)
from repro.interp import (Machine, Recorder, Replayer, ResourceLimits,
                          replay_linker)
from repro.obs import Telemetry
from repro.wasm import FuelExhausted

from conftest import full_run

#: budgets chosen so no Fig. 9 workload ever hits them
GENEROUS = ResourceLimits(fuel=10**12, deadline_seconds=3600.0)


def _metered(module, linker):
    machine = Machine(predecode=True, limits=GENEROUS)
    return (machine.instantiate(module, linker),
            lambda: machine.resource_usage().fuel_spent)


def _telemetry(profile: bool):
    def factory(module, linker):
        tele = Telemetry(profile=profile)
        machine = Machine(predecode=True, telemetry=tele)
        return (machine.instantiate(module, linker),
                lambda: tele.n_calls + tele.n_branches + tele.n_mem_grow)
    return factory


def _recording(module, linker):
    recorder = Recorder()
    machine = Machine(predecode=True, replay=recorder)
    return (machine.instantiate(module, linker),
            lambda: sum(e["kind"] == "host_call" for e in recorder.entries))


CONFIGS = {
    "legacy": engine_config(predecode=False),
    "metered": _metered,
    "counted": _telemetry(profile=False),
    "profiled": _telemetry(profile=True),
    "recording": _recording,
}
#: configurations whose disabled path is one guard per counted event
GUARDED = ("metered", "counted", "recording")


def _guard_seconds() -> float:
    """Per-event cost of ``x is not None``: a timeit loop running the guard
    minus one running ``pass``, so timeit's own loop overhead cancels."""
    n = 2_000_000
    guarded = min(timeit.repeat("if x is not None: pass", globals={"x": None},
                                number=n, repeat=7)) / n
    empty = min(timeit.repeat("pass", number=n, repeat=7)) / n
    return max(guarded - empty, 0.0)


def test_engine_configurations(results_dir):
    repeats = 5 if full_run() else 3
    guard_s = _guard_seconds()
    benches = bench_engines(polybench_workloads(POLYBENCH_FAST_SUBSET),
                            CONFIGS, repeats=repeats)
    rows = [{
        "name": b.name,
        "seconds": b.seconds,
        "ratio": {c: b.ratio(c) for c in CONFIGS},
        "pair_ratios": b.ratios,
        "events": b.events,
        "disabled_overhead": {c: b.events[c] * guard_s / b.seconds["default"]
                              for c in GUARDED},
        "opcode_classes": b.opcode_classes,
    } for b in benches]
    geomean = {c: statistics.geometric_mean(r["ratio"][c] for r in rows)
               for c in CONFIGS}
    max_disabled = {c: max(r["disabled_overhead"][c] for r in rows)
                    for c in GUARDED}
    payload = {"repeats": repeats, "guard_ns": guard_s * 1e9,
               "workloads": rows, "geomean": geomean,
               "max_disabled_overhead": max_disabled}
    path = results_dir / "BENCH_engine.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    for r in rows:
        print(f"{r['name']:15s} default={r['seconds']['default'] * 1e3:.3f}ms "
              + " ".join(f"{c}={x:.2f}x" for c, x in r["ratio"].items()))
    print("geomean " + " ".join(f"{c}={x:.2f}x" for c, x in geomean.items()))
    print(f"guard {payload['guard_ns']:.2f} ns/event; max disabled "
          + " ".join(f"{c}~{x:.4%}" for c, x in max_disabled.items())
          + f" [recorded in {path}]")

    # (1) legacy over default: >= 3x geomean, >= 1.8x on every kernel
    assert geomean["legacy"] >= 3.0, geomean
    for r in rows:
        assert r["ratio"]["legacy"] >= 1.8, (r["name"], r["ratio"])
    for c in GUARDED:
        assert max_disabled[c] <= 0.02, max_disabled  # (2)
        assert geomean[c] <= 1.5, geomean  # (3)
    # (4) profiled is recorded above, deliberately unasserted


def test_enabled_paths_are_live():
    """Claim 3 is not vacuous: fuel binds and telemetry charges equal
    counts on both engines, and a recorded trisolv log replays."""
    trisolv = polybench_workloads(["trisolv"])[0]
    module = trisolv.module()

    def run(linker=None, **options):
        instance = Machine(**options).instantiate(
            module, linker or trisolv.linker())
        return instance.invoke(trisolv.entry, trisolv.args)

    counts = []
    for predecode in (True, False):
        with pytest.raises(FuelExhausted):
            run(predecode=predecode, limits=ResourceLimits(fuel=100))
        tele = Telemetry()
        run(predecode=predecode, telemetry=tele)
        counts.append((tele.n_calls, tele.n_branches))
    assert min(counts[0]) > 0 and counts[0] == counts[1], counts

    recorder = Recorder()
    results = run(replay=recorder)
    assert any(e["kind"] == "host_call" for e in recorder.entries)
    replayer = Replayer(recorder.entries)
    assert run(replay_linker(module), replay=replayer) == results
    replayer.finish()
