"""WASI host-boundary costs: the disabled path must be (near-)free.

Two claims are pinned here:

1. **No-WASI modules pay only detection.** A module that does not import
   ``wasi_snapshot_preview1`` touches the WASI subsystem exactly once per
   run: the :func:`~repro.wasi.module_imports_wasi` scan that decides
   whether to build a host context at all. The interpreter loops are
   untouched. The scan is timed directly (timeit, best-of) and expressed
   as a fraction of the *fastest* Figure 9 kernel run on the default
   engine, timed by :func:`~repro.eval.timing.bench_engines` as in
   ``BENCH_engine.json`` — a deliberately pessimistic denominator.
   Floor: <= 2%.

2. **The armed fault plane is cheap at the boundary.** Running the
   ``wasi_io`` kernels with a seeded :class:`~repro.wasi.FaultPlane` at
   ``rate=0`` (every syscall consults the plane, nothing fires) stays
   within 1.5x of the unarmed run (geomean). Each armed run is paired
   with an unarmed run just before it
   (:func:`~repro.eval.timing.bench_pairs`), and a kernel's factor is the
   median of its pair ratios.

Results are recorded in ``benchmarks/results/BENCH_wasi.json``.
"""

from __future__ import annotations

import json
import statistics
import timeit
from functools import partial

from repro.eval import (POLYBENCH_FAST_SUBSET, bench_engines, bench_pairs,
                        polybench_workloads)
from repro.interp import Machine
from repro.interp.host import Linker
from repro.wasi import FaultPlane, WasiContext, module_imports_wasi
from repro.workloads.wasi_io import (SAMPLE_FILES, SAMPLE_STDIN,
                                     wasi_io_entry, wasi_io_module,
                                     wasi_io_names)

from conftest import full_run


def _detect_cost_seconds(modules) -> float:
    """Best-case per-call cost of the no-WASI detection scan. A timeit
    loop, not :func:`bench_pairs`: one span per scan would cost more than
    the scan."""
    n = 2_000 if full_run() else 500

    def scan():
        for module in modules:
            assert not module_imports_wasi(module)

    total = min(timeit.repeat(scan, number=n, repeat=5)) / n
    return total / len(modules)


def _wasi_run(name, contexts, faults=None):
    """A prepare for one run of a wasi_io kernel. The context is rebuilt
    per run (FS image and fault cursor are per-run state, as in
    production) and appended to ``contexts``."""
    module = wasi_io_module(name)
    entry, args = wasi_io_entry(name)

    def prepare():
        ctx = WasiContext(args=["bench"], stdin=SAMPLE_STDIN,
                          files=dict(SAMPLE_FILES), faults=faults)
        linker = Linker()
        ctx.register(linker)
        instance = Machine().instantiate(module, linker)
        ctx.bind_memory(instance)
        contexts.append(ctx)
        return partial(instance.invoke, entry, args)
    return prepare


def test_wasi_overhead(results_dir):
    repeats = 7 if full_run() else 5
    workloads = polybench_workloads(POLYBENCH_FAST_SUBSET)

    # (1) the disabled path: one detection scan per non-WASI run
    detect_s = _detect_cost_seconds([w.module() for w in workloads])
    fastest = min(b.seconds["default"]
                  for b in bench_engines(workloads, {}, repeats=3))
    disabled_overhead = detect_s / fastest

    # (2) the syscall path, unarmed vs armed-but-silent fault plane
    silent = FaultPlane(seed=1, rate=0.0)
    rows = []
    for name in wasi_io_names():
        unarmed = []
        pairs = bench_pairs({"unarmed": _wasi_run(name, unarmed),
                             "armed": _wasi_run(name, [], faults=silent)},
                            repeats, name="wasi_invoke",
                            attrs={"workload": name})
        off_s = min(pairs.samples["unarmed"])
        syscalls = unarmed[-1].total_syscalls
        rows.append({
            "name": name,
            "seconds": off_s,
            "armed_seconds": min(pairs.samples["armed"]),
            "armed_overhead": pairs.ratio("armed"),
            "syscalls": syscalls,
            "per_syscall_us": off_s / max(syscalls, 1) * 1e6,
        })

    payload = {
        "detect_ns": detect_s * 1e9,
        "fastest_plain_run_seconds": fastest,
        "disabled_overhead": disabled_overhead,
        "wasi_io": rows,
        "geomean_armed_overhead": statistics.geometric_mean(
            r["armed_overhead"] for r in rows),
    }
    path = results_dir / "BENCH_wasi.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    for r in rows:
        print(f"{r['name']:12s} {r['seconds']*1e3:7.3f} ms "
              f"armed={r['armed_overhead']:.3f}x "
              f"{r['syscalls']:3d} syscalls "
              f"({r['per_syscall_us']:.1f} us/syscall)")
    print(f"detection {payload['detect_ns']:.0f} ns/run; "
          f"disabled path {disabled_overhead:.5%} of fastest kernel; "
          f"geomean armed {payload['geomean_armed_overhead']:.3f}x "
          f"[recorded in {path}]")

    # the ISSUE floor: modules without a WASI import pay <= 2%
    assert disabled_overhead <= 0.02, payload
    # the armed-but-silent fault plane stays cheap at the boundary
    assert payload["geomean_armed_overhead"] <= 1.5, payload
