"""Service supervision, module-cache and observability costs (BENCH_serve.json).

Three A/Bs, each timed by :func:`repro.eval.timing.bench_pairs` (every B
run right after an A run of its own, a factor the median of the pair
ratios), pinned to one CPU with ``benchmarks/e2e/hostspeed.py``'s
``pinned``. The pools fork their workers inside that block, so both arms
of a pair run on the same CPU; unpinned, a ratio compares two CPUs.

* **Supervision overhead <= 5%**: one request through the same
  :class:`RequestHandler` code path, in-process (the degraded fallback)
  and under full supervision (subprocess + pipe + watchdog poll). The
  workload is auto-scaled until the in-process run takes ~0.7 s, so the
  claim is about steady-state traffic that amortizes the fixed
  per-request cost, not 1 ms pings.
* **Warm beats cold**: each cold run sends a fresh digest, a module the
  worker has not loaded (decode + validate + predecode + instantiate);
  the warm run after it sends the same module again, a module-cache hit
  that only instantiates. Both run on a fresh instance.
* **Enabled observability <= 2%**: logging, flight recorder, scrape
  surface and per-op histograms, on runs of untraced pings through the
  full socket stack. The baseline arm stubs out the per-op accounting,
  the one piece of observability on every request. Tracing is
  head-sampled (a client opts a request in), so the traced arm is
  recorded, not asserted.

Served throughput under a realistic mix is the e2e ``serve`` workload's.
"""

from __future__ import annotations

import json
import threading
from functools import partial
from itertools import count
from statistics import median

from e2e.hostspeed import pinned

from repro.eval import bench_pairs
from repro.obs import Telemetry
from repro.serve import ServeClient, ServeConfig, ServeDaemon, WorkerPool
from repro.wasm import encode_module, parse_wat

SPIN_WAT = """
(module
  (func (export "spin") (param i32) (result i32)
    (local i32 i32)
    block
      loop
        local.get 1
        local.get 0
        i32.ge_s
        br_if 1
        local.get 2
        local.get 1
        i32.add
        local.set 2
        local.get 1
        i32.const 1
        i32.add
        local.set 1
        br 0
      end
    end
    local.get 2)
)
"""

#: in-process baseline must run at least this long for the overhead
#: comparison to be about steady state, not fixed dispatch cost
MIN_BASELINE_SECONDS = 0.7

LATENCY_REPEATS = 12
OVERHEAD_REPEATS = 5
OBS_REPEATS = 9
PINGS_PER_RUN = 150
OBS_FLOOR_PCT = 2.0


def _spin_request(module_bytes: bytes, n: int) -> dict:
    return {"kind": "run", "module": module_bytes, "entry": "spin",
            "args": [n]}


def _submit(pool: WorkerPool, module_bytes: bytes, n: int):
    """A prepare: builds one spin request; the timed call submits it."""
    return lambda: partial(pool.submit, _spin_request(module_bytes, n))


def _supervision(module_bytes: bytes):
    iterations = 50_000
    in_process = WorkerPool(ServeConfig(workers=0)).start()  # degraded path
    supervised = WorkerPool(ServeConfig(workers=1, request_timeout=300.0,
                                        poll_interval=0.005)).start()
    try:
        while True:
            in_process.submit(_spin_request(module_bytes, iterations))
            scale = bench_pairs(
                {"in_process": _submit(in_process, module_bytes, iterations)},
                3, name="serve_request")
            if (median(scale.samples["in_process"]) >= MIN_BASELINE_SECONDS
                    or iterations >= 12_800_000):
                break
            iterations *= 2
        supervised.submit(_spin_request(module_bytes, iterations))  # warm up
        pairs = bench_pairs(
            {"in_process": _submit(in_process, module_bytes, iterations),
             "supervised": _submit(supervised, module_bytes, iterations)},
            OVERHEAD_REPEATS, name="serve_request")
    finally:
        in_process.close()
        supervised.close()
    return iterations, pairs


def _warm_start():
    # one worker, so every request lands on the same module cache
    pool = WorkerPool(ServeConfig(workers=1, request_timeout=120.0,
                                  poll_interval=0.005)).start()
    tags = count()
    modules, responses = [], []

    def cold():
        # a fresh digest per pair: a fresh load and instantiation, not a
        # module-cache hit from an earlier pair
        modules.append(encode_module(parse_wat(SPIN_WAT.replace(
            "(module",
            f'(module\n  (func (export "tag") (result i32) '
            f'i32.const {next(tags)})', 1))))
        return warm()

    def warm():
        request = _spin_request(modules[-1], 100)
        return lambda: responses.append(pool.submit(request))

    try:
        pairs = bench_pairs({"cold": cold, "warm": warm}, LATENCY_REPEATS,
                            name="serve_request")
    finally:
        pool.close()
    assert all(response["ok"] for response in responses), responses
    assert [response["warm"] for response in responses] == \
        [False, True] * LATENCY_REPEATS
    return pairs


class _BaselineDaemon(ServeDaemon):
    """The enabled daemon minus the always-on per-request accounting —
    the pre-observability dispatch path, for the baseline arm."""

    def _observe_op(self, op, outcome, elapsed):
        pass


def _serve(tmp_path, name: str, daemon_cls):
    pool = WorkerPool(ServeConfig(workers=1, request_timeout=120.0,
                                  poll_interval=0.005)).start()
    daemon = daemon_cls(tmp_path / f"{name}.sock", pool).start()
    thread = threading.Thread(target=daemon.serve_forever, daemon=True)
    thread.start()
    return daemon, thread


def _pings(client: ServeClient):
    """A prepare whose timed call sends one run of pings."""
    def run():
        for _ in range(PINGS_PER_RUN):
            client.ping()
    return lambda: run


def _observability(tmp_path):
    stacks = [_serve(tmp_path, "base", _BaselineDaemon),
              _serve(tmp_path, "obs", ServeDaemon)]
    try:
        base, obs = (daemon.socket_path for daemon, _ in stacks)
        clients = {"baseline": ServeClient(base),
                   "enabled": ServeClient(obs),
                   "traced": ServeClient(obs, telemetry=Telemetry())}
        # warm both stacks (socket path, worker, allocator)
        for client in clients.values():
            for _ in range(30):
                assert client.ping()["ok"]
        return bench_pairs({arm: _pings(client)
                            for arm, client in clients.items()},
                           OBS_REPEATS, name="serve_pings")
    finally:
        for daemon, thread in stacks:
            daemon.stop()
            thread.join(timeout=10.0)


def _block(pairs, **fields) -> dict:
    """One A/B's JSON block: each arm's median seconds, and each B arm's
    pair ratios and median ratio as a percentage change."""
    return {**fields,
            "median_seconds": {arm: round(median(runs), 6)
                               for arm, runs in pairs.samples.items()},
            "pair_ratios": {arm: [round(r, 4) for r in ratios]
                            for arm, ratios in pairs.ratios.items()},
            "change_pct": {arm: round(100 * (pairs.ratio(arm) - 1), 2)
                           for arm in pairs.ratios}}


def test_serve_bench(results_dir, tmp_path):
    module_bytes = encode_module(parse_wat(SPIN_WAT))
    with pinned(True):
        iterations, supervision = _supervision(module_bytes)
        warm_start = _warm_start()
        observability = _observability(tmp_path)

    payload = {
        "supervision": _block(supervision, workload_iterations=iterations,
                              repeats=OVERHEAD_REPEATS),
        "warm_start": _block(warm_start, repeats=LATENCY_REPEATS),
        "observability": _block(observability, repeats=OBS_REPEATS,
                                pings_per_run=PINGS_PER_RUN,
                                floor_pct=OBS_FLOOR_PCT),
    }
    path = results_dir / "BENCH_serve.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print({name: block["change_pct"] for name, block in payload.items()},
          f"[recorded in {path}]")

    # the transport is not pathological
    baseline = median(observability.samples["baseline"])
    assert PINGS_PER_RUN / baseline > 50, payload
    # a module-cache hit beats a fresh load
    assert median(warm_start.samples["warm"]) < \
        median(warm_start.samples["cold"]), payload
    # the acceptance criteria: happy-path supervision costs <= 5%, and
    # enabled observability <= 2% on untraced pings
    assert 100 * (supervision.ratio("supervised") - 1) <= 5.0, payload
    assert 100 * (observability.ratio("enabled") - 1) <= OBS_FLOOR_PCT, \
        payload
