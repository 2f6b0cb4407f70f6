"""Live service observability: cross-process traces, the stats/metrics
scrape surface, the flight recorder in crash bundles, and ``repro top``.

The contracts pinned here:

* a traced request produces **one** trace: client, daemon, and worker
  spans all share the client's trace id and parent-link into one tree,
  and the exported Chrome trace carries all three process names;
* ``stats`` (schema ``repro.serve-stats/1``) and ``metrics`` fold pool
  counters idempotently — two consecutive idle scrapes are identical
  (stats modulo uptime, metrics byte-for-byte);
* the Prometheus text round-trips through :func:`parse_prometheus` with
  per-op histogram series;
* a killed request's ``kind: service`` bundle ships a non-empty
  ``flight.jsonl`` whose tail includes the kill event, loadable via
  :func:`load_crash_bundle` and rendered by ``repro bundle``;
* ``repro top --once/--json`` works against a live daemon, and the
  frame renderer is a pure function of the stats payload;
* the optional ``--metrics-port`` HTTP listener serves ``/metrics`` and
  ``/stats`` on localhost.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.cli import _render_top, main
from repro.interp import load_crash_bundle
from repro.obs import StructuredLogger, Telemetry, parse_prometheus
from repro.serve import STATS_SCHEMA, ServeClient, ServeConfig, ServeDaemon, WorkerPool
from repro.wasm import WorkerKilled, encode_module, parse_wat

ADD_WAT = '(module (func (export "main") (result i32) i32.const 40 i32.const 2 i32.add))'
HANG_WAT = '(module (func (export "forever") loop br 0 end))'


def make_pool(tmp_path, **overrides) -> WorkerPool:
    defaults = dict(workers=1, request_timeout=10.0, poll_interval=0.01,
                    allow_test_ops=True, max_retries=1, breaker_threshold=2,
                    backoff_base=0.01, backoff_cap=0.05,
                    cache_dir=str(tmp_path / "cache"),
                    crash_dir=str(tmp_path / "crashes"))
    defaults.update(overrides)
    return WorkerPool(ServeConfig(**defaults)).start()


@pytest.fixture
def served(tmp_path):
    """A live daemon; yields (socket_path, daemon) and tears down."""
    pool = make_pool(tmp_path)
    socket_path = tmp_path / "serve.sock"
    daemon = ServeDaemon(socket_path, pool).start()
    thread = threading.Thread(target=daemon.serve_forever, daemon=True)
    thread.start()
    yield str(socket_path), daemon
    daemon.stop()
    thread.join(timeout=10.0)


@pytest.fixture(scope="module")
def add_bytes():
    return encode_module(parse_wat(ADD_WAT))


class TestCrossProcessTrace:
    def test_one_trace_id_across_three_processes(self, served, add_bytes):
        socket_path, _ = served
        telemetry = Telemetry()
        client = ServeClient(socket_path, telemetry=telemetry)
        response = client.run(add_bytes, "main")
        assert response["ok"]

        spans = telemetry.tracer.spans
        processes = {span.process for span in spans}
        assert processes == {"client", "daemon", "worker"}
        trace_ids = {span.trace_id for span in spans}
        assert len(trace_ids) == 1 and None not in trace_ids

        by_id = {span.span_id: span for span in spans}
        names = {span.name for span in spans}
        assert {"serve_request", "serve_op", "worker_handle",
                "queue_wait", "supervised_execute", "invoke"} <= names
        # parent links stitch into one tree rooted at the client span
        root = next(s for s in spans if s.name == "serve_request")
        assert root.parent_id is None
        for span in spans:
            if span is root:
                continue
            assert span.parent_id in by_id, (span.name, span.parent_id)
        # the worker's invoke hangs off worker_handle which hangs off serve_op
        handle = next(s for s in spans if s.name == "worker_handle")
        op = next(s for s in spans if s.name == "serve_op")
        assert handle.parent_id == op.span_id
        assert op.parent_id == root.span_id

    def test_worker_spans_per_run(self, served, add_bytes):
        """A first run loads the module (sibling ``decode`` and
        ``validate`` spans, as ``repro run`` records them); every run
        instantiates and invokes afresh."""
        socket_path, _ = served
        runs = []
        for _ in range(2):
            telemetry = Telemetry()
            client = ServeClient(socket_path, telemetry=telemetry)
            assert client.run(add_bytes, "main")["ok"]
            runs.append({span.name for span in telemetry.tracer.spans
                         if span.process == "worker"})
        first, second = runs
        stages = {"decode", "validate", "instantiate", "invoke"}
        assert stages <= first
        assert {"instantiate", "invoke"} <= second
        assert not second & {"decode", "validate"}
        assert not (first | second) & {"warm_restore", "snapshot"}

    def test_ping_stays_untraced_in_worker(self, served):
        socket_path, _ = served
        telemetry = Telemetry()
        client = ServeClient(socket_path, telemetry=telemetry)
        assert client.ping()["ok"]
        # client + daemon span the request; the worker hot path does not
        processes = {span.process for span in telemetry.tracer.spans}
        assert "worker" not in processes
        assert {"client", "daemon"} <= processes

    def test_untraced_client_gets_no_span_payload(self, served, add_bytes):
        socket_path, _ = served
        response = ServeClient(socket_path).run(add_bytes, "main")
        assert response["ok"]
        assert "spans" not in response

    def test_cli_trace_out_is_stitched(self, served, tmp_path, add_bytes,
                                       capsys):
        socket_path, _ = served
        module = tmp_path / "add.wasm"
        module.write_bytes(add_bytes)
        trace_out = tmp_path / "trace.json"
        assert main(["run", str(module), "main", "--serve", socket_path,
                     "--trace-out", str(trace_out)]) == 0
        capsys.readouterr()
        trace = json.loads(trace_out.read_text())
        events = trace["traceEvents"]
        names = {e["args"]["name"] for e in events if e.get("ph") == "M"}
        assert names == {"client", "daemon", "worker"}
        trace_ids = {e["args"].get("trace_id")
                     for e in events if e.get("ph") == "X"}
        assert len(trace_ids) == 1 and None not in trace_ids


class TestScrapeSurface:
    def test_stats_schema_and_daemon_block(self, served, add_bytes):
        socket_path, _ = served
        client = ServeClient(socket_path)
        assert client.run(add_bytes, "main")["ok"]
        payload = client.stats()
        assert payload["ok"]
        assert payload["stats_schema"] == STATS_SCHEMA == "repro.serve-stats/1"
        stats = payload["stats"]
        for key in ("requests_total", "kills", "cache_hits", "queue_depth",
                    "workers_live", "workers_idle", "workers_spawned",
                    "cache_evictions"):
            assert key in stats, key
        daemon_block = payload["daemon"]
        assert daemon_block["pid"] > 0
        assert daemon_block["socket"] == socket_path
        assert daemon_block["uptime_seconds"] > 0
        run_op = daemon_block["ops"]["run"]
        assert run_op["count"] == 1
        assert run_op["outcomes"] == {"ok": 1}
        assert run_op["p95_seconds"] >= run_op["p50_seconds"] >= 0
        assert run_op["mean_seconds"] > 0

    def test_double_scrape_is_idempotent(self, served, add_bytes):
        socket_path, _ = served
        client = ServeClient(socket_path)
        assert client.run(add_bytes, "main")["ok"]
        first = client.stats()
        second = client.stats()
        # scrapes do not count themselves: stats equal modulo uptime
        first["daemon"].pop("uptime_seconds")
        second["daemon"].pop("uptime_seconds")
        assert first == second
        assert client.metrics()["metrics"] == client.metrics()["metrics"]

    def test_prometheus_round_trip(self, served, add_bytes):
        socket_path, _ = served
        client = ServeClient(socket_path)
        for _ in range(3):
            assert client.run(add_bytes, "main")["ok"]
        text = client.metrics()["metrics"]
        samples = parse_prometheus(text)
        assert samples['repro_serve_op_seconds_count{op="run"}'] == 3
        assert samples['repro_serve_op_seconds_sum{op="run"}'] > 0
        assert samples['repro_serve_op_total{op="run",outcome="ok"}'] == 3
        assert samples['repro_serve_op_seconds_bucket{op="run",le="+Inf"}'] == 3
        assert samples["repro_serve_requests_total"] == 3
        assert samples["repro_serve_workers_live"] >= 1
        assert samples["repro_serve_queue_depth"] == 0
        assert samples["repro_serve_degraded"] == 0
        # cumulative buckets are monotonically non-decreasing
        buckets = [(float(k.split('le="')[1].rstrip('"}').replace(
            "+Inf", "inf")), v) for k, v in samples.items()
            if k.startswith('repro_serve_op_seconds_bucket{op="run"')]
        counts = [v for _, v in sorted(buckets)]
        assert counts == sorted(counts)

    def test_metrics_http_listener(self, tmp_path, add_bytes):
        pool = make_pool(tmp_path)
        socket_path = tmp_path / "serve.sock"
        daemon = ServeDaemon(socket_path, pool, metrics_port=0).start()
        thread = threading.Thread(target=daemon.serve_forever, daemon=True)
        thread.start()
        try:
            assert daemon.metrics_port not in (None, 0)
            assert ServeClient(socket_path).run(add_bytes, "main")["ok"]
            base = f"http://127.0.0.1:{daemon.metrics_port}"
            with urllib.request.urlopen(f"{base}/metrics", timeout=5) as http:
                assert "text/plain" in http.headers["Content-Type"]
                body = http.read().decode()
            assert parse_prometheus(body)["repro_serve_requests_total"] == 1
            with urllib.request.urlopen(f"{base}/stats", timeout=5) as http:
                payload = json.loads(http.read())
            assert payload["stats_schema"] == STATS_SCHEMA
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(f"{base}/nope", timeout=5)
        finally:
            daemon.stop()
            thread.join(timeout=10.0)


class TestFlightRecorderInBundles:
    def test_killed_bundle_ships_flight_log(self, tmp_path, capsys):
        logger = StructuredLogger("repro.serve", level="debug")
        pool = WorkerPool(ServeConfig(
            workers=1, request_timeout=10.0, poll_interval=0.01,
            max_retries=0, backoff_base=0.01, backoff_cap=0.05,
            crash_dir=str(tmp_path / "crashes")), logger=logger).start()
        hang = encode_module(parse_wat(HANG_WAT))
        try:
            with pytest.raises(WorkerKilled) as info:
                pool.submit({"kind": "run", "module": hang,
                             "entry": "forever", "args": []}, timeout=0.4)
        finally:
            pool.close()
        bundle_dir = info.value.bundle
        assert bundle_dir is not None
        flight_path = Path(bundle_dir) / "flight.jsonl"
        assert flight_path.exists()

        bundle = load_crash_bundle(bundle_dir)
        assert bundle.flight, "flight log must be non-empty"
        events = [entry["event"] for entry in bundle.flight]
        assert "serve_worker_killed" in events
        kill = next(e for e in bundle.flight
                    if e["event"] == "serve_worker_killed")
        assert kill["kill_class"] == "timeout"
        assert kill["level"] == "warning"

        # `repro bundle` renders the flight line
        assert main(["bundle", bundle_dir]) == 0
        out = capsys.readouterr().out
        assert "flight log:" in out
        assert "serve_worker_killed" in out

    def test_bare_pool_records_kills_via_default_logger(self, tmp_path):
        from repro.obs import get_logger
        pool = WorkerPool(ServeConfig(
            workers=1, request_timeout=10.0, poll_interval=0.01,
            max_retries=0, backoff_base=0.01, backoff_cap=0.05)).start()
        assert pool.logger is get_logger("repro.serve")
        hang = encode_module(parse_wat(HANG_WAT))
        try:
            with pytest.raises(WorkerKilled):
                pool.submit({"kind": "run", "module": hang,
                             "entry": "forever", "args": []}, timeout=0.4)
        finally:
            pool.close()
        events = [entry["event"] for entry in pool.logger.tail()]
        assert "serve_worker_killed" in events


class TestTopCLI:
    def test_once_json(self, served, add_bytes, capsys):
        socket_path, _ = served
        assert ServeClient(socket_path).run(add_bytes, "main")["ok"]
        assert main(["top", "--socket", socket_path, "--once", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats_schema"] == STATS_SCHEMA
        assert payload["stats"]["requests_total"] == 1
        assert "run" in payload["daemon"]["ops"]

    def test_once_renders_frame(self, served, add_bytes, capsys):
        socket_path, _ = served
        assert ServeClient(socket_path).run(add_bytes, "main")["ok"]
        assert main(["top", "--socket", socket_path, "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro serve" in out
        assert "requests: 1" in out
        assert "workers:" in out and "kills:" in out

    def test_unreachable_daemon_fails_cleanly(self, tmp_path, capsys):
        socket_path = str(tmp_path / "nope.sock")
        status = main(["top", "--socket", socket_path, "--once"])
        assert status == 1
        err = capsys.readouterr().err
        # one clean diagnostic line, not the client's transport retry report
        assert err == f"repro: daemon not running at {socket_path}\n"

    def test_render_top_is_pure(self, tmp_path, add_bytes):
        payload = {"stats": _real_stats(tmp_path, add_bytes),
                   "daemon": {"pid": 4242, "socket": "/tmp/x.sock",
                              "uptime_seconds": 3601.0,
                              "ops": {"run": {"count": 100,
                                              "mean_seconds": 0.002,
                                              "p50_seconds": 0.001,
                                              "p95_seconds": 0.01,
                                              "outcomes": {"ok": 98,
                                                           "killed": 2}}}}}
        frame = _render_top(payload)
        assert "pid 4242" in frame and "/tmp/x.sock" in frame
        assert "requests: 4   failed: 2   retried: 0" in frame
        assert "timeout=0  oom=0  crash=0" in frame
        assert "1 hits / 1 misses / 0 evictions   warm: 1" in frame
        assert "DEGRADED" in frame
        assert "killed=2 ok=98" in frame
        # a previous payload adds a req/s delta
        previous = {"stats": {"requests_total": 2}}
        assert "(1.0 req/s)" in _render_top(payload, previous, interval=2.0)

    def test_render_top_reads_only_reported_stats(self, tmp_path,
                                                  add_bytes):
        stats = _real_stats(tmp_path, add_bytes)
        read: set[str] = set()

        class Reads(dict):
            """A dict that records every key read from it."""

            def get(self, key, default=None):
                read.add(key)
                return super().get(key, default)

            def __getitem__(self, key):
                read.add(key)
                return super().__getitem__(key)

        _render_top({"stats": Reads(stats)}, {"stats": Reads(stats)})
        assert read and read <= set(stats), sorted(read - set(stats))


def _real_stats(tmp_path, add_bytes) -> dict:
    """``stats()`` of a real pool (degraded, in-process) after two plain
    runs and two instrumentations of one module."""
    pool = WorkerPool(ServeConfig(workers=0,
                                  cache_dir=str(tmp_path / "cache"))).start()
    try:
        for kind in ("run", "run", "instrument", "instrument"):
            assert pool.submit({"kind": kind, "module": add_bytes,
                                "entry": "main"})["ok"]
        return pool.stats()
    finally:
        pool.close()
