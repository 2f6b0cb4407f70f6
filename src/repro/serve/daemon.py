"""The service daemon: a unix-socket front end over the worker pool.

``repro serve`` builds a :class:`~repro.serve.pool.WorkerPool` and hands
it to a :class:`ServeDaemon`; clients (:mod:`repro.serve.client`, the
``--serve`` CLI flags, the CI smoke job) connect per request, send one
JSON line, and read one back. Connection handling is a thread per
request — the pool below provides the isolation and backpressure (a
request blocks until a worker frees up), so the daemon itself stays a
thin, crash-tolerant adapter:

* a client that disconnects mid-request only loses its own response;
* a malformed line gets a structured error response, not a dropped
  connection or a daemon traceback;
* pool-level failures (kills, breaker, degradation) are translated into
  the same ``status`` taxonomy the CLI exits with, so remote and local
  runs triage identically.

Observability surface (this is where a *running* daemon stops being a
black box):

* the ``stats`` op answers a JSON snapshot (schema
  ``repro.serve-stats/1``): pool counters, kill taxonomy, breaker state,
  cache hit/miss/evict, queue depth, plus daemon-side uptime and per-op
  latency summaries;
* the ``metrics`` op answers the Prometheus text exposition of the
  daemon's registry, with pool counters folded idempotently on every
  scrape — two consecutive scrapes of an idle daemon are byte-identical
  (scrape ops themselves are deliberately *not* counted, and uptime
  lives only in ``stats``);
* ``--metrics-port`` starts a localhost HTTP listener serving
  ``GET /metrics`` and ``GET /stats`` for real scrapers;
* a request carrying a ``trace`` context gets daemon-side spans
  (``serve_op``, plus the pool's ``queue_wait``/``supervised_execute``)
  parented under the client's request span and returned in the
  response's ``spans`` — the cross-process trace propagation path.

Every pool-routed request is timed into ``repro_serve_op_seconds{op=…}``
regardless of tracing, so latency histograms are always scrapeable.
"""

from __future__ import annotations

import contextlib
import json
import os
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from ..obs.log import get_logger
from ..obs.metrics import SERVE_LATENCY_BUCKETS
from ..obs.spans import SpanContext, Tracer
from ..obs.telemetry import Telemetry
from ..wasm.errors import BreakerOpen, WorkerKilled, error_response
from . import wire
from .pool import WorkerPool

#: Schema tag on every ``stats`` response (bump on breaking change).
STATS_SCHEMA = "repro.serve-stats/1"


class ServeDaemon:
    """Accept loop + per-connection request handling over a unix socket."""

    def __init__(self, socket_path: str | Path, pool: WorkerPool,
                 telemetry=None, logger=None,
                 metrics_port: int | None = None):
        self.socket_path = str(socket_path)
        self.pool = pool
        # the scrape surface must exist even when the caller brought no
        # sink, so a bare daemon is never a black box
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.logger = logger if logger is not None else get_logger("repro.serve")
        self.metrics_port = metrics_port
        self._listener: socket.socket | None = None
        self._metrics_server: ThreadingHTTPServer | None = None
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._started_monotonic: float | None = None
        self._started_unix: float | None = None
        self._metrics_lock = threading.Lock()
        self._op_hists: dict[str, object] = {}
        self._op_counters: dict[tuple[str, str], object] = {}

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ServeDaemon":
        """Bind and listen.

        A pre-existing socket file is probed before it is touched: if a
        daemon still answers on it, starting here would silently steal its
        path (clients would reach whichever daemon bound last), so that is
        a :class:`~repro.wasm.errors.ServiceError`. Only a *stale* socket —
        one nothing accepts on, left by a killed daemon — is removed. A
        non-socket file at the path is never deleted.
        """
        path = Path(self.socket_path)
        if path.exists():
            self._remove_stale_socket(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(self.socket_path)
        listener.listen(64)
        listener.settimeout(0.25)
        self._listener = listener
        self._started_monotonic = time.monotonic()
        self._started_unix = time.time()
        if self.metrics_port is not None:
            self._start_metrics_server(self.metrics_port)
        self.logger.info("serve_started", socket=self.socket_path,
                         workers=self.pool.config.workers,
                         metrics_port=self.metrics_port)
        return self

    def _remove_stale_socket(self, path: Path) -> None:
        """Unlink ``path`` iff it is a socket nothing is accepting on."""
        import stat

        from ..wasm.errors import ServiceError
        if not stat.S_ISSOCK(path.lstat().st_mode):
            raise ServiceError(
                f"{path} exists and is not a socket; refusing to replace it")
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        probe.settimeout(1.0)
        try:
            probe.connect(str(path))
        except (ConnectionRefusedError, socket.timeout, OSError):
            # nothing answered: a stale file from a killed daemon
            self.logger.info("stale_socket_removed", socket=str(path))
            path.unlink(missing_ok=True)
        else:
            raise ServiceError(
                f"a daemon is already serving on {path}; stop it first "
                f"(or pick another --socket)")
        finally:
            probe.close()

    def stop(self) -> None:
        """Stop accepting, drain handler threads, close the pool.

        Idempotent: a signal handler and a ``finally`` block may both call
        it; only the first pass tears down and logs.
        """
        first = not self._stop.is_set()
        self._stop.set()
        listener, self._listener = self._listener, None
        if listener is not None:
            with contextlib.suppress(OSError):
                listener.close()
        server, self._metrics_server = self._metrics_server, None
        if server is not None:
            server.shutdown()
            server.server_close()
        for thread in self._threads:
            thread.join(timeout=5.0)
        self.pool.close()
        with contextlib.suppress(OSError):
            os.unlink(self.socket_path)
        if first:
            self.logger.info("serve_stopped", socket=self.socket_path)

    def serve_forever(self) -> None:
        """Run the accept loop until :meth:`stop` (or EOF via signal)."""
        assert self._listener is not None, "call start() first"
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed under us: shutting down
            thread = threading.Thread(target=self._handle_connection,
                                      args=(conn,), daemon=True,
                                      name="repro-serve-conn")
            thread.start()
            self._threads.append(thread)
            self._threads = [t for t in self._threads if t.is_alive()]

    # -- one connection --------------------------------------------------------

    def _handle_connection(self, conn: socket.socket) -> None:
        with contextlib.suppress(OSError, BrokenPipeError):
            with conn:
                conn.settimeout(600.0)
                with conn.makefile("rb") as reader:
                    line = wire.read_line(reader)
                if not line.strip():
                    return
                response = self._respond(line)
                conn.sendall(wire.dumps(response))

    def _respond(self, line: bytes) -> dict:
        try:
            request = wire.loads(line)
        except wire.WireError as exc:
            self.logger.warning("serve_bad_request", detail=str(exc))
            return {"ok": False, "status": 2,
                    "error": {"type": "WireError", "message": str(exc)}}
        kind = request.get("kind")
        if kind == "stats":
            return self._stats_response()
        if kind == "metrics":
            return self._metrics_response()
        if kind == "shutdown_daemon":
            # respond first; the stop happens off-thread so the client
            # gets its acknowledgement before the listener dies
            threading.Thread(target=self.stop, daemon=True).start()
            return {"ok": True, "stopping": True}
        return self._respond_pool(kind, request)

    def _respond_pool(self, kind, request: dict) -> dict:
        """Route one request into the pool: latency accounting + tracing."""
        tracer = None
        trace = request.pop("trace", None)
        if trace is not None:
            try:
                tracer = Tracer(context=SpanContext.from_dict(trace),
                                process="daemon")
            except (KeyError, TypeError):
                tracer = None
        op = kind if isinstance(kind, str) else "unknown"
        span = tracer.span("serve_op", op=op) if tracer is not None else None
        if span is not None:
            span.__enter__()
            # workers parent their spans under the daemon's serve_op span
            request["trace"] = tracer.current_context().as_dict()
        started = time.perf_counter()
        outcome = "ok"
        try:
            timeout = request.pop("request_timeout", None)
            response = self.pool.submit(request, timeout=timeout,
                                        tracer=tracer)
            if not response.get("ok", False):
                outcome = "error"
        except Exception as exc:
            outcome = ("breaker" if isinstance(exc, BreakerOpen)
                       else "killed" if isinstance(exc, WorkerKilled)
                       else "error")
            response = error_response(exc)
        finally:
            elapsed = time.perf_counter() - started
            if span is not None:
                span.__exit__(None, None, None)
            self._observe_op(op, outcome, elapsed)
        if tracer is not None:
            # worker spans already ride in response["spans"]; append ours
            response.setdefault("spans", []).extend(
                s.as_dict() for s in tracer.spans)
        return response

    # -- the scrape surface ------------------------------------------------------

    def _observe_op(self, op: str, outcome: str, elapsed: float) -> None:
        with self._metrics_lock:
            hist = self._op_hists.get(op)
            if hist is None:
                hist = self.telemetry.registry.histogram(
                    "repro_serve_op_seconds", labels={"op": op},
                    buckets=SERVE_LATENCY_BUCKETS,
                    help="daemon-side request latency per op")
                self._op_hists[op] = hist
            hist.observe(elapsed)
            counter = self._op_counters.get((op, outcome))
            if counter is None:
                counter = self.telemetry.registry.counter(
                    "repro_serve_op_total",
                    labels={"op": op, "outcome": outcome},
                    help="daemon requests per op and outcome")
                self._op_counters[(op, outcome)] = counter
            counter.inc()

    def uptime_seconds(self) -> float:
        if self._started_monotonic is None:
            return 0.0
        return time.monotonic() - self._started_monotonic

    def _stats_response(self) -> dict:
        # fold on every scrape (idempotent: counters are *set*), so the
        # surface never depends on a shutdown-time fold
        self.pool.fold_into_telemetry(self.telemetry)
        with self._metrics_lock:
            ops: dict[str, dict] = {}
            for op, hist in sorted(self._op_hists.items()):
                outcomes = {out: counter.value
                            for (hop, out), counter in
                            sorted(self._op_counters.items())
                            if hop == op}
                ops[op] = {
                    "count": hist.count,
                    "total_seconds": round(hist.sum, 6),
                    "mean_seconds": round(hist.mean, 6),
                    "p50_seconds": hist.quantile(0.5),
                    "p95_seconds": hist.quantile(0.95),
                    "outcomes": outcomes,
                }
        daemon = {
            "pid": os.getpid(),
            "socket": self.socket_path,
            "uptime_seconds": self.uptime_seconds(),
            "started_unix": self._started_unix,
            "ops": ops,
        }
        if self.metrics_port is not None:
            daemon["metrics_port"] = self.metrics_port
        return {"ok": True, "stats_schema": STATS_SCHEMA,
                "stats": self.pool.stats(), "daemon": daemon,
                "degraded": self.pool.degraded}

    def _metrics_response(self) -> dict:
        return {"ok": True, "metrics": self.render_metrics()}

    def render_metrics(self) -> str:
        """Prometheus text exposition of the daemon's registry.

        Pool counters are folded first (idempotently — they are *set*
        from the raw totals, never incremented at fold time), so every
        scrape sees current values and repeated scrapes of an idle
        daemon render byte-identical text.
        """
        self.pool.fold_into_telemetry(self.telemetry)
        with self._metrics_lock:
            return self.telemetry.snapshot().to_prometheus()

    # -- the HTTP listener (real scrapers) ----------------------------------------

    def _start_metrics_server(self, port: int) -> None:
        daemon = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 - http.server API
                path = self.path.split("?", 1)[0].rstrip("/") or "/"
                if path == "/metrics":
                    body = daemon.render_metrics().encode("utf-8")
                    ctype = "text/plain; version=0.0.4; charset=utf-8"
                elif path == "/stats":
                    body = (json.dumps(daemon._stats_response(), indent=2)
                            + "\n").encode("utf-8")
                    ctype = "application/json"
                else:
                    self.send_error(404, "try /metrics or /stats")
                    return
                self.send_response(200)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):  # the daemon has its own logger
                pass

        server = ThreadingHTTPServer(("127.0.0.1", port), Handler)
        server.daemon_threads = True
        self._metrics_server = server
        self.metrics_port = server.server_address[1]  # resolve port 0
        thread = threading.Thread(target=server.serve_forever, daemon=True,
                                  name="repro-serve-metrics")
        thread.start()
