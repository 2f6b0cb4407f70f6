"""The supervised worker pool: scheduling, retries, breaker, degradation.

Sits between the daemon (or any in-process caller) and the per-worker
supervisors:

* **Crash isolation.** Every request exclusively owns one worker for its
  duration, so a SIGKILLed worker can never take another in-flight
  request with it. Killed slots are respawned in the background with
  exponential backoff + jitter while the remaining workers keep serving.
* **Retry policy.** A request whose worker *crashed* is retried on a
  fresh worker (``max_retries``); timeout and OOM kills are not retried —
  they deterministically burn their budget again.
* **Circuit breaker.** Kills are counted per input digest; an input that
  kills workers ``breaker_threshold`` times is quarantined for the pool's
  lifetime and refused fail-fast with
  :class:`~repro.wasm.errors.BreakerOpen`.
* **Crash bundles, not stack traces.** When configured with a
  ``crash_dir``, every kill writes a replayable service crash bundle
  (``kind: service`` — ``repro replay`` re-runs it one-shot supervised
  and checks the kill class reproduces).
* **Graceful degradation.** If no worker can be spawned (or the pool is
  configured with zero workers), the pool transparently falls back to
  in-process execution through the same :class:`RequestHandler` — with
  supervision disabled-but-reported: responses carry
  ``supervised: false`` and telemetry records the reason.
* **Structured logging.** Every lifecycle event (kill, breaker trip,
  degradation, respawn failure) goes through a
  :class:`~repro.obs.log.StructuredLogger` — the module default when none
  is injected — so a bare pool with no telemetry sink still records its
  own kills, and the logger's flight-recorder tail is dumped into every
  service crash bundle.

All public methods are thread-safe; the daemon serves each connection
from its own thread directly into :meth:`submit`.
"""

from __future__ import annotations

import hashlib
import queue
import threading
import time

from ..obs.log import get_logger
from ..wasm.errors import BreakerOpen, WorkerKilled
from .supervisor import (KillReport, ServeConfig, WorkerSupervisor,
                         rss_monitoring_available)

#: Log level per pool event kind (everything else logs at ``info``).
_EVENT_LEVELS = {
    "serve_worker_killed": "warning",
    "serve_breaker_open": "warning",
    "serve_degraded": "error",
    "serve_respawn_failed": "warning",
    "serve_worker_slot_abandoned": "error",
    "serve_rss_monitoring_unavailable": "warning",
}


class WorkerPool:
    """Routes requests onto supervised workers (or the degraded fallback)."""

    def __init__(self, config: ServeConfig | None = None, telemetry=None,
                 logger=None):
        self.config = config if config is not None else ServeConfig()
        self.telemetry = telemetry
        self.logger = logger if logger is not None else get_logger("repro.serve")
        self._free: queue.Queue = queue.Queue()
        self._lock = threading.Lock()
        self._next_worker_id = 0
        self._closed = False
        self.degraded = False
        self.degraded_reason: str | None = None
        self._handler = None  # the in-process degraded executor
        #: input digest -> kill count (breaker accounting)
        self._kill_counts: dict[str, int] = {}
        self._quarantined: set[str] = set()
        # aggregate counters (folded into telemetry on demand)
        self.requests_total = 0
        self.retries_total = 0
        self.worker_restarts = 0
        self.kills: dict[str, int] = {"timeout": 0, "oom": 0, "crash": 0}
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0
        self.warm_hits = 0
        self.workers_spawned = 0
        self.bundles: list[str] = []
        self._workers_live = 0
        self._waiting = 0  # requests currently blocked on a free worker

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "WorkerPool":
        """Spawn the configured workers; degrade (don't fail) when none can."""
        if self.config.workers < 1:
            self._enter_degraded("configured with zero workers")
            return self
        spawned = 0
        first_error: Exception | None = None
        for _ in range(self.config.workers):
            try:
                self._free.put(self._spawn_worker())
                spawned += 1
            except Exception as exc:
                first_error = first_error or exc
        self._workers_live = spawned
        if spawned == 0:
            self._enter_degraded(
                f"worker pool failed to start: {first_error}")
        elif not rss_monitoring_available() and self.config.rss_limit_mb:
            self._event("serve_rss_monitoring_unavailable",
                        detail="no /proc; RSS ceiling not enforced")
        return self

    def _spawn_worker(self) -> WorkerSupervisor:
        with self._lock:
            worker_id = self._next_worker_id
            self._next_worker_id += 1
        supervisor = WorkerSupervisor(worker_id, self.config)
        supervisor.start()
        with self._lock:
            self.workers_spawned += 1
        return supervisor

    def _enter_degraded(self, reason: str) -> None:
        from .worker import RequestHandler
        self.degraded = True
        self.degraded_reason = reason
        self._handler = RequestHandler(
            cache_dir=self.config.cache_dir,
            allow_test_ops=self.config.allow_test_ops)
        self._event("serve_degraded", reason=reason)

    def close(self) -> None:
        """Stop every worker. Safe to call more than once."""
        self._closed = True
        while True:
            try:
                supervisor = self._free.get_nowait()
            except queue.Empty:
                break
            supervisor.shutdown()

    # -- the request path ------------------------------------------------------

    @staticmethod
    def request_digest(request: dict) -> str | None:
        """The breaker key: sha256 of the module bytes (or the payload's
        repr for module-less requests like fuzz shards / test ops)."""
        module = request.get("module")
        if isinstance(module, (bytes, bytearray)):
            return hashlib.sha256(bytes(module)).hexdigest()
        if request.get("kind") == "__test__":
            basis = repr(sorted((k, v) for k, v in request.items()
                                if isinstance(v, (str, int, float, bool))))
            return hashlib.sha256(basis.encode("utf-8")).hexdigest()
        return None

    def submit(self, request: dict, timeout: float | None = None,
               tracer=None) -> dict:
        """Execute one request; returns the worker's response dict.

        Raises :class:`BreakerOpen` for quarantined inputs and
        :class:`WorkerKilled` (carrying ``kill_class`` and the bundle path
        when one was written) when supervision had to kill the request.
        ``tracer`` (optional) records queue-wait and supervised-execute
        spans for the cross-process trace; when ``None`` the request path
        is exactly as before.
        """
        if self._closed:
            raise WorkerKilled("pool is closed", kill_class="crash")
        digest = self.request_digest(request)
        with self._lock:
            self.requests_total += 1
            if digest is not None and digest in self._quarantined:
                raise BreakerOpen(
                    f"input {digest[:12]}… is quarantined: it killed a "
                    f"worker {self._kill_counts.get(digest, 0)} times")
        if self.degraded:
            response = self._handler.handle(request)
            response["supervised"] = False
            self._fold_response(response)
            return response

        attempts = 0
        while True:
            waited_from = tracer.clock() if tracer is not None else 0.0
            with self._lock:
                self._waiting += 1
            try:
                supervisor = self._acquire()
            finally:
                with self._lock:
                    self._waiting -= 1
            if tracer is not None:
                now = tracer.clock()
                tracer.record("queue_wait", waited_from, now - waited_from)
                executed_from = now
            outcome = supervisor.submit(
                request, timeout=timeout,
                rss_limit_mb=request.get("rss_limit_mb", ...))
            if tracer is not None:
                tracer.record("supervised_execute", executed_from,
                              tracer.clock() - executed_from,
                              worker=supervisor.worker_id, attempt=attempts,
                              killed=isinstance(outcome, KillReport))
            if not isinstance(outcome, KillReport):
                self._release(supervisor)
                outcome["supervised"] = True
                self._fold_response(outcome)
                return outcome
            bundle = self._record_kill(request, digest, outcome,
                                       timeout=timeout)
            self._respawn_async()
            if (outcome.kill_class == "crash"
                    and attempts < self.config.max_retries
                    and (digest is None or digest not in self._quarantined)):
                attempts += 1
                with self._lock:
                    self.retries_total += 1
                continue
            error = WorkerKilled(outcome.describe(),
                                 kill_class=outcome.kill_class)
            error.bundle = bundle
            error.report = outcome
            raise error

    def _acquire(self) -> WorkerSupervisor:
        """Take a free worker, waiting while all are busy or respawning."""
        while True:
            try:
                supervisor = self._free.get(timeout=1.0)
            except queue.Empty:
                with self._lock:
                    alive = self._workers_live
                if alive <= 0 and not self.degraded:
                    self._enter_degraded(
                        "every worker slot was lost and could not respawn")
                if self.degraded:
                    raise WorkerKilled(
                        "no workers available (pool degraded mid-request)",
                        kill_class="crash")
                continue
            if supervisor.alive:
                return supervisor
            with self._lock:
                self._workers_live -= 1
            self._respawn_async()

    def _release(self, supervisor: WorkerSupervisor) -> None:
        recycle_after = self.config.recycle_after
        if (recycle_after is not None
                and supervisor.requests_served >= recycle_after):
            supervisor.shutdown()
            with self._lock:
                self._workers_live -= 1
            self._respawn_async()
            return
        self._free.put(supervisor)

    # -- kills, bundles, breaker ----------------------------------------------

    def _record_kill(self, request: dict, digest: str | None,
                     report: KillReport,
                     timeout: float | None = None) -> str | None:
        with self._lock:
            self._workers_live -= 1
            self.kills[report.kill_class] = (
                self.kills.get(report.kill_class, 0) + 1)
            if digest is not None:
                count = self._kill_counts.get(digest, 0) + 1
                self._kill_counts[digest] = count
                if count >= self.config.breaker_threshold:
                    self._quarantined.add(digest)
        self._event("serve_worker_killed", kill_class=report.kill_class,
                    detail=report.detail, digest=digest and digest[:12],
                    elapsed=round(report.elapsed, 3))
        if digest is not None and digest in self._quarantined:
            self._event("serve_breaker_open", digest=digest[:12])
        bundle = self._write_service_bundle(request, digest, report,
                                            timeout=timeout)
        if bundle is not None:
            with self._lock:
                self.bundles.append(bundle)
        return bundle

    def _write_service_bundle(self, request: dict, digest: str | None,
                              report: KillReport,
                              timeout: float | None = None) -> str | None:
        """Persist a killed request as a replayable ``kind: service`` bundle."""
        if self.config.crash_dir is None:
            return None
        module = request.get("module")
        if not isinstance(module, (bytes, bytearray)):
            return None
        from pathlib import Path

        from ..interp.replay import write_crash_bundle
        sanitized = {key: value for key, value in request.items()
                     if key != "module"
                     and isinstance(value, (str, int, float, bool, list,
                                            dict, type(None)))}
        manifest = {
            "kind": "service",
            "error": {"type": "WorkerKilled", "message": report.describe(),
                      "kill_class": report.kill_class},
            "service": {
                "kill_class": report.kill_class,
                "detail": report.detail,
                "elapsed": round(report.elapsed, 4),
                "rss_mb": report.rss_mb,
                "request": sanitized,
                "request_timeout": (timeout if timeout is not None
                                    else self.config.request_timeout),
                "rss_limit_mb": self.config.rss_limit_mb,
            },
        }
        name = f"{(digest or 'request')[:12]}-{report.kill_class}"
        target = Path(self.config.crash_dir) / name
        flight = self.logger.tail() if self.logger is not None else None
        try:
            write_crash_bundle(target, bytes(module), manifest, flight=flight)
        except OSError:
            return None
        return str(target)

    # -- respawn ----------------------------------------------------------------

    def _respawn_async(self) -> None:
        if self._closed:
            return
        thread = threading.Thread(target=self._respawn, daemon=True,
                                  name="repro-serve-respawn")
        thread.start()

    def _respawn(self) -> None:
        config = self.config
        for attempt in range(config.max_respawn_attempts):
            if self._closed:
                return
            time.sleep(config.backoff_delay(attempt))
            try:
                supervisor = self._spawn_worker()
            except Exception as exc:
                self._event("serve_respawn_failed", attempt=attempt,
                            detail=str(exc))
                continue
            with self._lock:
                self.worker_restarts += 1
                self._workers_live += 1
            self._free.put(supervisor)
            return
        self._event("serve_worker_slot_abandoned",
                    attempts=config.max_respawn_attempts)

    # -- stats & telemetry -------------------------------------------------------

    def _fold_response(self, response: dict) -> None:
        with self._lock:
            if response.get("cache_hit") is True:
                self.cache_hits += 1
            elif response.get("cache_hit") is False:
                self.cache_misses += 1
            if response.get("warm"):
                self.warm_hits += 1
            evicted = response.get("cache_evicted")
            if evicted:
                self.cache_evictions += int(evicted)

    def _event(self, kind: str, **fields) -> None:
        if self.telemetry is not None:
            self.telemetry.event(kind, **fields)
        if self.logger is not None:
            self.logger.log(_EVENT_LEVELS.get(kind, "info"), kind, **fields)

    def stats(self) -> dict:
        with self._lock:
            return {
                "requests_total": self.requests_total,
                "retries_total": self.retries_total,
                "worker_restarts": self.worker_restarts,
                "workers_live": self._workers_live,
                "workers_spawned": self.workers_spawned,
                "workers_idle": self._free.qsize(),
                "queue_depth": self._waiting,
                "kills": dict(self.kills),
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "cache_evictions": self.cache_evictions,
                "warm_hits": self.warm_hits,
                "breaker_open": len(self._quarantined),
                "quarantined": sorted(d[:12] for d in self._quarantined),
                "degraded": self.degraded,
                "degraded_reason": self.degraded_reason,
                "bundles": list(self.bundles),
            }

    def fold_into_telemetry(self, telemetry=None) -> None:
        """Publish pool counters on a :class:`repro.obs.Telemetry` sink."""
        telemetry = telemetry if telemetry is not None else self.telemetry
        if telemetry is None:
            return
        stats = self.stats()
        registry = telemetry.registry
        registry.counter("repro_serve_requests_total",
                         help="requests accepted by the pool").set(
            stats["requests_total"])
        registry.counter("repro_serve_retries_total",
                         help="crash-class in-request retries").set(
            stats["retries_total"])
        registry.counter("repro_serve_worker_restarts_total",
                         help="workers respawned after a kill or recycle").set(
            stats["worker_restarts"])
        for kill_class, count in sorted(stats["kills"].items()):
            registry.counter("repro_serve_kills_total",
                             labels={"class": kill_class},
                             help="supervised kills per taxonomy class").set(
                count)
        registry.counter("repro_serve_workers_spawned_total",
                         help="worker subprocesses ever spawned").set(
            stats["workers_spawned"])
        registry.counter("repro_serve_cache_hits_total",
                         help="artifact-cache hits").set(stats["cache_hits"])
        registry.counter("repro_serve_cache_misses_total",
                         help="artifact-cache misses").set(
            stats["cache_misses"])
        registry.counter("repro_serve_cache_evictions_total",
                         help="corrupt artifact-cache entries evicted").set(
            stats["cache_evictions"])
        registry.counter("repro_serve_warm_hits_total",
                         help="plain runs of a module the worker had "
                              "already loaded").set(stats["warm_hits"])
        registry.gauge("repro_serve_workers_live",
                       help="worker subprocesses currently alive").set(
            stats["workers_live"])
        registry.gauge("repro_serve_queue_depth",
                       help="requests waiting for a free worker").set(
            stats["queue_depth"])
        registry.gauge("repro_serve_breaker_open",
                       help="inputs currently quarantined").set(
            stats["breaker_open"])
        registry.gauge("repro_serve_degraded",
                       help="1 when running unsupervised in-process").set(
            1 if stats["degraded"] else 0)
