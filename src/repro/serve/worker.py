"""The worker side of the service: request execution inside a subprocess.

``worker_main`` is the subprocess entry point: a recv/handle/send loop over
the supervisor's pipe. :class:`RequestHandler` does the actual work and is
deliberately process-agnostic — the pool reuses it in-process verbatim for
the degraded (unsupervised) fallback, so both paths execute requests
through exactly one code path.

Request kinds:

* ``ping`` — liveness handshake.
* ``run`` — load + instantiate + invoke through ``repro run``'s path
  (:mod:`repro.run`); the response is the dict ``repro run`` prints.
  The worker keeps its loaded (decoded and validated) modules in a
  digest-keyed LRU, whose functions keep their decoded streams; every
  run, plain, analysed or WASI, gets a fresh session, machine and
  instance on the engine ``REPRO_PREDECODE`` selects, so no guest state
  survives a request. A plain run whose module was already loaded is
  answered ``warm``.
* ``instrument`` — load + instrument + encode through the
  content-addressed :class:`~repro.serve.cache.ArtifactCache`.
* ``fuzz_shard`` — one fuzz-campaign shard
  (:func:`repro.eval.fuzz._shard_worker`) so supervised campaigns get
  crash isolation per shard.
* ``__test__`` — deterministic fault injection (hang / alloc / exit /
  flaky / sleep / raise), only honored when the supervisor was configured
  with ``allow_test_ops``.

Every guest failure — traps, resource exhaustion, malformed or invalid
modules, analysis faults — is caught and answered as an ordinary error
response carrying the CLI's exit-status taxonomy. Only genuinely abnormal
process death reaches the supervisor as a kill.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from collections import OrderedDict

from ..interp.snapshot import decode_values
from ..obs.spans import SpanContext, Tracer
from ..obs.telemetry import maybe_span
from ..wasm.errors import WasmError, error_response

#: Loaded modules kept per worker (LRU by digest).
MODULE_CACHE_CAPACITY = 8


class RequestHandler:
    """Executes service requests; one per worker (or per degraded pool)."""

    def __init__(self, cache_dir: str | None = None,
                 allow_test_ops: bool = False):
        self.allow_test_ops = allow_test_ops
        self.cache = None
        if cache_dir is not None:
            from .cache import ArtifactCache
            self.cache = ArtifactCache(cache_dir)
        self._module_cache: OrderedDict[str, object] = OrderedDict()
        self._tracer: Tracer | None = None  # per-request, set by handle()

    # -- dispatch ------------------------------------------------------------

    def handle(self, request: dict) -> dict:
        kind = request.get("kind")
        # continue the caller's trace; pings stay untraced (nothing inside
        # a ping is worth a span, and it is the latency-floor benchmark op)
        trace = request.pop("trace", None)
        tracer = None
        if trace is not None and kind != "ping":
            try:
                tracer = Tracer(context=SpanContext.from_dict(trace),
                                process="worker")
            except (KeyError, TypeError):
                tracer = None
        self._tracer = tracer
        try:
            if tracer is not None:
                with tracer.span("worker_handle", op=str(kind),
                                 pid=os.getpid()):
                    response = self._dispatch(kind, request)
            else:
                response = self._dispatch(kind, request)
        except Exception as exc:  # guest error or escape: report, never die
            response = error_response(exc)
        finally:
            self._tracer = None
        if tracer is not None and isinstance(response, dict):
            response.setdefault("spans", []).extend(
                span.as_dict() for span in tracer.spans)
        return response

    def _dispatch(self, kind: str | None, request: dict) -> dict:
        if kind == "ping":
            return {"ok": True, "pid": os.getpid()}
        if kind == "run":
            return self._handle_run(request)
        if kind == "instrument":
            return self._handle_instrument(request)
        if kind == "fuzz_shard":
            return self._handle_fuzz_shard(request)
        if kind == "__test__":
            return self._handle_test_op(request)
        return {"ok": False, "status": 2,
                "error": {"type": "UsageError",
                          "message": f"unknown request kind {kind!r}"}}

    # -- run ------------------------------------------------------------------

    def _decode_cached(self, module_bytes: bytes) -> tuple[object, bool]:
        """The module loaded (decoded and validated) from ``module_bytes``,
        and whether this worker had loaded it already; a cached module's
        functions keep their decoded streams."""
        from ..wasm import load_module
        digest = hashlib.sha256(module_bytes).hexdigest()
        module = self._module_cache.get(digest)
        if module is not None:
            self._module_cache.move_to_end(digest)
            return module, True
        module = load_module(module_bytes, self._tracer)
        self._module_cache[digest] = module
        if len(self._module_cache) > MODULE_CACHE_CAPACITY:
            self._module_cache.popitem(last=False)
        return module, False

    def _handle_run(self, request: dict) -> dict:
        from ..core import AnalysisSession
        from ..interp import ResourceLimits
        from ..run import analysis_for, default_linker, run_response

        entry: str = request["entry"]
        call_args = decode_values(request.get("args", []))
        analysis_name = request.get("analysis", "none")
        limits_dict = request.get("limits")
        limits = ResourceLimits(**limits_dict) if limits_dict else None
        wasi = None
        if request.get("wasi") is not None:
            from ..wasi import WasiContext
            wasi = WasiContext.from_config(request["wasi"], limits=limits)

        tracer = self._tracer
        module, loaded = self._decode_cached(request["module"])
        analysis = analysis_for(analysis_name,
                                bool(request.get("instrument", False)))
        # a plain run of a loaded module skipped decode, validation and
        # predecode; analysed and WASI runs always have per-request work
        warm = loaded and analysis is None and wasi is None
        printed: list = []
        linker = default_linker(printed)
        if wasi is not None:
            wasi.register(linker)
        with maybe_span(tracer, "instantiate", analysis=analysis_name,
                        wasi=wasi is not None):
            session = AnalysisSession(
                module, analysis, linker=linker, limits=limits,
                on_analysis_error=request.get("on_analysis_error", "raise"))
        if wasi is not None:
            wasi.bind_memory(session.instance)

        error = results = None
        try:
            with maybe_span(tracer, "invoke", entry=entry, warm=warm):
                results = session.instance.invoke(entry, call_args)
        except WasmError as exc:
            error = exc
        response = run_response(session, error, results, printed, wasi)
        response["warm"] = warm
        response["pid"] = os.getpid()
        return response

    # -- instrument ------------------------------------------------------------

    def _handle_instrument(self, request: dict) -> dict:
        from ..core import ALL_GROUPS, instrument_module
        from ..wasm import encode_module
        from .cache import artifact_key

        module_bytes: bytes = request["module"]
        groups = request.get("groups")
        if groups is not None:
            groups = frozenset(groups)
            unknown = groups - ALL_GROUPS
            if unknown:
                return {"ok": False, "status": 2,
                        "error": {"type": "UsageError",
                                  "message": "unknown hooks: "
                                             + ", ".join(sorted(unknown))}}
        tracer = self._tracer
        key = artifact_key(module_bytes, groups, {"op": "instrument"})
        evicted_before = self.cache.corrupt if self.cache is not None else 0
        if self.cache is not None:
            with maybe_span(tracer, "cache_lookup"):
                cached = self.cache.load(key)
            if cached is not None:
                payload, meta = cached
                return {"ok": True, "module": payload,
                        "hook_count": meta.get("hook_count", 0),
                        "cache_hit": True, "cache_evicted": 0,
                        "pid": os.getpid()}
        with maybe_span(tracer, "instrument"):
            module, _ = self._decode_cached(module_bytes)
            result = instrument_module(module, groups=groups)
            raw = encode_module(result.module)
        if self.cache is not None:
            with maybe_span(tracer, "cache_store"):
                self.cache.store(key, raw,
                                 {"hook_count": result.hook_count,
                                  "original_size": len(module_bytes)})
        evicted = (self.cache.corrupt - evicted_before
                   if self.cache is not None else 0)
        return {"ok": True, "module": raw, "hook_count": result.hook_count,
                "cache_hit": False, "cache_evicted": evicted,
                "pid": os.getpid()}

    # -- fuzz shard -------------------------------------------------------------

    def _handle_fuzz_shard(self, request: dict) -> dict:
        from ..eval.fuzz import _shard_worker
        return {"ok": True, "shard": _shard_worker(request["payload"]),
                "pid": os.getpid()}

    # -- deterministic fault injection (tests / CI smoke only) ------------------

    def _handle_test_op(self, request: dict) -> dict:
        if not self.allow_test_ops:
            return {"ok": False, "status": 2,
                    "error": {"type": "UsageError",
                              "message": "__test__ ops are disabled "
                                         "(start with allow_test_ops)"}}
        mode = request.get("mode")
        if mode == "ok":
            return {"ok": True, "echo": request.get("echo"),
                    "pid": os.getpid()}
        if mode == "sleep":
            time.sleep(float(request.get("seconds", 0.5)))
            return {"ok": True, "pid": os.getpid()}
        if mode == "hang":  # pragma: no cover - killed by the watchdog
            while True:
                time.sleep(0.05)
        if mode == "alloc":  # pragma: no cover - killed by the watchdog
            hoard = []
            chunk = 8 * 1024 * 1024
            while True:
                hoard.append(os.urandom(chunk))  # touched pages: real RSS
                time.sleep(0.005)
        if mode == "exit":  # pragma: no cover - abrupt death
            os._exit(int(request.get("code", 9)))
        if mode == "flaky":
            # dies abruptly until its marker file exists: one crash, then ok
            marker = request["marker"]
            if os.path.exists(marker):
                return {"ok": True, "recovered": True, "pid": os.getpid()}
            with open(marker, "w") as fh:
                fh.write("crashed once\n")
            os._exit(17)  # pragma: no cover - abrupt death
        if mode == "raise":
            raise RuntimeError(request.get("message", "injected failure"))
        return {"ok": False, "status": 2,
                "error": {"type": "UsageError",
                          "message": f"unknown __test__ mode {mode!r}"}}


def worker_main(conn, init: dict) -> None:
    """Subprocess entry point: serve requests off the pipe until told to stop.

    SIGINT is ignored — a Ctrl-C at the daemon's terminal must drain
    through the supervisor's shutdown path, not kill workers mid-request.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (OSError, ValueError):  # pragma: no cover - non-main thread
        pass
    handler = RequestHandler(cache_dir=init.get("cache_dir"),
                             allow_test_ops=bool(init.get("allow_test_ops")))
    try:
        conn.send({"ready": True, "pid": os.getpid()})
    except (OSError, BrokenPipeError):  # pragma: no cover - parent gone
        return
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if not isinstance(request, dict) or request.get("kind") == "shutdown":
            return
        try:
            response = handler.handle(request)
        except BaseException as exc:  # the loop itself must never die
            response = error_response(exc)
        try:
            conn.send(response)
        except (OSError, BrokenPipeError):  # pragma: no cover - parent gone
            return
