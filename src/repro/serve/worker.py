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
  Uninstrumented runs are **warm-started**: the worker instantiates a
  module once per (digest, limits), on the engine ``REPRO_PREDECODE``
  selects, snapshots the fresh instance, and restores the snapshot per
  request instead of re-instantiating (:mod:`repro.interp.snapshot`).
  Analysis runs always build a fresh session — analyses accumulate state
  by design.
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

import contextlib
import hashlib
import json
import os
import signal
import time
from collections import OrderedDict

from ..interp.snapshot import decode_values, restore_instance, snapshot_instance
from ..obs.spans import SpanContext, Tracer
from ..wasm.errors import WasmError, error_response

#: Warm instances kept per worker (LRU); each holds a session + snapshot.
WARM_CACHE_CAPACITY = 8


def _tspan(tracer: Tracer | None, name: str, **attrs):
    """A tracer span, or a no-op context when the request is untraced."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name, **attrs)


class RequestHandler:
    """Executes service requests; one per worker (or per degraded pool)."""

    def __init__(self, cache_dir: str | None = None,
                 allow_test_ops: bool = False):
        self.allow_test_ops = allow_test_ops
        self.cache = None
        if cache_dir is not None:
            from .cache import ArtifactCache
            self.cache = ArtifactCache(cache_dir)
        #: (module digest, limits json, engine flag) ->
        #: (session, printed sink, pristine snapshot)
        self._warm: OrderedDict[tuple, tuple] = OrderedDict()
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

    def _decode_cached(self, module_bytes: bytes, digest: str):
        """Load (decode + validate) once per module digest; decoded
        streams are reused too."""
        from ..wasm import load_module
        module = self._module_cache.get(digest)
        if module is None:
            module = load_module(module_bytes)
            self._module_cache[digest] = module
            if len(self._module_cache) > WARM_CACHE_CAPACITY:
                self._module_cache.popitem(last=False)
        else:
            self._module_cache.move_to_end(digest)
        return module

    def _handle_run(self, request: dict) -> dict:
        from ..core import AnalysisSession
        from ..interp import Machine, ResourceLimits
        from ..run import analysis_for, default_linker, run_response

        module_bytes: bytes = request["module"]
        digest = hashlib.sha256(module_bytes).hexdigest()
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
        with _tspan(tracer, "decode", cached=digest in self._module_cache):
            module = self._decode_cached(module_bytes, digest)
        analysis = analysis_for(analysis_name,
                                bool(request.get("instrument", False)))
        # only plain runs warm-start: analyses accumulate state, and a
        # WASI run's FS image, fault-plane cursor and syscall counters are
        # per-request state
        warm_key = None
        if analysis is None and wasi is None:
            warm_key = (digest, json.dumps(limits_dict, sort_keys=True))
        warm = warm_key in self._warm
        if warm:
            self._warm.move_to_end(warm_key)
            session, printed, base_snapshot = self._warm[warm_key]
            printed.clear()
            with _tspan(tracer, "warm_restore"):
                restore_instance(session.instance, base_snapshot)
        else:
            printed = []
            linker = default_linker(printed)
            if wasi is not None:
                wasi.register(linker)
            machine = Machine(limits=limits)
            with _tspan(tracer, "instantiate", analysis=analysis_name,
                        wasi=wasi is not None):
                session = AnalysisSession(
                    module, analysis, linker=linker, machine=machine,
                    on_analysis_error=request.get("on_analysis_error",
                                                  "raise"))
            base_snapshot = None
            if warm_key is not None:
                with _tspan(tracer, "snapshot"):
                    base_snapshot = snapshot_instance(session.instance)
                self._warm[warm_key] = (session, printed, base_snapshot)
                if len(self._warm) > WARM_CACHE_CAPACITY:
                    self._warm.popitem(last=False)
        if wasi is not None:
            wasi.bind_memory(session.instance)

        error = results = None
        try:
            with _tspan(tracer, "invoke", entry=entry, warm=warm):
                results = session.instance.invoke(entry, call_args)
        except WasmError as exc:
            error = exc
            # a failed run leaves arbitrary instance state; restore eagerly
            # so a later warm hit never resumes from a poisoned instance
            if base_snapshot is not None:
                restore_instance(session.instance, base_snapshot)
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
            with _tspan(tracer, "cache_lookup"):
                cached = self.cache.load(key)
            if cached is not None:
                payload, meta = cached
                return {"ok": True, "module": payload,
                        "hook_count": meta.get("hook_count", 0),
                        "cache_hit": True, "cache_evicted": 0,
                        "pid": os.getpid()}
        with _tspan(tracer, "instrument"):
            module = self._decode_cached(
                module_bytes, hashlib.sha256(module_bytes).hexdigest())
            result = instrument_module(module, groups=groups)
            raw = encode_module(result.module)
        if self.cache is not None:
            with _tspan(tracer, "cache_store"):
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
