"""Command-line interface, mirroring the Wasabi tool's workflow.

The original Wasabi ships a CLI that takes a ``.wasm`` file and produces an
instrumented binary plus generated hook/metadata files. This module offers
the equivalent, plus the usual binary-toolkit conveniences:

  python -m repro instrument app.wasm -o app.instr.wasm --hooks call,return
  python -m repro validate app.wasm
  python -m repro objdump app.wasm            # WAT-style disassembly
  python -m repro compile kernel.mc -o kernel.wasm
  python -m repro run app.wasm main 1 2 --analysis mix
  python -m repro run app.wasm main --fuel 1000000 --timeout 5
  python -m repro run app.wasm main -v --metrics-out m.json --trace-out t.json
  python -m repro run app.wasm main --profile --metrics-out m.json
  python -m repro report m.json               # render a metrics artifact
  python -m repro stats app.wasm              # sizes, sections, instr mix
  python -m repro fuzz --mutants 5000         # fault-injection campaign
  python -m repro fuzz --save-failures DIR --reduce   # bundle + shrink escapes
  python -m repro fuzz --parallel 4 --coverage --corpus-dir corpus/
                                              # sharded, coverage-guided
  python -m repro run app.wasm main 1 2 --record bundle/    # record a run
  python -m repro run app.wasm main --crash-dir crashes/    # bundle on failure
  python -m repro bundle crashes/run         # inspect/verify a crash bundle
  python -m repro replay crashes/run         # reproduce it from the bundle

Service mode (the supervised instrumentation daemon, see repro.serve):

  python -m repro serve --socket /tmp/repro.sock --workers 4 \
      --cache-dir cache/ --crash-dir crashes/
  python -m repro run app.wasm main 1 2 --serve /tmp/repro.sock
  python -m repro instrument app.wasm --serve /tmp/repro.sock
  python -m repro fuzz --parallel 4 --supervise   # crash-isolated shards

Exit codes form a stable failure taxonomy (pinned by tests/test_cli.py):
0 success; 1 other failure (fuzz escapes, unresolved imports, …); 2 usage
error; 3 trap (unreachable, out-of-bounds, call-stack exhaustion); 4
resource exhaustion (fuel/deadline/memory budget); 5 malformed or invalid
module (decode/validate/encode); 6 analysis fault (a hook raised under the
``raise``/``abort`` policy); 7 replay divergence (a replayed run deviated
from its recorded log); 8 worker killed (the service supervisor SIGKILLed
the request: hard timeout, RSS ceiling, or worker crash); 9 breaker open
(the input is quarantined after repeatedly killing workers).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

from .core import (ALL_GROUPS, ERROR_POLICIES, AnalysisSession,
                   instrument_module)
from .interp import (Machine, Recorder, ResourceLimits, load_crash_bundle,
                     replay_linker, snapshot_instance, write_crash_bundle)
from .interp.limits import ResourceUsage
from .interp.snapshot import decode_values, encode_values
from .obs import Telemetry, maybe_span, render_report
from .run import ANALYSES, analysis_for, default_linker, run_response
from .wasm import (ReplayDivergence, ServiceError, ServiceUnavailable,
                   WasmError, WorkerKilled, decode_module, encode_module,
                   format_module, load_module, validate_module)
from .wasm.errors import (EXIT_ANALYSIS_FAULT, EXIT_BREAKER_OPEN,
                          EXIT_FAILURE, EXIT_MALFORMED, EXIT_OK,
                          EXIT_REPLAY_DIVERGENCE, EXIT_RESOURCE_EXHAUSTED,
                          EXIT_TRAP, EXIT_USAGE, EXIT_WORKER_KILLED,
                          error_info, exit_status)

# the exit taxonomy lives beside the error classes; the CLI re-exports it
__all__ = [
    "ANALYSES", "EXIT_ANALYSIS_FAULT", "EXIT_BREAKER_OPEN", "EXIT_FAILURE",
    "EXIT_MALFORMED", "EXIT_OK", "EXIT_REPLAY_DIVERGENCE",
    "EXIT_RESOURCE_EXHAUSTED", "EXIT_TRAP", "EXIT_USAGE",
    "EXIT_WORKER_KILLED", "build_parser", "exit_status", "main",
]


def _telemetry_from_args(args: argparse.Namespace) -> Telemetry | None:
    """Build the run's telemetry sink when any telemetry flag is set."""
    if not (getattr(args, "metrics_out", None) or getattr(args, "trace_out", None)
            or getattr(args, "profile", False)):
        return None
    return Telemetry(profile=bool(getattr(args, "profile", False)))


def _write_artifacts(telemetry: Telemetry | None, args: argparse.Namespace,
                     usage=None) -> None:
    """Write the --metrics-out / --trace-out artifacts, reporting on stderr."""
    if telemetry is None:
        return
    if args.metrics_out:
        path = telemetry.write_metrics(args.metrics_out, usage)
        print(f"repro: metrics written to {path}", file=sys.stderr)
    if args.trace_out:
        path = telemetry.write_trace(args.trace_out)
        print(f"repro: trace written to {path}", file=sys.stderr)


def cmd_instrument(args: argparse.Namespace) -> int:
    if getattr(args, "serve", None):
        return _instrument_via_service(args)
    telemetry = _telemetry_from_args(args)
    module = load_module(Path(args.input).read_bytes(), telemetry)
    groups = None
    if args.hooks != "all":
        groups = frozenset(args.hooks.split(","))
        unknown = groups - ALL_GROUPS
        if unknown:
            print(f"unknown hooks: {', '.join(sorted(unknown))}; "
                  f"available: {', '.join(sorted(ALL_GROUPS))}", file=sys.stderr)
            return 2
    with maybe_span(telemetry, "instrument"):
        result = instrument_module(module, groups=groups)
    with maybe_span(telemetry, "encode"):
        raw = encode_module(result.module)
    output = args.output or (Path(args.input).stem + ".instrumented.wasm")
    Path(output).write_bytes(raw)
    original_size = Path(args.input).stat().st_size
    print(f"instrumented {args.input} -> {output}")
    print(f"  hooks generated: {result.hook_count}")
    print(f"  size: {original_size} -> {len(raw)} bytes "
          f"({100 * (len(raw) - original_size) / original_size:+.1f}%)")
    if args.metadata:
        meta = {
            "hooks": [{"name": spec.name, "kind": spec.kind,
                       "params": [t.value for t in spec.wasm_params]}
                      for spec in result.info.hooks],
            "functions": [{"idx": f.idx, "name": f.name,
                           "type": str(f.type), "imported": f.imported}
                          for f in result.info.module_info.functions],
        }
        Path(args.metadata).write_text(json.dumps(meta, indent=2))
        print(f"  metadata: {args.metadata}")
    _write_artifacts(telemetry, args)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        load_module(Path(args.input).read_bytes())
    except WasmError as exc:
        print(f"{args.input}: INVALID: {exc}", file=sys.stderr)
        return exit_status(exc)  # EXIT_MALFORMED for decode/validate errors
    print(f"{args.input}: ok")
    return 0


def cmd_objdump(args: argparse.Namespace) -> int:
    print(format_module(decode_module(Path(args.input).read_bytes())))
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    """Compile MiniC (``.mc``) or WAT text (``.wat``) to a binary."""
    try:
        source = Path(args.input).read_text()
    except UnicodeDecodeError as exc:
        print(f"repro: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    if args.input.endswith(".wat") or source.lstrip().startswith("(module"):
        from .wasm import parse_wat
        module = parse_wat(source)
    else:
        from .minic import MiniCError, compile_source
        try:
            module = compile_source(source, Path(args.input).stem)
        except MiniCError as exc:
            # the status a WatError gets: one line, EXIT_FAILURE
            print(f"repro: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_FAILURE
    validate_module(module)
    output = args.output or (Path(args.input).stem + ".wasm")
    raw = encode_module(module)
    Path(output).write_bytes(raw)
    print(f"compiled {args.input} -> {output} ({len(raw)} bytes, "
          f"{module.instruction_count()} instructions)")
    return 0


def _limits_from_args(args: argparse.Namespace) -> ResourceLimits | None:
    limits = None
    wasi_bounds = {
        "max_open_fds": getattr(args, "max_open_fds", None),
        "max_file_bytes": getattr(args, "max_file_bytes", None),
        "max_fs_bytes": getattr(args, "max_fs_bytes", None),
        "max_syscalls": getattr(args, "max_syscalls", None),
    }
    if not (args.fuel is None and args.timeout is None
            and args.max_memory_pages is None
            and all(v is None for v in wasi_bounds.values())):
        limits = ResourceLimits(fuel=args.fuel, deadline_seconds=args.timeout,
                                max_memory_pages=args.max_memory_pages,
                                **wasi_bounds)
    if getattr(args, "verbose", False):
        # -v reports resource usage, which requires the meter even when no
        # bound is set; observe=True meters without bounding anything
        limits = (replace(limits, observe=True) if limits is not None
                  else ResourceLimits(observe=True))
    return limits


def _wasi_from_args(args: argparse.Namespace, module, limits, telemetry,
                    recorder):
    """Build the WASI host context for ``repro run``, or ``None``.

    Auto-enabled when the module imports from ``wasi_snapshot_preview1``;
    ``--wasi`` forces it on (e.g. a module that only *might* call in).
    Guest argv is the module path plus the entry arguments, so WASI
    programs observe the same invocation the CLI performed.
    """
    from .wasi import FaultPlane, WasiContext, module_imports_wasi
    if not getattr(args, "wasi", False) and not module_imports_wasi(module):
        return None
    stdin = b""
    if args.stdin_file is not None:
        stdin = Path(args.stdin_file).read_bytes()
    files: dict[str, bytes] = {}
    if args.fs_dir is not None:
        root = Path(args.fs_dir)
        if not root.is_dir():
            raise OSError(f"--fs-dir {root} is not a directory")
        files = {entry.name: entry.read_bytes()
                 for entry in sorted(root.iterdir()) if entry.is_file()}
    faults = None
    if args.wasi_fault_seed is not None:
        faults = FaultPlane(seed=args.wasi_fault_seed,
                            rate=args.wasi_fault_rate,
                            escalate_rate=args.wasi_escalate_rate)
    return WasiContext(args=[args.input, *args.args], stdin=stdin,
                       files=files, faults=faults, limits=limits,
                       telemetry=telemetry, replay=recorder)


def cmd_run(args: argparse.Namespace) -> int:
    try:
        call_args = [float(a) if "." in a else int(a) for a in args.args]
    except ValueError as exc:
        print(f"repro: entry arguments must be numbers: {exc}",
              file=sys.stderr)
        return EXIT_USAGE
    telemetry = _telemetry_from_args(args)
    if telemetry is not None and args.serve:
        # service route: open the trace now so the local decode and
        # validate spans join the same stitched client->daemon->worker tree
        telemetry.tracer.process = "client"
        telemetry.tracer.ensure_trace()
    module = load_module(Path(args.input).read_bytes(), telemetry)
    limits = _limits_from_args(args)
    if args.serve:
        wasi = _wasi_from_args(args, module, None, None, None)
        return _run_via_service(args, call_args, limits, telemetry,
                                wasi_cfg=wasi.config() if wasi else None)
    return _run(args, module, call_args, limits, telemetry)


def _run(args: argparse.Namespace, module, call_args,
         limits: ResourceLimits | None, telemetry: Telemetry | None) -> int:
    """Run locally through the shared run path, recording a bundle when
    asked, and print the outcome from its response dict."""
    printed: list = []
    linker = default_linker(printed)
    recorder = Recorder() if (args.record or args.crash_dir) else None
    wasi = _wasi_from_args(args, module, limits, telemetry, recorder)
    if wasi is not None:
        wasi.register(linker)
    session = AnalysisSession(
        module, analysis_for(args.analysis, args.instrument), linker=linker,
        limits=limits, on_analysis_error=args.on_analysis_error,
        telemetry=telemetry, replay=recorder)
    instance = session.instance
    if wasi is not None:
        wasi.bind_memory(instance)
    # the pre-invocation state snapshot anchoring a recorded bundle
    pre = snapshot_instance(instance) if recorder is not None else None
    error: WasmError | None = None
    result = None
    try:
        result = instance.invoke(args.entry, call_args)
    except WasmError as exc:
        error = exc
    usage = session.resource_usage()

    if recorder is not None:
        target = args.record or (args.crash_dir and error is not None
                                 and str(Path(args.crash_dir)
                                         / Path(args.input).stem))
        if target:
            manifest = {
                "kind": "invoke",
                "invocations": [{"export": args.entry,
                                 "args": encode_values(call_args)}],
                "engine": {"predecode": session.machine.predecode},
                "limits": asdict(limits) if limits is not None else None,
                "analysis": args.analysis,
                "instrument": bool(args.instrument),
                "on_analysis_error": args.on_analysis_error,
                # the raw error: replay must see a proc_exit(0) as well
                "error": error_info(error) if error is not None else None,
                "metrics": usage.as_dict(),
            }
            if wasi is not None:
                # the replay path rebuilds an equivalent context from this
                manifest["wasi"] = wasi.config()
            if error is None:
                manifest["results"] = encode_values(result)
            # post-invocation state, for the bit-identical replay check
            post = snapshot_instance(instance)
            manifest["post"] = {
                "memory_digest": (post.memory or {}).get("digest"),
                "globals": encode_values(post.globals_),
            }
            write_crash_bundle(target, Path(args.input).read_bytes(), manifest,
                               snapshot=pre, recorder=recorder)
            print(f"repro: crash bundle written to {target}", file=sys.stderr)

    status = _render_run(args, call_args,
                         run_response(session, error, result, printed, wasi))
    _write_artifacts(telemetry, args, usage)
    return status


def _run_via_service(args: argparse.Namespace, call_args,
                     limits: ResourceLimits | None,
                     telemetry: Telemetry | None = None,
                     wasi_cfg: dict | None = None) -> int:
    """Route ``repro run --serve SOCKET`` through the service daemon.

    With ``--trace-out``, the client's telemetry sink rides along: the
    request carries a trace context, the daemon and worker continue it,
    and the exported artifact is the stitched cross-process trace.
    """
    from .serve import ServeClient
    if args.record or args.crash_dir:
        print("repro: --record/--crash-dir cannot combine with --serve "
              "(the daemon owns bundling)", file=sys.stderr)
        return EXIT_USAGE
    client = ServeClient(args.serve, telemetry=telemetry)
    response = client.run(
        Path(args.input).read_bytes(), args.entry, call_args,
        analysis=args.analysis, instrument=bool(args.instrument),
        limits=asdict(limits) if limits is not None else None,
        on_analysis_error=args.on_analysis_error,
        request_timeout=args.serve_timeout, wasi=wasi_cfg)
    status = _render_run(args, call_args, response)
    _write_artifacts(telemetry, args)
    return status


def _render_run(args: argparse.Namespace, call_args, response: dict) -> int:
    """Print one run, local or served, from its response dict; return its
    exit status. Only a served response carries a ``pid``."""
    for stream, key in ((sys.stdout, "stdout"), (sys.stderr, "stderr")):
        if response.get(key):
            stream.buffer.write(response[key])
            stream.buffer.flush()
    if not response.get("ok"):
        error = response.get("error", {})
        status = int(response.get("status", EXIT_FAILURE))
        if status == EXIT_RESOURCE_EXHAUSTED:
            detail = f"resource limit hit: {error.get('message')}"
        else:
            detail = f"{error.get('type')}: {error.get('message')}"
        if error.get("kill_class"):
            detail += f" [killed: {error['kill_class']}]"
        print(f"repro: {detail}", file=sys.stderr)
        if response.get("bundle"):
            print(f"repro: crash bundle written to {response['bundle']}",
                  file=sys.stderr)
        return status
    print(response.get("analysis_report", ""), end="")
    for value in decode_values(response.get("printed", [])):
        print(f"[print] {value}")
    shown = ("proc_exit(0)" if response.get("graceful_exit")
             else decode_values(response.get("results", [])))
    print(f"{args.entry}({', '.join(map(str, call_args))}) = {shown}")
    if args.verbose:
        if "pid" in response:
            origin = ("warm, module already loaded" if response.get("warm")
                      else "cold")
            if not response.get("supervised", True):
                origin += ", UNSUPERVISED (service degraded)"
            print(f"repro: served by pid {response['pid']} ({origin})",
                  file=sys.stderr)
        usage = ResourceUsage(**response.get("usage", {}))
        print(f"repro: {usage.summary()}", file=sys.stderr)
        if "wasi_usage" in response:
            wasi_summary = " ".join(
                f"{key}={value}"
                for key, value in sorted(response["wasi_usage"].items()))
            print(f"repro: wasi {wasi_summary}", file=sys.stderr)
    return EXIT_OK


def _instrument_via_service(args: argparse.Namespace) -> int:
    """Route ``repro instrument --serve SOCKET`` through the daemon's
    content-addressed artifact cache."""
    from .serve import ServeClient
    groups = None
    if args.hooks != "all":
        groups = sorted(set(args.hooks.split(",")))
    telemetry = _telemetry_from_args(args)
    client = ServeClient(args.serve, telemetry=telemetry)
    response = client.instrument(Path(args.input).read_bytes(), groups)
    if not response.get("ok"):
        error = response.get("error", {})
        print(f"repro: {error.get('type')}: {error.get('message')}",
              file=sys.stderr)
        return int(response.get("status", EXIT_FAILURE))
    raw = response["module"]
    output = args.output or (Path(args.input).stem + ".instrumented.wasm")
    Path(output).write_bytes(raw)
    original_size = Path(args.input).stat().st_size
    source = "cache" if response.get("cache_hit") else "worker"
    print(f"instrumented {args.input} -> {output} (service: {source})")
    print(f"  hooks generated: {response.get('hook_count')}")
    print(f"  size: {original_size} -> {len(raw)} bytes "
          f"({100 * (len(raw) - original_size) / original_size:+.1f}%)")
    _write_artifacts(telemetry, args)
    return EXIT_OK


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the supervised instrumentation daemon (see repro.serve)."""
    import signal

    from .obs import StructuredLogger
    from .serve import ServeConfig, ServeDaemon, WorkerPool
    telemetry = _telemetry_from_args(args)
    # The scrape surface always has a sink: per-op histograms and folded
    # pool counters must exist even when no --metrics-out flag was given.
    scrape_telemetry = telemetry if telemetry is not None else Telemetry()
    logger = StructuredLogger("repro.serve", level=args.log_level,
                              path=args.log_file, stream="stderr")
    config = ServeConfig(
        workers=args.workers,
        request_timeout=args.request_timeout,
        rss_limit_mb=args.rss_limit_mb if args.rss_limit_mb > 0 else None,
        cache_dir=args.cache_dir,
        crash_dir=args.crash_dir,
        allow_test_ops=args.allow_test_ops)
    pool = WorkerPool(config, telemetry=telemetry, logger=logger).start()
    daemon = ServeDaemon(args.socket, pool, telemetry=scrape_telemetry,
                         logger=logger, metrics_port=args.metrics_port)
    try:
        daemon.start()
    except ServiceError as exc:
        pool.close()
        logger.close()
        print(f"repro: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    rss = f"{config.rss_limit_mb:g} MiB" if config.rss_limit_mb else "off"
    http = (f", metrics http://127.0.0.1:{daemon.metrics_port}/metrics"
            if daemon.metrics_port is not None else "")
    print(f"repro: serving on {args.socket} ({config.workers} workers, "
          f"timeout {config.request_timeout:g}s, rss ceiling {rss}{http})",
          flush=True)

    def _stop_signal(signum, frame):  # pragma: no cover - signal path
        daemon.stop()

    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(sig, _stop_signal)
        except (OSError, ValueError):  # pragma: no cover - non-main thread
            pass
    try:
        daemon.serve_forever()
    finally:
        daemon.stop()
        stats = pool.stats()
        pool.fold_into_telemetry(scrape_telemetry)
        kills = sum(stats["kills"].values())
        print(f"repro: served {stats['requests_total']} requests "
              f"({kills} kills, {stats['worker_restarts']} restarts, "
              f"{stats['cache_hits']} cache hits, "
              f"{stats['warm_hits']} warm hits)", file=sys.stderr)
        _write_artifacts(telemetry, args)
        logger.close()
    return EXIT_OK


def _render_top(payload: dict, previous: dict | None = None,
                interval: float = 2.0) -> str:
    """One ``repro top`` frame, rendered from a ``stats`` op response.

    Pure: takes this poll's payload (and the previous one, for req/s
    deltas) and returns the screenful. Tested without a live daemon.
    ``failed`` counts the daemon's per-op outcomes other than ``ok``.
    """
    stats = payload.get("stats", {})
    daemon = payload.get("daemon", {})
    ops = daemon.get("ops", {})
    lines = []
    uptime = daemon.get("uptime_seconds", 0.0)
    lines.append(f"repro serve — {daemon.get('socket', '?')}  "
                 f"pid {daemon.get('pid', '?')}  up {uptime:,.0f}s")
    total = stats.get("requests_total", 0)
    rate = ""
    if previous is not None and interval > 0:
        delta = total - previous.get("stats", {}).get("requests_total", 0)
        rate = f"  ({delta / interval:.1f} req/s)"
    failed = sum(count for row in ops.values()
                 for outcome, count in row.get("outcomes", {}).items()
                 if outcome != "ok")
    lines.append(f"requests: {total}{rate}   failed: {failed}   "
                 f"retried: {stats.get('retries_total', 0)}")
    lines.append(f"workers:  {stats.get('workers_live', 0)} live / "
                 f"{stats.get('workers_idle', 0)} idle   "
                 f"queue: {stats.get('queue_depth', 0)}   "
                 f"restarts: {stats.get('worker_restarts', 0)}   "
                 f"spawned: {stats.get('workers_spawned', 0)}")
    kills = stats.get("kills", {})
    lines.append(f"kills:    "
                 + "  ".join(f"{kind}={kills.get(kind, 0)}"
                             for kind in ("timeout", "oom", "crash")))
    lines.append(f"breaker:  {stats.get('breaker_open', 0)} open")
    lines.append(f"cache:    {stats.get('cache_hits', 0)} hits / "
                 f"{stats.get('cache_misses', 0)} misses / "
                 f"{stats.get('cache_evictions', 0)} evictions   "
                 f"warm: {stats.get('warm_hits', 0)}")
    if stats.get("degraded"):
        lines.append("state:    DEGRADED (unsupervised in-process execution)")
    if ops:
        lines.append("")
        lines.append(f"  {'op':<12} {'count':>8} {'mean':>10} "
                     f"{'p50':>10} {'p95':>10}  outcomes")
        for op in sorted(ops):
            row = ops[op]
            outcomes = " ".join(
                f"{k}={v}" for k, v in sorted(row.get("outcomes", {}).items()))
            lines.append(
                f"  {op:<12} {row.get('count', 0):>8} "
                f"{row.get('mean_seconds', 0.0) * 1e3:>8.2f}ms "
                f"{row.get('p50_seconds', 0.0) * 1e3:>8.2f}ms "
                f"{row.get('p95_seconds', 0.0) * 1e3:>8.2f}ms  {outcomes}")
    return "\n".join(lines)


def _daemon_down(socket_path: str) -> int:
    """The ``repro top`` no-daemon outcome: one clean line, nonzero exit.

    Connection-refused against a monitoring command is an expected state
    (the daemon simply is not up), not a transport stack trace — so the
    message is a single diagnostic line, not the client's retry report.
    """
    print(f"repro: daemon not running at {socket_path}", file=sys.stderr)
    return EXIT_FAILURE


def cmd_top(args: argparse.Namespace) -> int:
    """Live (or one-shot) view of a running daemon's ``stats`` surface."""
    from .serve import ServeClient
    client = ServeClient(args.socket, retries=0)
    try:
        payload = client.stats()
    except ServiceUnavailable:
        return _daemon_down(args.socket)
    if args.as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return EXIT_OK
    if args.once:
        print(_render_top(payload))
        return EXIT_OK
    previous = None
    try:
        while True:
            print("\x1b[2J\x1b[H" + _render_top(payload, previous,
                                                args.interval), flush=True)
            previous = payload
            time.sleep(args.interval)
            try:
                payload = client.stats()
            except ServiceUnavailable:
                return _daemon_down(args.socket)
    except KeyboardInterrupt:
        return EXIT_OK


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Run a seeded fuzz campaign through repro.eval.fuzz.

    Without flags this is one blind, in-process shard (the classic
    fault-injection campaign of repro.eval.faultinject); --parallel,
    --coverage, --corpus-dir, --time-budget and --supervise scale it up
    (sharding, corpus evolution, signature dedup + auto-reduced bundles).
    --reduce additionally shrinks every escape bundle written under
    --save-failures. Exits EXIT_FAILURE on escapes per the exit-status
    taxonomy (0–9, repro.wasm.errors).
    """
    from .eval.fuzz import FuzzConfig, fold_into_telemetry, run_fuzz_campaign

    engines: tuple[bool, ...] = (True, False)
    if args.engine == "predecode":
        engines = (True,)
    elif args.engine == "legacy":
        engines = (False,)
    telemetry = _telemetry_from_args(args)
    config = FuzzConfig(mutants=args.mutants, seed=args.seed,
                        parallel=args.parallel, coverage=args.coverage,
                        execute=not args.no_execute, engines=engines,
                        corpus_dir=args.corpus_dir,
                        save_failures=args.save_failures,
                        time_budget=args.time_budget,
                        supervised=args.supervise,
                        shard_timeout=args.shard_timeout,
                        shard_rss_limit_mb=args.shard_rss_limit_mb,
                        wasi=args.wasi_faults)
    with maybe_span(telemetry, "fuzz_campaign", mutants=args.mutants,
                    seed=args.seed, parallel=args.parallel,
                    coverage=args.coverage):
        result = run_fuzz_campaign(config)
    fold_into_telemetry(result, telemetry)
    print(result.summary())
    for sig in result.new_signatures:
        print(f"repro: new signature {sig}", file=sys.stderr)
    for failure in result.escapes:
        print(f"ESCAPE {failure}", file=sys.stderr)
    for bundle in result.bundles:
        print(f"repro: bundle {bundle}", file=sys.stderr)
    if args.reduce and args.save_failures:
        from .eval.reduce import reduce_bundle
        for failure in result.escapes:
            bundle_dir = (Path(args.save_failures)
                          / f"{failure.corpus_name}-{failure.index}")
            reduction = reduce_bundle(load_crash_bundle(bundle_dir),
                                      execute=not args.no_execute,
                                      engines=engines)
            print(f"repro: {bundle_dir.name}: {reduction.summary()}",
                  file=sys.stderr)
    if result.shards_killed:
        print(f"repro: {result.shards_killed} supervised shard(s) "
              f"killed (deadline/RSS/crash); their mutant blocks are "
              f"regenerable from the cursor", file=sys.stderr)
    if result.interrupted:
        print("repro: interrupted; completed shards merged"
              + (" and corpus cursor saved" if args.corpus_dir else ""),
              file=sys.stderr)
    _write_artifacts(telemetry, args)
    return EXIT_OK if result.ok and not result.interrupted else EXIT_FAILURE


def cmd_bundle(args: argparse.Namespace) -> int:
    """Inspect (and verify the integrity of) a crash bundle directory."""
    bundle = load_crash_bundle(args.bundle)
    manifest = bundle.manifest
    print(f"{bundle.path}: {manifest.get('kind', '?')} crash bundle")
    print(f"  module: {len(bundle.module_bytes)} bytes{_stream_info(bundle)}")
    error = manifest.get("error")
    if error:
        where = f" at {error['location']}" if error.get("location") else ""
        stage = f" [{error['stage']}]" if error.get("stage") else ""
        print(f"  error{stage}: {error.get('type')}: "
              f"{error.get('message')}{where}")
    else:
        print("  error: none (recorded run succeeded)")
    if manifest.get("invocations"):
        for inv in manifest["invocations"]:
            call_args = decode_values(inv.get("args", []))
            print(f"  invoke: {inv['export']}({', '.join(map(str, call_args))})")
    if manifest.get("fuzz"):
        fz = manifest["fuzz"]
        print(f"  fuzz: seed={fz.get('seed')} corpus={fz.get('corpus')} "
              f"index={fz.get('index')} recipe={fz.get('recipe')}")
    if manifest.get("reduction"):
        red = manifest["reduction"]
        print(f"  reduced: {red['original_size']} -> {red['reduced_size']} "
              f"bytes ({red['tests']} pipeline runs)")
    if bundle.snapshot is not None:
        memory = bundle.snapshot.memory
        pages = len(memory["pages"]) if memory else 0
        size = memory["size_pages"] if memory else 0
        print(f"  snapshot: {size} pages ({pages} non-zero), "
              f"{len(bundle.snapshot.globals_)} globals")
    if bundle.log is not None:
        from collections import Counter
        kinds = Counter(entry["kind"] for entry in bundle.log)
        detail = ", ".join(f"{n} {k}" for k, n in sorted(kinds.items()))
        print(f"  replay log: {len(bundle.log)} entries ({detail or 'empty'})")
    if bundle.flight is not None:
        last = bundle.flight[-1] if bundle.flight else None
        tail = (f" (last: [{last.get('level')}] {last.get('event')})"
                if last else "")
        print(f"  flight log: {len(bundle.flight)} entries{tail}")
    if args.verify:
        problems = _verify_bundle(bundle)
        if problems:
            for problem in problems:
                print(f"  VERIFY FAILED: {problem}", file=sys.stderr)
            return EXIT_FAILURE
        print("  verify: ok")
    return 0


def _stream_info(bundle) -> str:
    """Decoded-stream triage for bundles whose module still decodes."""
    from .interp.predecode import stream_summary
    try:
        summary = stream_summary(decode_module(bundle.module_bytes))
    except WasmError:
        return " (does not decode)"
    extras = [f"{summary['instructions']} instrs",
              f"{summary['host_call_sites']} host call sites"]
    if summary["hook_sites"]:
        extras.append(f"{summary['hook_sites']} hook sites")
    return f" ({', '.join(extras)})"


def _verify_bundle(bundle) -> list[str]:
    """Integrity checks on a loaded bundle (content, not reproduction)."""
    import hashlib

    from .wasm.types import PAGE_SIZE

    problems = []
    if bundle.manifest.get("kind") == "pipeline":
        # pipeline bundles hold intentionally broken binaries; nothing to
        # decode. Invoke bundles must decode cleanly.
        pass
    else:
        try:
            decode_module(bundle.module_bytes)
        except WasmError as exc:
            problems.append(f"module does not decode: {exc}")
    snap = bundle.snapshot
    if snap is not None and snap.memory is not None:
        data = bytearray(snap.memory["size_pages"] * PAGE_SIZE)
        try:
            for idx, chunk in snap.memory["pages"].items():
                data[idx * PAGE_SIZE:idx * PAGE_SIZE + len(chunk)] = chunk
        except (IndexError, ValueError) as exc:
            problems.append(f"snapshot pages malformed: {exc}")
        else:
            digest = hashlib.sha256(bytes(data)).hexdigest()
            if digest != snap.memory["digest"]:
                problems.append(
                    f"snapshot memory digest mismatch: stored "
                    f"{snap.memory['digest'][:12]}…, computed {digest[:12]}…")
    return problems


def cmd_replay(args: argparse.Namespace) -> int:
    """Re-execute a crash bundle and compare against its recorded outcome."""
    bundle = load_crash_bundle(args.bundle)
    if bundle.manifest.get("kind") == "pipeline":
        return _replay_pipeline_bundle(args, bundle)
    if bundle.manifest.get("kind") == "service":
        return _replay_service_bundle(args, bundle)
    return _replay_invoke_bundle(args, bundle)


def _replay_service_bundle(args: argparse.Namespace, bundle) -> int:
    """Service bundles replay by re-running the killed request one-shot
    under a fresh supervisor: reproduction means the same kill class."""
    from .serve import ServeConfig, WorkerPool

    service = bundle.manifest.get("service", {})
    recorded = (bundle.manifest.get("error", {}).get("kill_class")
                or service.get("kill_class", "?"))
    request = dict(service.get("request", {}))
    request["module"] = bundle.module_bytes
    config = ServeConfig(
        workers=1, max_retries=0,
        breaker_threshold=10 ** 9,  # the replay must not self-quarantine
        request_timeout=float(service.get("request_timeout") or 30.0),
        rss_limit_mb=service.get("rss_limit_mb"),
        allow_test_ops=request.get("kind") == "__test__")
    pool = WorkerPool(config).start()
    try:
        response = pool.submit(request)
    except WorkerKilled as exc:
        if exc.kill_class == recorded:
            print(f"{bundle.path}: reproduced: worker killed "
                  f"[{exc.kill_class}]")
            return EXIT_OK
        print(f"{bundle.path}: DIVERGED", file=sys.stderr)
        print(f"  recorded: worker killed [{recorded}]", file=sys.stderr)
        print(f"  live:     worker killed [{exc.kill_class}]", file=sys.stderr)
        return EXIT_REPLAY_DIVERGENCE
    finally:
        pool.close()
    if response.get("ok"):
        live = "request completed"
    else:
        error = response.get("error", {})
        live = f"failed cleanly: {error.get('type')}: {error.get('message')}"
    print(f"{bundle.path}: DIVERGED", file=sys.stderr)
    print(f"  recorded: worker killed [{recorded}]", file=sys.stderr)
    print(f"  live:     {live}", file=sys.stderr)
    return EXIT_REPLAY_DIVERGENCE


def _replay_pipeline_bundle(args: argparse.Namespace, bundle) -> int:
    """Pipeline bundles re-run deterministically from bytes alone."""
    from .eval.faultinject import replay_failure_bundle

    reproduced, live = replay_failure_bundle(bundle)
    recorded = bundle.error
    if reproduced:
        print(f"{bundle.path}: reproduced: {live}")
        return 0
    print(f"{bundle.path}: DIVERGED", file=sys.stderr)
    print(f"  recorded: {recorded.get('outcome', 'escape')} at "
          f"{recorded.get('stage')}: {recorded.get('type')}: "
          f"{recorded.get('message')}", file=sys.stderr)
    print(f"  live:     {live}", file=sys.stderr)
    return EXIT_REPLAY_DIVERGENCE


def _replay_invoke_bundle(args: argparse.Namespace, bundle) -> int:
    """Reconstruct the recorded run: same module, limits, analysis, and
    host-boundary log; optionally a different engine (``--engine``)."""
    manifest = bundle.manifest
    # invoke bundles record modules that loaded when written; one that no
    # longer does is bundle damage, reported taxonomically by main()
    module = load_module(bundle.module_bytes)
    # bundles written while hook dispatch had a generic/per-site switch
    # also record that switch under "engine"; both engines now dispatch
    # through the same per-site closures, so only "predecode" is read
    engine = manifest.get("engine", {})
    predecode = engine.get("predecode")
    if args.engine == "predecode":
        predecode = True
    elif args.engine == "legacy":
        predecode = False
    limits = None
    if manifest.get("limits") is not None:
        limits = ResourceLimits(**manifest["limits"])
    replayer = bundle.replayer()
    if replayer is None:
        print(f"repro: {bundle.path} has no replay log", file=sys.stderr)
        return EXIT_FAILURE
    linker = replay_linker(module)
    wasi_ctx = None
    if manifest.get("wasi") is not None:
        # WASI syscalls replay through the context (the log's wasi_call
        # entries re-apply recorded memory writes), not through the
        # generic host-call placeholders — register over them
        from .wasi import WasiContext
        wasi_ctx = WasiContext.from_config(manifest["wasi"], replay=replayer)
        wasi_ctx.register(linker)

    analysis = analysis_for(manifest.get("analysis", "none"),
                            bool(manifest.get("instrument")))
    machine = Machine(predecode=predecode, limits=limits, replay=replayer)
    try:
        instance = AnalysisSession(
            module, analysis, linker=linker, machine=machine,
            on_analysis_error=manifest.get("on_analysis_error", "raise"),
        ).instance
        if bundle.snapshot is not None:
            instance.restore(bundle.snapshot)
        if wasi_ctx is not None:
            wasi_ctx.bind_memory(instance)
        error: WasmError | None = None
        results = None
        for inv in manifest.get("invocations", []):
            try:
                results = instance.invoke(inv["export"],
                                          decode_values(inv.get("args", [])))
            except ReplayDivergence:
                raise
            except WasmError as exc:
                error = exc
                break
        replayer.finish()
    except ReplayDivergence as div:
        print(f"{bundle.path}: DIVERGED: {div}", file=sys.stderr)
        return EXIT_REPLAY_DIVERGENCE

    mismatches = _compare_outcome(manifest, error, results, instance)
    if not mismatches:
        outcome = manifest.get("error")
        what = (f"{outcome['type']}: {outcome['message']}" if outcome
                else f"results {results!r}")
        print(f"{bundle.path}: reproduced: {what}")
        return 0
    print(f"{bundle.path}: DIVERGED", file=sys.stderr)
    for mismatch in mismatches:
        print(f"  {mismatch}", file=sys.stderr)
    return EXIT_REPLAY_DIVERGENCE


def _compare_outcome(manifest: dict, error: WasmError | None, results,
                     instance) -> list[str]:
    """Replay acceptance: identical error class + message + Location (or
    identical results), and bit-identical post-invocation state."""
    mismatches = []
    recorded = manifest.get("error")
    live = error_info(error) if error is not None else None
    if recorded is None and live is not None:
        mismatches.append(f"recorded success, live failed: "
                          f"{live['type']}: {live['message']}")
    elif recorded is not None and live is None:
        mismatches.append(f"recorded {recorded['type']}: "
                          f"{recorded['message']}, live succeeded")
    elif recorded is not None:
        for key in ("type", "message", "location", "hook"):
            if recorded.get(key) != live.get(key):
                mismatches.append(f"error {key}: recorded "
                                  f"{recorded.get(key)!r}, live {live.get(key)!r}")
    elif "results" in manifest and encode_values(results or []) != manifest["results"]:
        mismatches.append(f"results: recorded "
                          f"{decode_values(manifest['results'])!r}, "
                          f"live {results!r}")
    post = manifest.get("post")
    if post:
        live_post = snapshot_instance(instance)
        live_digest = (live_post.memory or {}).get("digest")
        if live_digest != post.get("memory_digest"):
            mismatches.append("post-state memory digest differs")
        if encode_values(live_post.globals_) != post.get("globals", []):
            mismatches.append("post-state globals differ")
    return mismatches


def cmd_report(args: argparse.Namespace) -> int:
    """Render a --metrics-out JSON artifact as a human-readable summary."""
    try:
        payload = json.loads(Path(args.input).read_text())
    except (OSError, ValueError) as exc:  # JSON and UTF-8 errors included
        print(f"repro: cannot read {args.input}: {exc}", file=sys.stderr)
        return 1
    try:
        print(render_report(payload, top=args.top))
    except ValueError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    module = decode_module(Path(args.input).read_bytes())
    size = Path(args.input).stat().st_size
    print(f"{args.input}: {size} bytes")
    print(f"  types: {len(module.types)}")
    print(f"  imports: {len(module.imports)} "
          f"({module.num_imported_functions} functions)")
    print(f"  functions: {len(module.functions)} defined")
    print(f"  instructions: {module.instruction_count()}")
    print(f"  exports: {', '.join(e.name for e in module.exports) or '-'}")
    from collections import Counter
    groups = Counter(i.info.group.value for _, _, i in module.iter_instructions()
                     if i.info.group)
    print("  static instruction mix:")
    for group, count in groups.most_common(8):
        print(f"    {group:<12} {count}")
    return 0


def _add_telemetry_flags(p: argparse.ArgumentParser,
                         profile: bool = True) -> None:
    """The shared --metrics-out/--trace-out/--profile telemetry flags."""
    p.add_argument("--metrics-out", metavar="PATH", default=None,
                   help="write run metrics (.json, or .prom for Prometheus "
                        "text exposition)")
    p.add_argument("--trace-out", metavar="PATH", default=None,
                   help="write pipeline spans (.json Chrome trace-event "
                        "format for Perfetto, or .jsonl for span-per-line)")
    if profile:
        p.add_argument("--profile", action="store_true",
                       help="attach the engine self-profiler (report with "
                            "`repro report`)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Wasabi (reproduction) WebAssembly toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("instrument", help="instrument a .wasm binary")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.add_argument("--hooks", default="all",
                   help="comma-separated hook groups (default: all)")
    p.add_argument("--metadata", help="write hook/function metadata JSON")
    p.add_argument("--serve", metavar="SOCKET", default=None,
                   help="instrument via the service daemon at this unix "
                        "socket (content-addressed artifact cache)")
    _add_telemetry_flags(p, profile=False)
    p.set_defaults(fn=cmd_instrument, profile=False)

    p = sub.add_parser("validate", help="type check a .wasm binary")
    p.add_argument("input")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("objdump", help="disassemble to WAT-style text")
    p.add_argument("input")
    p.set_defaults(fn=cmd_objdump)

    p = sub.add_parser("compile", help="compile MiniC source to .wasm")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("run", help="run an exported function")
    p.add_argument("input")
    p.add_argument("entry")
    p.add_argument("args", nargs="*")
    p.add_argument("--analysis", choices=sorted(ANALYSES), default="none")
    p.add_argument("--instrument", action="store_true",
                   help="instrument even without an analysis")
    p.add_argument("--fuel", type=int, default=None,
                   help="abort after this many metered events "
                        "(taken branches + calls)")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="wall-clock budget per invocation")
    p.add_argument("--max-memory-pages", type=int, default=None,
                   help="cap linear memory at this many 64 KiB pages")
    p.add_argument("--wasi", action="store_true",
                   help="provide the WASI-preview1 subset host module "
                        "(auto-enabled when the module imports from "
                        "wasi_snapshot_preview1)")
    p.add_argument("--stdin-file", metavar="PATH", default=None,
                   help="file whose bytes back the guest's WASI stdin (fd 0)")
    p.add_argument("--fs-dir", metavar="DIR", default=None,
                   help="directory whose top-level files seed the guest's "
                        "in-memory WASI filesystem (preopen fd 3)")
    p.add_argument("--wasi-fault-seed", type=int, default=None,
                   metavar="SEED",
                   help="inject deterministic host-boundary faults (errno "
                        "failures, short reads/writes, clock skew) from "
                        "this seed")
    p.add_argument("--wasi-fault-rate", type=float, default=0.05,
                   metavar="RATE",
                   help="per-syscall fault probability under "
                        "--wasi-fault-seed (default: 0.05)")
    p.add_argument("--wasi-escalate-rate", type=float, default=0.0,
                   metavar="RATE",
                   help="probability a fired fault escalates to the hard "
                        "WasiExhausted tier instead of an errno "
                        "(default: 0)")
    p.add_argument("--max-open-fds", type=int, default=None,
                   help="cap concurrently open WASI file descriptors "
                        "(EMFILE past the bound)")
    p.add_argument("--max-file-bytes", type=int, default=None,
                   help="cap any single WASI file's size (short write, "
                        "then ENOSPC)")
    p.add_argument("--max-fs-bytes", type=int, default=None,
                   help="cap total bytes across the WASI filesystem "
                        "(short write, then ENOSPC)")
    p.add_argument("--max-syscalls", type=int, default=None,
                   help="hard budget of WASI syscalls per run "
                        "(WasiExhausted past the bound)")
    p.add_argument("--on-analysis-error", choices=ERROR_POLICIES,
                   default="raise",
                   help="policy when an analysis hook raises (default: raise)")
    p.add_argument("--record", metavar="DIR", default=None,
                   help="record the run (snapshot + host-boundary log) as a "
                        "crash bundle at DIR, whether or not it fails")
    p.add_argument("--crash-dir", metavar="DIR", default=None,
                   help="on trap/fault, write a crash bundle under DIR")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="report resource usage (fuel, peak pages, peak call "
                        "depth) on stderr after the run")
    p.add_argument("--serve", metavar="SOCKET", default=None,
                   help="execute via the service daemon at this unix socket "
                        "(crash-isolated, hard-deadline supervised)")
    p.add_argument("--serve-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="hard supervised deadline for this request "
                        "(default: the daemon's --request-timeout)")
    _add_telemetry_flags(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("report",
                       help="render a --metrics-out JSON artifact for humans")
    p.add_argument("input", help="metrics artifact written by --metrics-out")
    p.add_argument("--top", type=int, default=10,
                   help="rows per ranking section (default: 10)")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("stats", help="summarize a .wasm binary")
    p.add_argument("input")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("fuzz", help="seeded fault-injection campaign over "
                                    "the decode/validate/instrument pipeline")
    p.add_argument("--mutants", type=int, default=5000)
    p.add_argument("--seed", type=int, default=20260806)
    p.add_argument("--engine", choices=("both", "predecode", "legacy"),
                   default="both",
                   help="engine(s) for the execute stage (default: both)")
    p.add_argument("--save-failures", metavar="DIR", default=None,
                   help="write a crash bundle per escape under DIR")
    p.add_argument("--reduce", action="store_true",
                   help="ddmin-reduce each saved crash bundle in place "
                        "(requires --save-failures)")
    p.add_argument("--no-execute", action="store_true",
                   help="skip executing statically valid mutants")
    p.add_argument("--wasi-faults", action="store_true",
                   help="widen the corpus with WASI-preview1 workloads; "
                        "their mutants execute against an injected-fault "
                        "host module (fault seed derived from the mutant "
                        "bytes)")
    p.add_argument("--parallel", type=int, default=1, metavar="N",
                   help="shard the campaign across N worker processes")
    p.add_argument("--coverage", action="store_true",
                   help="coverage-guided corpus evolution over the toolkit's "
                        "own pipeline edges")
    p.add_argument("--corpus-dir", metavar="DIR", default=None,
                   help="resumable on-disk corpus; new-signature bundles go "
                        "under DIR/signatures")
    p.add_argument("--time-budget", type=float, default=None, metavar="SECS",
                   help="stop scheduling new rounds after SECS of wall-clock")
    p.add_argument("--supervise", action="store_true",
                   help="run campaign shards in supervised service workers "
                        "(hard deadlines + RSS ceiling per shard)")
    p.add_argument("--shard-timeout", type=float, default=120.0,
                   metavar="SECONDS",
                   help="hard wall-clock deadline per supervised shard "
                        "(default: 120)")
    p.add_argument("--shard-rss-limit-mb", type=float, default=2048.0,
                   metavar="MB",
                   help="RSS ceiling per supervised shard (default: 2048; "
                        "0 disables)")
    _add_telemetry_flags(p, profile=False)
    p.set_defaults(fn=cmd_fuzz, profile=False)

    p = sub.add_parser("serve", help="run the supervised instrumentation "
                                     "daemon over a unix socket")
    p.add_argument("--socket", default="/tmp/repro-serve.sock",
                   help="unix socket path (default: /tmp/repro-serve.sock)")
    p.add_argument("--workers", type=int, default=2,
                   help="supervised worker subprocesses (default: 2; "
                        "0 forces the degraded in-process mode)")
    p.add_argument("--request-timeout", type=float, default=30.0,
                   metavar="SECONDS",
                   help="hard wall-clock deadline per request before the "
                        "worker is SIGKILLed (default: 30)")
    p.add_argument("--rss-limit-mb", type=float, default=1024.0, metavar="MB",
                   help="RSS ceiling per worker before SIGKILL "
                        "(default: 1024; 0 disables)")
    p.add_argument("--cache-dir", metavar="DIR", default=None,
                   help="content-addressed artifact cache directory")
    p.add_argument("--crash-dir", metavar="DIR", default=None,
                   help="write a replayable service bundle per killed "
                        "request under DIR")
    p.add_argument("--allow-test-ops", action="store_true",
                   help="honor __test__ fault-injection requests (CI smoke "
                        "and tests only)")
    p.add_argument("--metrics-port", type=int, default=None, metavar="PORT",
                   help="also serve GET /metrics (Prometheus text) and "
                        "GET /stats (JSON) over HTTP on 127.0.0.1:PORT "
                        "(0 picks an ephemeral port)")
    p.add_argument("--log-file", metavar="PATH", default=None,
                   help="append structured JSONL logs (repro.log/1) here, "
                        "with size-based rotation")
    p.add_argument("--log-level", default="info",
                   choices=("debug", "info", "warning", "error"),
                   help="minimum level written to --log-file and echoed to "
                        "stderr (default: info); the in-memory flight "
                        "recorder always captures everything")
    _add_telemetry_flags(p, profile=False)
    p.set_defaults(fn=cmd_serve, profile=False)

    p = sub.add_parser("top", help="live view of a running daemon's stats "
                                   "(poll the service's `stats` op)")
    p.add_argument("--socket", default="/tmp/repro-serve.sock",
                   help="unix socket path (default: /tmp/repro-serve.sock)")
    p.add_argument("--interval", type=float, default=2.0, metavar="SECONDS",
                   help="seconds between polls (default: 2)")
    p.add_argument("--once", action="store_true",
                   help="render one frame and exit")
    p.add_argument("--json", dest="as_json", action="store_true",
                   help="print the raw stats response as JSON and exit")
    p.set_defaults(fn=cmd_top)

    p = sub.add_parser("bundle", help="inspect a crash bundle directory")
    p.add_argument("bundle", help="crash bundle directory")
    p.add_argument("--verify", action="store_true",
                   help="check bundle integrity (module decodes, snapshot "
                        "digest matches)")
    p.set_defaults(fn=cmd_bundle)

    p = sub.add_parser("replay", help="re-execute a crash bundle and check "
                                      "it reproduces the recorded outcome")
    p.add_argument("bundle", help="crash bundle directory")
    p.add_argument("--engine", choices=("recorded", "predecode", "legacy"),
                   default="recorded",
                   help="interpreter engine to replay on (default: the one "
                        "that recorded the bundle)")
    p.set_defaults(fn=cmd_replay)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one verb. Whatever error escapes it becomes one ``repro:`` line
    and its exit status (an ``OSError`` exits 1)."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except WasmError as exc:
        print(f"repro: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exit_status(exc)
    except OSError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
