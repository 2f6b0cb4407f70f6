"""The measured process of the end-to-end benchmark.

``run.py`` starts ``python drive.py CONFIG.json`` with ``src`` on
``PYTHONPATH``, once per launch. The process imports ``repro``, sets its
workload up (for ``serve`` it spawns ``python -m repro serve`` and waits
until ``ping`` succeeds with both workers live), runs one fixed warm-up
op and prints ``ready``; the parent times process start to that line as
one ``setup_s`` sample. A set-up-only launch exits there. A measuring
launch then runs whole blocks of the op list, timing every op from outside
through the public entry points (``repro.cli.main``,
``decode_module``/``instrument_module``/``encode_module``,
``ServeClient``, ``run_fuzz_campaign``), and writes one JSON result file.

In a traced launch, spans come from a :class:`repro.obs.Tracer` around
each op and each public call, from the ``--trace-out``/``--metrics-out``
artifacts ``repro run`` writes, and from the stitched serve trace. Hook
and WASI time arrive as per-op histogram sums, never as a span per call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed
from ops import sha256

from repro import cli
from repro.core import instrument_module
from repro.eval import faultinject
from repro.eval.fuzz import FuzzConfig, run_fuzz_campaign
from repro.interp.machine import Machine
from repro.interp.snapshot import decode_values
from repro.obs import Telemetry, Tracer
from repro.serve import ServeClient
from repro.wasm import decode_module, encode_module
from repro.wasm.errors import ServiceUnavailable

#: Closed-loop serve clients; never more than the machine's cores.
SERVE_CLIENTS = 2
SERVE_WORKERS = 2
DAEMON_START_TIMEOUT = 60.0


def run_cli(argv: list[str]) -> tuple[int, bytes, str]:
    """``repro.cli.main(argv)`` with stdout captured as bytes (the WASI
    streams go to ``sys.stdout.buffer``) and stderr captured as text."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
        out.flush()
    return status, out.buffer.getvalue(), err.getvalue()


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped descendant.

    This process's own peak is ``VmHWM`` from ``/proc``, which counts only
    memory mapped since exec: Linux's getrusage ``ru_maxrss`` (the fallback)
    also carries the peak of the process that spawned it across exec. The
    descendants' peak is getrusage's; serve workers are forked without
    exec, so theirs is their own.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        with open("/proc/self/status", "rb") as fh:
            own = next(int(line.split()[1]) / 1024.0 for line in fh
                       if line.startswith(b"VmHWM:"))
    except (OSError, StopIteration, ValueError, IndexError):
        pass
    return own + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _span(tracer: Tracer | None, name: str, **attrs):
    return tracer.span(name, **attrs) if tracer is not None else contextlib.nullcontext()


class _Files:
    """Input files read once at set-up, so ops time no file reads."""

    def __init__(self):
        self._data: dict[str, bytes] = {}

    def __call__(self, rel: str) -> bytes:
        if rel not in self._data:
            self._data[rel] = Path(rel).read_bytes()
        return self._data[rel]


# -- workloads ---------------------------------------------------------------


class _Runner:
    """One workload in the measuring process.

    ``call(op, arg)`` is the timed part of an op; ``inspect(op, raw,
    record)`` fills the record's ``ok``/``fp`` and layer counters after the
    clock stops. ``session(traced)`` gives each load-generator thread its
    ``(arg, tracer)``: for sequential runners the tracer is the arg. An op
    of several public calls calls ``checkpoint()`` between them.
    """

    concurrent = False

    def checkpoint(self) -> None:
        """Between two public calls of an op; the schedule replaces it."""

    def session(self, traced: bool) -> tuple:
        tracer = Tracer(process="bench") if traced else None
        return tracer, tracer

    def close(self) -> None:
        pass


class InstrumentRunner(_Runner):
    """decode -> instrument all hooks -> encode, as ``repro instrument``."""

    def __init__(self, config: dict):
        self.files = _Files()

    def call(self, op: dict, tracer: Tracer | None):
        data = self.files(op["file"])
        with _span(tracer, "decode"):
            module = decode_module(data)
        self.checkpoint()
        with _span(tracer, "instrument"):
            result = instrument_module(module)
        self.checkpoint()
        with _span(tracer, "encode"):
            out = encode_module(result.module)
        return result.hook_count, out

    def inspect(self, op: dict, raw, record: dict) -> None:
        hooks, out = raw
        record.update(ok=True, fp=sha256(out))
        record["agg"] = {"in_bytes": op["bytes"], "out_bytes": len(out),
                         "hooks_inserted": hooks}


class RunRunner(_Runner):
    """``repro run ...`` through ``repro.cli.main``, in process."""

    def __init__(self, config: dict):
        self.trace_files = ("op.trace.jsonl", "op.metrics.json")

    def call(self, op: dict, tracer: Tracer | None):
        argv = op["argv"]
        if tracer is not None:
            argv = argv + ["--trace-out", self.trace_files[0],
                           "--metrics-out", self.trace_files[1]]
        return run_cli(argv)

    def inspect(self, op: dict, raw, record: dict) -> None:
        status, stdout, stderr = raw
        record.update(ok=status == 0, fp=sha256(stdout))
        if status != 0:
            record["err"] = f"exit {status}: {stderr.strip()[-200:]}"
        if Path(self.trace_files[0]).exists():
            record["program_spans"], record["agg"] = self._telemetry(op)

    def _telemetry(self, op: dict) -> tuple[list, dict]:
        trace, metrics = (Path(name) for name in self.trace_files)
        spans = [json.loads(line) for line in trace.read_text().splitlines()
                 if line.strip()]
        payload = json.loads(metrics.read_text())["metrics"]
        trace.unlink()
        metrics.unlink()
        agg = {"in_bytes": op["bytes"], "module_bytes": op["module_bytes"]}
        for counter in payload["counters"]:
            if counter["name"] == "repro_calls_total":
                agg["calls"] = counter["value"]
            elif counter["name"] == "repro_branches_total":
                agg["branches"] = counter["value"]
        for hist in payload["histograms"]:
            kind = {"repro_hook_latency_seconds": "hook",
                    "repro_wasi_syscall_seconds": "wasi"}.get(hist["name"])
            if kind is not None:
                agg[f"{kind}_calls"] = agg.get(f"{kind}_calls", 0) + hist["count"]
                agg[f"{kind}_s"] = agg.get(f"{kind}_s", 0.0) + hist["sum"]
        return spans, agg


def render_run(response: dict) -> bytes:
    """A served run's stdout, printed the way ``repro run`` prints it."""
    text = response.get("analysis_report") or ""
    text += "".join(f"[print] {value}\n"
                    for value in decode_values(response.get("printed", [])))
    text += f"main() = {decode_values(response.get('results', []))}\n"
    return text.encode("utf-8")


class ServeRunner(_Runner):
    """A ``python -m repro serve`` subprocess and closed-loop clients."""

    concurrent = True

    def __init__(self, config: dict):
        self.files = _Files()
        home = Path(config["launch"])
        home.mkdir(parents=True, exist_ok=True)
        self.socket = str(home / "serve.sock")
        self._log = open(home / "daemon.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", "serve.sock",
             "--workers", str(SERVE_WORKERS), "--cache-dir", "cache"],
            cwd=home, stdout=subprocess.DEVNULL, stderr=self._log)
        try:
            self._wait_ready()
        except BaseException:
            self.close()
            raise

    def _wait_ready(self) -> None:
        probe = ServeClient(self.socket, timeout=10.0, retries=0)
        deadline = time.monotonic() + DAEMON_START_TIMEOUT
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"serve daemon exited with {self.proc.returncode}")
            try:
                if (probe.ping().get("ok") and probe.stats()["stats"]["workers_live"]
                        == SERVE_WORKERS):
                    return
            except ServiceUnavailable:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("serve daemon did not become ready")
            time.sleep(0.005)

    def session(self, traced: bool) -> tuple:
        client = ServeClient(self.socket,
                             telemetry=Telemetry() if traced else None)
        return client, client.telemetry.tracer if traced else None

    def call(self, op: dict, client: ServeClient):
        if op["op"] == "serve_run":
            return client.run(self.files(op["file"]), "main", [],
                              analysis=op["analysis"])
        if op["op"] == "serve_instrument":
            return client.instrument(self.files(op["file"]))
        return client.stats()

    def inspect(self, op: dict, response: dict, record: dict) -> None:
        record["ok"] = bool(response.get("ok"))
        record["plain_run"] = op.get("analysis") == "none"
        if not record["ok"]:
            error = response.get("error", {})
            record["err"] = f"{error.get('type')}: {error.get('message')}"
        elif op["op"] == "serve_run":
            record["fp"] = sha256(render_run(response))
        elif op["op"] == "serve_instrument":
            record["fp"] = sha256(response["module"])
        elif "stats_schema" not in response:
            record.update(ok=False, err="stats response without stats_schema")

    def stats(self) -> dict:
        return ServeClient(self.socket).stats()["stats"]

    def close(self) -> None:
        if self.proc.poll() is None:
            with contextlib.suppress(ServiceUnavailable, OSError):
                ServeClient(self.socket, retries=0).shutdown_daemon()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


class _Probe:
    """Aggregate call counts, seconds and bytes per wrapped function."""

    def __init__(self):
        self.totals: dict[str, list] = {}
        self._busy = False

    def wrap(self, name: str, fn, size=None):
        """``fn``, timed whether it returns or raises (most mutants make the
        decoder raise); ``size(args, result)`` counts its bytes."""
        def timed(*args, **kwargs):
            start = time.perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                self.add(name, time.perf_counter() - start,
                         size(args, out) if size is not None else 0)
        return timed

    def add(self, name: str, seconds: float, nbytes: int = 0) -> None:
        total = self.totals.setdefault(name, [0, 0.0, 0])
        total[0] += 1
        total[1] += seconds
        total[2] += nbytes

    def drain(self) -> dict:
        totals, self.totals = self.totals, {}
        return totals


def _timed_machine(probe: _Probe):
    """A Machine whose outermost instantiate/call are timed; nested calls
    (start functions, the legacy engine's recursion) count to their
    outermost caller."""

    class TimedMachine(Machine):
        def _outermost(self, name, fn, args, kwargs):
            if probe._busy:
                return fn(*args, **kwargs)
            probe._busy = True
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                probe.add(name, time.perf_counter() - start)
                probe._busy = False

        def instantiate(self, *args, **kwargs):
            return self._outermost("instantiate", super().instantiate, args, kwargs)

        def call(self, *args, **kwargs):
            return self._outermost("invoke", super().call, args, kwargs)

    return TimedMachine


class FuzzRunner(_Runner):
    """One blind, in-process campaign call per op."""

    #: the public names faultinject imports; the traced launch wraps them
    PROBED = ("decode_module", "validate_module", "instrument_module",
              "encode_module", "Machine")

    def __init__(self, config: dict):
        self.probe = None
        self._saved = {}
        if config.get("traced"):
            self.probe = _Probe()
            self._saved = {name: getattr(faultinject, name) for name in self.PROBED}
            wrappers = {
                "decode_module": self.probe.wrap(
                    "decode", faultinject.decode_module,
                    lambda args, out: len(args[0])),
                "validate_module": self.probe.wrap(
                    "validate", faultinject.validate_module),
                "instrument_module": self.probe.wrap(
                    "instrument", faultinject.instrument_module),
                "encode_module": self.probe.wrap(
                    "encode", faultinject.encode_module,
                    lambda args, out: len(out or b"")),
                "Machine": _timed_machine(self.probe),
            }
            for name, wrapper in wrappers.items():
                setattr(faultinject, name, wrapper)

    def call(self, op: dict, tracer: Tracer | None):
        if self.probe is not None:
            self.probe.drain()  # e.g. the warm-up op's totals
        return run_fuzz_campaign(FuzzConfig(mutants=op["mutants"],
                                            seed=op["seed"], parallel=1))

    def inspect(self, op: dict, result, record: dict) -> None:
        rejected = sum(result.rejected_at.values())
        record["ok"] = (not result.escapes and result.mutants == op["mutants"]
                        and rejected + result.survived == result.mutants)
        if not record["ok"]:
            record["err"] = (f"{len(result.escapes)} escapes, {result.mutants} "
                             f"mutants, {rejected} rejected, "
                             f"{result.survived} survived")
        record["fuzz"] = {"rejected_at": result.rejected_at,
                          "survived": result.survived,
                          "signatures": sorted(result.signatures),
                          "escapes": len(result.escapes)}
        if self.probe is not None:
            record["probe"] = self.probe.drain()

    def close(self) -> None:
        for name, value in self._saved.items():
            setattr(faultinject, name, value)
        self._saved = {}


RUNNERS = {"instrument": InstrumentRunner, "execute": RunRunner,
           "analyze": RunRunner, "serve": ServeRunner, "fuzz": FuzzRunner}


# -- the measurement loops ------------------------------------------------------


def _record(runner, op: dict, block: int, index: int, call_arg,
            tracer: Tracer | None, schedule: "_Schedule") -> dict:
    """Run one op, timed from outside; inspect it after the clock stops."""
    error = None
    with _span(tracer, "op", block=block, index=index, op=op["op"]):
        clock = schedule.clock()
        try:
            raw = runner.call(op, call_arg)
        except (Exception, SystemExit) as exc:  # an op failure, not the run's
            error = f"{type(exc).__name__}: {exc}"
        segments = clock.stop()
    record = {"b": block, "i": index, "seg": segments,
              "t": sum(seconds for _, seconds in segments),
              "bytes": op["bytes"], "n": op.get("mutants", 1)}
    if error is not None:
        record.update(ok=False, err=error)
    else:
        runner.inspect(op, raw, record)
    if tracer is not None:
        record["spans"] = ([span.as_dict() for span in tracer.spans]
                           + record.pop("program_spans", []))
        tracer.spans.clear()
    return record


class _OpClock:
    """One op's time as ``[interval, seconds]`` segments: a calibration
    taken inside the op splits it and is not op time."""

    def __init__(self, interval: int):
        self.segments: list[list] = []
        self.interval = interval
        self.start = time.perf_counter()

    def split(self, at: float, interval: int, resume: float) -> None:
        self.segments.append([self.interval, at - self.start])
        self.interval, self.start = interval, resume

    def stop(self) -> list[list]:
        self.segments.append([self.interval, time.perf_counter() - self.start])
        return self.segments


class _Schedule:
    """Hands out whole blocks until the run's stop rule holds, and times
    the host's calibration loop between ops every ``hostspeed.EVERY_S``.

    Untraced: stop at the first block boundary after ``seconds`` of
    measured time with at least ``min_samples`` ops timed. Traced: stop
    after exactly ``n_blocks`` blocks (the untraced launch's count, so both
    runs cover the same ops). Past the list's end, blocks repeat from
    block 0. A calibration waits until no op is in flight, or, in a
    single-threaded untraced run, is taken at a :meth:`checkpoint` between
    two public calls of a long op; its time is not measured time.
    ``intervals[k]`` is the measured time between ``calibrations[k]`` and
    ``calibrations[k + 1]``.
    """

    def __init__(self, blocks: list, seconds: float, min_samples: int,
                 n_blocks: int | None, checkpoints: bool):
        self.checkpoints = checkpoints
        self._clock: _OpClock | None = None
        self.blocks = blocks
        self.seconds = seconds
        self.min_samples = min_samples
        self.n_blocks = n_blocks
        self.block = 0
        self.index = 0
        self.taken = 0
        self.finished = False
        self.intervals: list[float] = []
        self.calibrations = [hostspeed.calibrate()]
        self._cond = threading.Condition()
        self._inflight = 0
        self._pausing = False
        self._mark = time.perf_counter()

    def _done(self) -> bool:
        if self.n_blocks is not None:
            return self.block >= self.n_blocks
        measured = sum(self.intervals) + time.perf_counter() - self._mark
        return measured >= self.seconds and self.taken >= self.min_samples

    def _take(self) -> float:
        """Close the current interval and calibrate; return when it began."""
        at = time.perf_counter()
        self.intervals.append(at - self._mark)
        self.calibrations.append(hostspeed.calibrate())
        self._mark = time.perf_counter()
        return at

    def _calibrate(self) -> None:
        self._pausing = True
        while self._inflight:
            self._cond.wait()
        self._take()
        self._pausing = False
        self._cond.notify_all()

    def clock(self) -> _OpClock:
        """Start timing an op in the current interval."""
        clock = _OpClock(len(self.intervals))
        if self.checkpoints:
            self._clock = clock
        return clock

    def checkpoint(self) -> None:
        """Between two public calls inside an op: calibrate when one is due,
        splitting the op's clock around it."""
        clock = self._clock
        if clock is not None and time.perf_counter() - self._mark >= hostspeed.EVERY_S:
            at = self._take()
            clock.split(at, len(self.intervals), self._mark)

    def next(self):
        """``(block, index, op)`` of the next op, or ``None``."""
        with self._cond:
            while self._pausing:
                self._cond.wait()
            if self.finished:
                return None
            ops = self.blocks[self.block % len(self.blocks)]
            if self.index == len(ops):
                self.block += 1
                self.index = 0
                if self._done():
                    self.finished = True
                    return None
                ops = self.blocks[self.block % len(self.blocks)]
            if time.perf_counter() - self._mark >= hostspeed.EVERY_S:
                self._calibrate()
            item = (self.block, self.index, ops[self.index])
            self.index += 1
            self.taken += 1
            self._inflight += 1
            return item

    def done(self) -> None:
        with self._cond:
            self._inflight -= 1
            self._cond.notify_all()

    def close(self) -> None:
        with self._cond:
            self._calibrate()


def measure(runner, blocks: list, seconds: float, min_samples: int,
            n_blocks: int | None, traced: bool) -> dict:
    """Run whole blocks from one thread, or from ``SERVE_CLIENTS`` closed-loop
    threads for a concurrent runner; return the op records, the measured
    intervals and the host calibrations around them."""
    clients = SERVE_CLIENTS if runner.concurrent else 1
    cores = os.cpu_count() or 1
    if clients > cores:
        raise RuntimeError(f"{clients} load-generator threads exceed the "
                           f"machine's {cores} cores")
    schedule = _Schedule(blocks, seconds, min_samples, n_blocks,
                         checkpoints=clients == 1 and not traced)
    runner.checkpoint = schedule.checkpoint
    records: list = []
    errors: list = []

    def client_loop() -> None:
        try:
            arg, tracer = runner.session(traced)
            while (item := schedule.next()) is not None:
                block, index, op = item
                try:
                    record = _record(runner, op, block, index, arg, tracer,
                                     schedule)
                finally:
                    schedule.done()
                records.append(record)
        except BaseException as exc:  # surfaced after the join
            errors.append(exc)

    if clients == 1:
        client_loop()
    else:
        threads = [threading.Thread(target=client_loop, name=f"bench-client-{k}")
                   for k in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    schedule.close()
    if errors:
        raise errors[0]
    records.sort(key=lambda r: (r["b"], r["i"]))
    result = {"records": records, "wall_s": sum(schedule.intervals),
              "intervals": schedule.intervals,
              "calibrations": schedule.calibrations, "blocks": schedule.block,
              "clients": clients}
    if runner.concurrent:
        result["serve_stats"] = runner.stats()
    return result


def main(argv: list[str]) -> int:
    config = json.loads(Path(argv[1]).read_text())
    os.chdir(config["workdir"])
    plan = json.loads(Path("ops.json").read_text())
    runner = RUNNERS[config["workload"]](config)
    try:
        arg, _ = runner.session(False)
        runner.call(plan["warmup"], arg)
        print("ready", flush=True)
        if config.get("ready_only"):
            return 0
        result = measure(runner, plan["blocks"], config["seconds"],
                         config["min_samples"], config.get("blocks"),
                         bool(config.get("traced")))
    finally:
        runner.close()
    result["peak_rss_mb"] = peak_rss_mb()  # after close reaped the daemon
    Path(config["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
