"""The telemetry façade: one object wiring metrics, spans, events, profiling.

``Telemetry`` is what flows through the stack — ``Machine(telemetry=...)``,
``AnalysisSession(telemetry=...)``, ``WasabiRuntime(telemetry=...)``, and
the CLI's ``--metrics-out``/``--trace-out``/``--profile`` flags all share
one instance per run. Design rules, in order:

1. **The disabled path is (near-)free.** No telemetry object → the engines
   bind their ordinary loops and every charge site is a single hoisted
   ``tele is not None`` test, exactly the
   :class:`~repro.interp.limits.Meter` discipline. The interpreter
   therefore charges *raw integer fields on this object*
   (``n_calls``/``n_branches``/…), not metric objects; :meth:`snapshot`
   folds them into the registry idempotently afterwards.
2. **One clock.** The tracer, the hook-latency histograms, and the event
   log all read the injected ``clock`` — deterministic under a fake clock.
3. **Artifacts are plain data.** ``write_metrics`` emits JSON (or
   Prometheus text for ``.prom`` paths), ``write_trace`` emits Chrome
   trace-event JSON (or span JSONL for ``.jsonl`` paths), and
   :func:`render_report` turns a metrics artifact back into the
   human-readable summary behind ``repro report``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from .metrics import (HOOK_LATENCY_BUCKETS, STAGE_SECONDS_BUCKETS, Histogram,
                      MetricsRegistry)
from .profiler import DEFAULT_SAMPLE_INTERVAL, Profiler
from .spans import Tracer, spans_to_chrome_trace, spans_to_jsonl

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (interp ← obs)
    from ..interp.limits import ResourceUsage

#: Schema tag stamped into every metrics artifact (bump on breaking change).
METRICS_SCHEMA = "repro.telemetry/1"


class Event:
    """One structured occurrence: a hook fault, a quarantine, a campaign."""

    __slots__ = ("ts", "kind", "fields")

    def __init__(self, ts: float, kind: str, fields: dict):
        self.ts = ts
        self.kind = kind
        self.fields = fields

    def as_dict(self) -> dict:
        return {"ts": self.ts, "kind": self.kind, **self.fields}

    def render(self) -> str:
        """One-line human-readable form (the stderr log format)."""
        details = " ".join(f"{key}={value}" for key, value in self.fields.items()
                           if value is not None)
        return f"[{self.kind}] {details}"


class Telemetry:
    """Shared sink for one run: registry + tracer + events + profiler.

    ``profile=True`` attaches the engine self-profiler (either engine).
    Raw interpreter totals live as plain ``n_*`` int fields — the
    hot loops increment them directly — and :meth:`snapshot` folds
    everything into the :class:`~repro.obs.metrics.MetricsRegistry`.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 profile: bool = False,
                 sample_interval: int = DEFAULT_SAMPLE_INTERVAL,
                 process: str | None = None):
        self.clock = clock
        self.registry = MetricsRegistry()
        self.tracer = Tracer(clock=clock, process=process)
        self.events: list[Event] = []
        self.profiler: Profiler | None = (
            Profiler(sample_interval=sample_interval) if profile else None)
        # raw interpreter totals, charged by the engines' hoisted-guard sites
        self.n_calls = 0          # every Wasm + host call (mirrors Meter)
        self.n_host_calls = 0     # subset of n_calls crossing into the host
        self.n_branches = 0       # taken br / br_if / br_table
        self.n_traps = 0          # traps escaping a top-level invocation
        self.n_mem_grow = 0       # executed memory.grow instructions
        self.n_replayed_host_calls = 0  # host calls served from a replay log
        self.n_segment_compiles = 0    # segment sources compiled at instantiate
        self.n_segment_cache_hits = 0  # segments whose code the cache supplied
        self.mem_pages = 0        # last linear-memory size seen at a grow
        self._spans_folded = 0

    # -- recording ------------------------------------------------------------

    def span(self, name: str, **attrs):
        """A pipeline-stage span (context manager)."""
        return self.tracer.span(name, **attrs)

    def event(self, kind: str, **fields) -> Event:
        """Record one structured event, timestamped with the shared clock."""
        event = Event(self.clock(), kind, fields)
        self.events.append(event)
        return event

    def note_grow(self, pages_now: int) -> None:
        """Charge one executed ``memory.grow`` (called from the engines)."""
        self.n_mem_grow += 1
        self.mem_pages = pages_now

    def hook_histogram(self, hook_name: str) -> Histogram:
        """Latency histogram for one monomorphized low-level hook.

        The runtime resolves this once per hook at wrap time and holds the
        reference, so per-dispatch cost is two clock reads and one observe.
        """
        return self.registry.histogram(
            "repro_hook_latency_seconds", labels={"hook": hook_name},
            buckets=HOOK_LATENCY_BUCKETS,
            help="dispatch latency per monomorphized low-level hook")

    def wasi_syscall_histogram(self, syscall: str) -> Histogram:
        """Host-boundary latency histogram for one WASI syscall.

        Resolved once per syscall by the WASI context and cached there,
        mirroring :meth:`hook_histogram`'s per-dispatch cost discipline.
        """
        return self.registry.histogram(
            "repro_wasi_syscall_seconds", labels={"syscall": syscall},
            buckets=HOOK_LATENCY_BUCKETS,
            help="time spent at the host boundary per WASI syscall")

    # -- folding & artifacts ---------------------------------------------------

    def snapshot(self, usage: "ResourceUsage | None" = None) -> MetricsRegistry:
        """Fold raw totals, spans, profile, and usage into the registry.

        Idempotent: counters are *set* from the cumulative raw fields and
        spans are folded exactly once each, so calling ``snapshot`` twice
        (e.g. once per exporter) cannot double-count.
        """
        registry = self.registry
        interp = [
            ("repro_calls_total", self.n_calls, "function calls (wasm + host)"),
            ("repro_host_calls_total", self.n_host_calls,
             "calls crossing into the host"),
            ("repro_branches_total", self.n_branches, "taken branches"),
            ("repro_traps_total", self.n_traps,
             "traps escaping a top-level invocation"),
            ("repro_memory_grow_total", self.n_mem_grow,
             "executed memory.grow instructions"),
            ("repro_replayed_host_calls_total", self.n_replayed_host_calls,
             "host calls served from a replay log instead of the host"),
            ("repro_segment_compiles_total", self.n_segment_compiles,
             "compiled-segment sources compiled while instantiating"),
            ("repro_segment_cache_hits_total", self.n_segment_cache_hits,
             "compiled segments whose code came from the process-wide cache"),
        ]
        for name, value, help_text in interp:
            registry.counter(name, help=help_text).set(value)
        registry.gauge("repro_memory_pages",
                       help="linear memory size at the last grow").set(
            self.mem_pages)
        registry.counter("repro_events_total",
                         help="structured telemetry events").set(
            len(self.events))
        spans = self.tracer.spans
        for span in spans[self._spans_folded:]:
            registry.histogram("repro_stage_seconds",
                               labels={"stage": span.name},
                               buckets=STAGE_SECONDS_BUCKETS,
                               help="pipeline stage duration").observe(
                span.duration)
        self._spans_folded = len(spans)
        profiler = self.profiler
        if profiler is not None:
            for cls, count in profiler.opcode_class_counts().items():
                registry.counter(
                    "repro_opcode_executions_total", labels={"class": cls},
                    help="executed instructions per opcode class").set(count)
            registry.counter(
                "repro_instructions_total",
                help="total executed instructions (profiled runs)").set(
                profiler.total_instructions)
        if usage is not None:
            usage.record_to(registry)
        return registry

    def metrics_payload(self, usage: "ResourceUsage | None" = None) -> dict:
        """The metrics artifact: registry + events + profile, JSON-ready."""
        payload = {
            "schema": METRICS_SCHEMA,
            "metrics": self.snapshot(usage).as_dict(),
            "events": [event.as_dict() for event in self.events],
        }
        if self.profiler is not None:
            payload["profile"] = self.profiler.as_dict()
        return payload

    def write_metrics(self, path: str | Path,
                      usage: "ResourceUsage | None" = None) -> Path:
        """Write the metrics artifact; ``.prom`` selects text exposition."""
        path = Path(path)
        if path.suffix == ".prom":
            path.write_text(self.snapshot(usage).to_prometheus())
        else:
            path.write_text(json.dumps(self.metrics_payload(usage), indent=2)
                            + "\n")
        return path

    def write_trace(self, path: str | Path) -> Path:
        """Write the span trace; ``.jsonl`` selects span-per-line JSONL,
        anything else the Chrome trace-event format (Perfetto-loadable)."""
        path = Path(path)
        if path.suffix == ".jsonl":
            path.write_text(spans_to_jsonl(self.tracer.spans))
        else:
            path.write_text(json.dumps(spans_to_chrome_trace(self.tracer.spans))
                            + "\n")
        return path


class _NullSpan:
    def __enter__(self):
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def maybe_span(telemetry: Telemetry | Tracer | None, name: str, **attrs):
    """``telemetry.span(...)`` or a no-op context when telemetry is off;
    ``telemetry`` is a sink or a bare :class:`Tracer`."""
    if telemetry is None:
        return _NULL_SPAN
    return telemetry.span(name, **attrs)


# -- `repro report`: render a metrics artifact for humans ---------------------


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.1f}µs"


def render_report(payload: dict, top: int = 10) -> str:
    """Human-readable summary of a metrics artifact (``repro report``)."""
    if payload.get("schema") != METRICS_SCHEMA:
        raise ValueError(
            f"not a repro metrics artifact (schema {payload.get('schema')!r}, "
            f"expected {METRICS_SCHEMA!r})")
    registry = MetricsRegistry.from_dict(payload.get("metrics", {}))
    lines: list[str] = ["== telemetry report =="]

    counters = [m for m in registry if m.kind == "counter" and m.value]
    if counters:
        lines.append("")
        lines.append("counters:")
        for metric in counters:
            label = "".join(f"{{{k}={v}}}" for k, v in metric.labels)
            lines.append(f"  {metric.name + label:<40} {metric.value}")
    gauges = [m for m in registry if m.kind == "gauge" and m.value]
    if gauges:
        lines.append("")
        lines.append("gauges:")
        for metric in gauges:
            lines.append(f"  {metric.name:<32} {metric.value}")

    stages = registry.series("repro_stage_seconds")
    if any(h.count for h in stages):
        lines.append("")
        lines.append("pipeline stages:")
        lines.append(f"  {'stage':<14} {'count':>5} {'total':>10} {'mean':>10}")
        for hist in stages:
            if not hist.count:
                continue
            stage = dict(hist.labels).get("stage", "?")
            lines.append(f"  {stage:<14} {hist.count:>5} "
                         f"{_fmt_seconds(hist.sum):>10} "
                         f"{_fmt_seconds(hist.mean):>10}")

    syscalls = [h for h in registry.series("repro_wasi_syscall_seconds")
                if h.count]
    if syscalls:
        syscalls.sort(key=lambda h: -h.sum)
        lines.append("")
        lines.append("WASI syscalls (by total host-boundary time):")
        lines.append(f"  {'syscall':<20} {'count':>8} {'total':>10} "
                     f"{'mean':>10}")
        for hist in syscalls:
            syscall = dict(hist.labels).get("syscall", "?")
            lines.append(f"  {syscall:<20} {hist.count:>8} "
                         f"{_fmt_seconds(hist.sum):>10} "
                         f"{_fmt_seconds(hist.mean):>10}")

    hooks = [h for h in registry.series("repro_hook_latency_seconds") if h.count]
    if hooks:
        hooks.sort(key=lambda h: -h.sum)
        lines.append("")
        lines.append(f"hook dispatch latency (top {top} by total time):")
        lines.append(f"  {'hook':<28} {'count':>8} {'mean':>10} "
                     f"{'p50':>10} {'p95':>10}")
        for hist in hooks[:top]:
            hook = dict(hist.labels).get("hook", "?")
            lines.append(f"  {hook:<28} {hist.count:>8} "
                         f"{_fmt_seconds(hist.mean):>10} "
                         f"{_fmt_seconds(hist.quantile(0.5)):>10} "
                         f"{_fmt_seconds(hist.quantile(0.95)):>10}")

    profile = payload.get("profile")
    if profile:
        total = profile.get("total_instructions", 0) or 1
        lines.append("")
        lines.append(f"hot functions (self instructions, of {total} total):")
        functions = list(profile.get("functions", {}).items())[:top]
        for name, count in functions:
            lines.append(f"  {name:<28} {count:>12}  {count / total:>6.1%}")
        lines.append("")
        lines.append("hot opcodes:")
        opcodes = sorted(profile.get("opcodes", {}).items(),
                         key=lambda kv: -kv[1])[:top]
        for name, count in opcodes:
            lines.append(f"  {name:<28} {count:>12}  {count / total:>6.1%}")
        samples = profile.get("samples", {})
        if samples:
            lines.append("")
            lines.append(f"stack samples: {sum(samples.values())} "
                         f"({len(samples)} distinct stacks; "
                         f"collapsed-stack format in the artifact)")

    events = payload.get("events", ())
    if events:
        lines.append("")
        lines.append(f"events ({len(events)}):")
        for event in events[:top]:
            fields = {k: v for k, v in event.items() if k not in ("ts", "kind")}
            detail = " ".join(f"{k}={v}" for k, v in fields.items()
                              if v is not None)
            lines.append(f"  [{event.get('kind')}] {detail}")
        if len(events) > top:
            lines.append(f"  ... and {len(events) - top} more")
    return "\n".join(lines)
