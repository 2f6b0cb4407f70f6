"""Observability: metrics, span tracing, structured logging, the profiler.

Public surface of the telemetry subsystem. Typical use::

    from repro.obs import Telemetry

    tele = Telemetry(profile=True)
    session = AnalysisSession(module, analysis, telemetry=tele)
    session.run("main", [])
    tele.write_metrics("run.json", usage=session.machine.resource_usage())
    tele.write_trace("run.trace.json")
"""

from .log import (LOG_SCHEMA, FlightRecorder, StructuredLogger,
                  flight_from_jsonl, flight_to_jsonl, get_logger)
from .metrics import (HOOK_LATENCY_BUCKETS, SERVE_LATENCY_BUCKETS,
                      STAGE_SECONDS_BUCKETS, Counter, Gauge, Histogram,
                      MetricsRegistry, parse_prometheus)
from .profiler import DEFAULT_SAMPLE_INTERVAL, Profiler
from .spans import (Span, SpanContext, Tracer, spans_from_chrome_trace,
                    spans_from_jsonl, spans_to_chrome_trace, spans_to_jsonl)
from .telemetry import (METRICS_SCHEMA, Event, Telemetry, maybe_span,
                        render_report)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "HOOK_LATENCY_BUCKETS",
    "STAGE_SECONDS_BUCKETS",
    "SERVE_LATENCY_BUCKETS",
    "parse_prometheus",
    "Span",
    "SpanContext",
    "Tracer",
    "spans_to_jsonl",
    "spans_from_jsonl",
    "spans_to_chrome_trace",
    "spans_from_chrome_trace",
    "Profiler",
    "DEFAULT_SAMPLE_INTERVAL",
    "Event",
    "Telemetry",
    "METRICS_SCHEMA",
    "maybe_span",
    "render_report",
    "StructuredLogger",
    "FlightRecorder",
    "get_logger",
    "LOG_SCHEMA",
    "flight_to_jsonl",
    "flight_from_jsonl",
]
