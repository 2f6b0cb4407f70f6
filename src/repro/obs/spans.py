"""Span tracing for the instrumentation pipeline, with three exporters.

A *span* is one timed region — ``decode``, ``validate``, ``instrument``,
``encode``, ``instantiate``, ``invoke`` — recorded with its start time,
duration, nesting depth, and free-form attributes. The :class:`Tracer`
collects spans with a *single injected clock* (the same discipline as
:class:`repro.interp.limits.Meter`), so tests drive it with a fake clock
and every bench artifact derives from the identical time source.

Distributed tracing: a tracer can carry a *trace identity* — a 128-bit
trace id plus per-span ids with parent links. The identity is optional;
tracers without one (the default, and everything that existed before the
service layer) record id-less spans at zero extra cost. A
:class:`SpanContext` is the serializable form carried across the
``repro.serve/1`` wire, so the client, daemon, and worker processes each
continue one trace: the daemon parents its spans under the client's
request span, the worker under the daemon's, and the merged export shows
queue wait, supervision, and guest execution as one stitched tree.
Cross-process timestamps align because ``time.perf_counter`` reads
``CLOCK_MONOTONIC`` on Linux, which is shared by every process on the
machine.

Exporters:

* :func:`spans_to_jsonl` — one JSON object per line, trivially greppable
  and streamable (:func:`spans_from_jsonl` is its inverse);
* :func:`spans_to_chrome_trace` — the Chrome trace-event JSON format
  (complete ``"ph": "X"`` events, microsecond timestamps), loadable in
  ``chrome://tracing`` and https://ui.perfetto.dev; spans tagged with a
  ``process`` render as separate process tracks on one shared timeline;
* the Prometheus path: the telemetry façade folds span durations into a
  ``repro_stage_seconds`` histogram per stage name (see
  :mod:`repro.obs.telemetry`).

The evaluation harness times every run as a span too
(:func:`repro.eval.timing.bench_pairs` opens one per run on a tracer like
these), so BENCH artifacts and traces cannot drift onto different clocks.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Callable

#: Span fields that ride in Chrome trace-event ``args`` but are not
#: user attributes; the chrome-trace importer pops them back out.
_ID_ARG_KEYS = ("trace_id", "span_id", "parent_id")


def new_id(nbytes: int = 8) -> str:
    """A fresh random hex id; unique across processes (``os.urandom``)."""
    return os.urandom(nbytes).hex()


class SpanContext:
    """The serializable trace position carried across process boundaries.

    ``trace_id`` names the whole trace; ``span_id`` names the span that
    remote work should parent under. The dict form is what travels inside
    ``repro.serve/1`` messages.
    """

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str | None = None):
        self.trace_id = trace_id
        self.span_id = span_id

    def as_dict(self) -> dict:
        out = {"trace_id": self.trace_id}
        if self.span_id is not None:
            out["span_id"] = self.span_id
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "SpanContext":
        return cls(str(payload["trace_id"]), payload.get("span_id"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpanContext({self.trace_id!r}, span={self.span_id!r})"


class Span:
    """One completed timed region."""

    __slots__ = ("name", "start", "duration", "depth", "attrs",
                 "trace_id", "span_id", "parent_id", "process")

    def __init__(self, name: str, start: float, duration: float,
                 depth: int = 0, attrs: dict | None = None, *,
                 trace_id: str | None = None, span_id: str | None = None,
                 parent_id: str | None = None, process: str | None = None):
        self.name = name
        self.start = start
        self.duration = duration
        self.depth = depth
        self.attrs = attrs or {}
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.process = process

    def as_dict(self) -> dict:
        out = {"name": self.name, "start": self.start,
               "duration": self.duration, "depth": self.depth,
               "attrs": self.attrs}
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        if self.span_id is not None:
            out["span_id"] = self.span_id
        if self.parent_id is not None:
            out["parent_id"] = self.parent_id
        if self.process is not None:
            out["process"] = self.process
        return out

    @classmethod
    def from_dict(cls, entry: dict) -> "Span":
        return cls(entry["name"], entry["start"], entry["duration"],
                   entry.get("depth", 0), entry.get("attrs") or {},
                   trace_id=entry.get("trace_id"),
                   span_id=entry.get("span_id"),
                   parent_id=entry.get("parent_id"),
                   process=entry.get("process"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration * 1e3:.3f}ms, depth={self.depth})"


class Tracer:
    """Collects spans; nesting is tracked by an explicit depth counter.

    The clock is injected (default :func:`time.perf_counter`); all span
    timestamps come from it and nothing else, so a deterministic fake clock
    yields deterministic spans.

    Trace identity is opt-in: pass ``context`` (a remote parent to continue
    under) or call :meth:`ensure_trace` to start a fresh trace. Without an
    identity the tracer behaves exactly as before — id-less spans, no id
    generation. ``id_source`` is injectable for deterministic tests;
    ``process`` tags every recorded span with a process-track name for the
    merged cross-process export.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter, *,
                 context: SpanContext | None = None,
                 process: str | None = None,
                 id_source: Callable[[], str] = new_id):
        self.clock = clock
        self.spans: list[Span] = []
        self.process = process
        self.trace_id = context.trace_id if context is not None else None
        self._root_parent = context.span_id if context is not None else None
        self._id_source = id_source
        self._depth = 0
        self._open: list[str] = []

    def ensure_trace(self) -> str:
        """Start a trace identity if there is none yet; returns the id."""
        if self.trace_id is None:
            self.trace_id = self._id_source()
        return self.trace_id

    def current_context(self) -> SpanContext | None:
        """The context remote work should continue under, or ``None``."""
        if self.trace_id is None:
            return None
        parent = self._open[-1] if self._open else self._root_parent
        return SpanContext(self.trace_id, parent)

    @contextmanager
    def span(self, name: str, **attrs):
        """Time a region; the span is recorded when the region exits.

        Spans are appended in *completion* order (children before parents),
        with ``depth`` recording the nesting level at entry.
        """
        depth = self._depth
        self._depth += 1
        span_id = parent_id = None
        if self.trace_id is not None:
            span_id = self._id_source()
            parent_id = self._open[-1] if self._open else self._root_parent
            self._open.append(span_id)
        start = self.clock()
        try:
            yield
        finally:
            duration = self.clock() - start
            self._depth -= 1
            if span_id is not None:
                self._open.pop()
            self.spans.append(Span(name, start, duration, depth, attrs or None,
                                   trace_id=self.trace_id, span_id=span_id,
                                   parent_id=parent_id, process=self.process))

    def record(self, name: str, start: float, duration: float, **attrs) -> Span:
        """Record an already-timed region (hot paths avoid the context
        manager); ids and parenting follow the currently open span."""
        span_id = parent_id = None
        if self.trace_id is not None:
            span_id = self._id_source()
            parent_id = self._open[-1] if self._open else self._root_parent
        span = Span(name, start, duration, self._depth, attrs or None,
                    trace_id=self.trace_id, span_id=span_id,
                    parent_id=parent_id, process=self.process)
        self.spans.append(span)
        return span

    def adopt(self, entries: list[dict] | None,
              default_process: str | None = None) -> int:
        """Fold remote span dicts (e.g. from a ``repro.serve/1`` response)
        into this tracer; returns the number adopted."""
        if not entries:
            return 0
        for entry in entries:
            span = Span.from_dict(entry)
            if span.process is None:
                span.process = default_process
            self.spans.append(span)
        return len(entries)

    def durations(self, name: str) -> list[float]:
        """Durations of every completed span called ``name``, in order."""
        return [span.duration for span in self.spans if span.name == name]


# -- exporters ----------------------------------------------------------------


def spans_to_jsonl(spans: list[Span]) -> str:
    """One JSON object per line; inverse of :func:`spans_from_jsonl`."""
    return "\n".join(json.dumps(span.as_dict(), sort_keys=True)
                     for span in spans) + ("\n" if spans else "")


def spans_from_jsonl(text: str) -> list[Span]:
    spans = []
    for line in text.splitlines():
        if not line.strip():
            continue
        spans.append(Span.from_dict(json.loads(line)))
    return spans


def spans_to_chrome_trace(spans: list[Span],
                          process_name: str = "repro") -> dict:
    """Chrome trace-event JSON (the dict; dump with ``json.dumps``).

    Timestamps are microseconds relative to the earliest span, which keeps
    them small and origin-independent (``perf_counter`` has an arbitrary
    epoch). Spans sharing a ``process`` tag land on one pid (untagged spans
    on ``process_name``), with one ``process_name`` metadata event per pid;
    a single-process trace renders exactly as before. Span/parent ids, when
    present, ride in ``args`` so Perfetto shows the cross-process links.
    """
    origin = min((span.start for span in spans), default=0.0)
    pids: dict[str, int] = {}
    events: list[dict] = []
    for span in spans:
        name = span.process or process_name
        if name not in pids:
            pids[name] = len(pids) + 1
            events.append({
                "name": "process_name", "ph": "M", "pid": pids[name],
                "tid": 1, "args": {"name": name},
            })
    if not pids:  # keep the metadata event for empty traces
        events.append({
            "name": "process_name", "ph": "M", "pid": 1, "tid": 1,
            "args": {"name": process_name},
        })
    for span in spans:
        args = dict(span.attrs)
        if span.trace_id is not None:
            args["trace_id"] = span.trace_id
        if span.span_id is not None:
            args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        events.append({
            "name": span.name,
            "cat": "repro",
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": span.duration * 1e6,
            "pid": pids[span.process or process_name],
            "tid": 1,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def spans_from_chrome_trace(payload: dict) -> list[Span]:
    """Inverse of :func:`spans_to_chrome_trace` (depth is not recoverable)."""
    names: dict[int, str] = {}
    for event in payload.get("traceEvents", ()):
        if event.get("ph") == "M" and event.get("name") == "process_name":
            names[event.get("pid", 1)] = (event.get("args") or {}).get("name")
    multi = len(names) > 1
    spans = []
    for event in payload.get("traceEvents", ()):
        if event.get("ph") != "X":
            continue
        args = dict(event.get("args") or {})
        ids = {key: args.pop(key, None) for key in _ID_ARG_KEYS}
        spans.append(Span(event["name"], event["ts"] / 1e6,
                          event["dur"] / 1e6, 0, args,
                          trace_id=ids["trace_id"], span_id=ids["span_id"],
                          parent_id=ids["parent_id"],
                          process=names.get(event.get("pid")) if multi else None))
    return spans

