"""RQ3: time to instrument (paper Table 5) and raw interpreter timing.

Measures the full binary→binary pipeline: decode the ``.wasm`` bytes,
instrument for all hooks, re-encode — the same work Wasabi's CLI does.
Reports mean ± stddev over repetitions, and throughput in MB/s.

Also times the two interpreter engines against each other (the legacy
string-dispatch loop vs. the pre-decoded threaded loop), which backs the
``BENCH_interp.json`` artifact the CI perf floor is anchored to.

All timing funnels through :func:`repro.obs.spans.measure`, so every
measured repeat is a span over one injected clock: pass ``clock=`` for
deterministic tests, or ``tracer=`` to keep the raw spans alongside the
aggregated report (the exporters then render them like any pipeline trace).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Callable

from ..core.instrument import InstrumentationConfig, instrument_module
from ..interp.machine import Machine
from ..obs.spans import Tracer, measure
from ..obs.telemetry import Telemetry
from ..wasm.decoder import decode_module
from ..wasm.encoder import encode_module
from ..wasm.module import Module
from .workloads import Workload


@dataclass
class TimingReport:
    name: str
    binary_bytes: int
    mean_seconds: float
    stdev_seconds: float
    repeats: int

    @property
    def throughput_mb_per_s(self) -> float:
        return (self.binary_bytes / 1e6) / self.mean_seconds


def instrument_binary(raw: bytes,
                      config: InstrumentationConfig | None = None) -> bytes:
    """The binary→binary pipeline being timed."""
    module = decode_module(raw)
    result = instrument_module(module, config=config)
    return encode_module(result.module)


def time_instrumentation(name: str, module: Module, repeats: int = 5,
                         config: InstrumentationConfig | None = None,
                         clock: Callable[[], float] | None = None,
                         tracer: Tracer | None = None) -> TimingReport:
    raw = encode_module(module)
    samples = measure(lambda: instrument_binary(raw, config), repeats,
                      name="instrument_binary", tracer=tracer, clock=clock,
                      attrs={"workload": name})
    return TimingReport(
        name=name, binary_bytes=len(raw),
        mean_seconds=statistics.mean(samples),
        stdev_seconds=statistics.stdev(samples) if len(samples) > 1 else 0.0,
        repeats=repeats)


# -- interpreter engine timing (predecoded vs. legacy dispatch) ---------------


@dataclass
class InterpBenchReport:
    """One workload timed on both interpreter engines: the legacy
    string-dispatch loop and the quickened predecoded engine.
    ``opcode_classes`` carries the workload's *dynamic* opcode-class mix so
    per-workload ratios are diagnosable.
    """

    name: str
    legacy_seconds: float
    predecoded_seconds: float
    repeats: int
    opcode_classes: dict[str, float]

    @property
    def speedup(self) -> float:
        """Legacy loop time over predecoded-engine time."""
        if self.predecoded_seconds == 0:
            return float("inf")
        return self.legacy_seconds / self.predecoded_seconds


def time_workload(workload: Workload, repeats: int = 3,
                  predecode: bool | None = None,
                  clock: Callable[[], float] | None = None,
                  tracer: Tracer | None = None) -> float:
    """Best-of-``repeats`` uninstrumented runtime on the chosen engine.

    Instantiates fresh per repeat (memory/globals reset) but times only the
    invoke, so decode cost is excluded — matching how the overhead sweep
    times its baseline. Each repeat is one ``workload_invoke`` span.
    """
    if tracer is None:
        tracer = Tracer(clock=clock) if clock is not None else Tracer()
    module = workload.module()
    best = float("inf")
    engine = "legacy" if predecode is not None and not predecode else "predecode"
    for _ in range(repeats):
        machine = Machine(predecode=predecode)
        instance = machine.instantiate(module, workload.linker())
        elapsed, = measure(
            lambda: instance.invoke(workload.entry, workload.args), 1,
            name="workload_invoke", tracer=tracer,
            attrs={"workload": workload.name, "engine": engine})
        best = min(best, elapsed)
    return best


def opcode_class_mix(workload: Workload) -> dict[str, float]:
    """``{class: share_of_executed_instructions}`` of one profiled run,
    descending — a memory-heavy mix explains a memory-bound ratio."""
    telemetry = Telemetry(profile=True)
    instance = Machine(predecode=True, telemetry=telemetry).instantiate(
        workload.module(), workload.linker())
    instance.invoke(workload.entry, workload.args)
    profiler = telemetry.profiler
    total = profiler.total_instructions or 1
    return {cls: count / total
            for cls, count in sorted(profiler.opcode_class_counts().items(),
                                     key=lambda kv: (-kv[1], kv[0]))}


def bench_interpreter(workloads: list[Workload], repeats: int = 3,
                      clock: Callable[[], float] | None = None,
                      tracer: Tracer | None = None
                      ) -> list[InterpBenchReport]:
    """Time every workload on both engines, with its opcode-class mix."""
    reports = []
    for workload in workloads:
        legacy = time_workload(workload, repeats, predecode=False,
                               clock=clock, tracer=tracer)
        predecoded = time_workload(workload, repeats, predecode=True,
                                   clock=clock, tracer=tracer)
        reports.append(InterpBenchReport(workload.name, legacy, predecoded,
                                         repeats, opcode_class_mix(workload)))
    return reports


def geomean_speedup(reports: list[InterpBenchReport]) -> float:
    if not reports:
        return 1.0
    return math.exp(sum(math.log(r.speedup) for r in reports) / len(reports))


def interp_bench_payload(reports: list[InterpBenchReport]) -> dict:
    """The JSON payload recorded as ``BENCH_interp.json``; the headline is
    ``geomean_speedup`` (legacy over predecoded)."""
    return {
        "workloads": [
            {
                "name": r.name,
                "legacy_seconds": r.legacy_seconds,
                "predecoded_seconds": r.predecoded_seconds,
                "speedup": r.speedup,
                "opcode_classes": r.opcode_classes,
                "repeats": r.repeats,
            }
            for r in reports
        ],
        "geomean_speedup": geomean_speedup(reports),
    }
