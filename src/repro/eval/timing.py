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
    """One workload timed across the interpreter engine configurations.

    Three columns: the legacy string-dispatch loop, the default
    predecoded engine (hand-picked fusion set, no profile), and the same
    engine with the profile-guided fusion table — so the gap between the
    last two is what the PGO table adds. ``opcode_classes`` carries the
    workload's *dynamic* opcode-class mix so per-workload ratios are
    diagnosable.
    """

    name: str
    legacy_seconds: float
    predecoded_seconds: float
    repeats: int
    pgo_seconds: float | None = None
    opcode_classes: dict[str, float] | None = None

    @property
    def predecode_speedup(self) -> float:
        """Default predecoded engine (no profile) vs legacy."""
        if self.predecoded_seconds == 0:
            return float("inf")
        return self.legacy_seconds / self.predecoded_seconds

    @property
    def speedup(self) -> float:
        """The headline ratio: best configuration vs legacy."""
        best = self.pgo_seconds if self.pgo_seconds is not None \
            else self.predecoded_seconds
        if best == 0:
            return float("inf")
        return self.legacy_seconds / best


def time_workload(workload: Workload, repeats: int = 3,
                  predecode: bool | None = None,
                  clock: Callable[[], float] | None = None,
                  tracer: Tracer | None = None,
                  pgo_profile=None) -> float:
    """Best-of-``repeats`` uninstrumented runtime on the chosen engine.

    Instantiates fresh per repeat (memory/globals reset) but times only the
    invoke, so decode cost is excluded — matching how the overhead sweep
    times its baseline. Each repeat is one ``workload_invoke`` span.
    ``pgo_profile`` selects the profile-guided fusion table (predecoded
    machines only).
    """
    if tracer is None:
        tracer = Tracer(clock=clock) if clock is not None else Tracer()
    module = workload.module()
    best = float("inf")
    if predecode is not None and not predecode:
        engine = "legacy"
    elif pgo_profile is not None:
        engine = "pgo"
    else:
        engine = "predecode"
    for _ in range(repeats):
        machine = Machine(predecode=predecode, pgo_profile=pgo_profile)
        instance = machine.instantiate(module, workload.linker())
        elapsed, = measure(
            lambda: instance.invoke(workload.entry, workload.args), 1,
            name="workload_invoke", tracer=tracer,
            attrs={"workload": workload.name, "engine": engine})
        best = min(best, elapsed)
    return best


def bench_interpreter(workloads: list[Workload], repeats: int = 3,
                      clock: Callable[[], float] | None = None,
                      tracer: Tracer | None = None,
                      pgo: bool = True,
                      fusion_table: dict | None = None,
                      profiles: dict[str, dict] | None = None
                      ) -> list[InterpBenchReport]:
    """Time every workload across the engine configurations.

    With ``pgo=True`` this first *closes the profile→dispatch loop*: each
    workload is profiled once (deterministic, unfused stream), the merged
    corpus profile yields the fusion table (unless a pre-derived
    ``fusion_table`` is supplied, e.g. the committed corpus artifact), and
    the PGO column runs with that table. The recorded
    per-workload profiles also supply each report's dynamic opcode-class
    mix.
    """
    from ..interp.pgo import opcode_class_mix, record_workload_profile

    if profiles is None:
        profiles = {}
    if pgo:
        for w in workloads:
            if w.name not in profiles:
                profiles[w.name] = record_workload_profile(w)
        if fusion_table is None:
            from ..interp.pgo import fusion_table_payload, merge_profiles
            fusion_table = fusion_table_payload(
                merge_profiles(list(profiles.values())))
    reports = []
    for workload in workloads:
        legacy = time_workload(workload, repeats, predecode=False,
                               clock=clock, tracer=tracer)
        predecoded = time_workload(workload, repeats, predecode=True,
                                   clock=clock, tracer=tracer)
        pgo_seconds = None
        classes = None
        if pgo:
            pgo_seconds = time_workload(workload, repeats, predecode=True,
                                        pgo_profile=fusion_table,
                                        clock=clock, tracer=tracer)
            classes = opcode_class_mix(profiles[workload.name])
        reports.append(InterpBenchReport(workload.name, legacy, predecoded,
                                         repeats, pgo_seconds=pgo_seconds,
                                         opcode_classes=classes))
    return reports


def geomean_speedup(reports: list[InterpBenchReport]) -> float:
    if not reports:
        return 1.0
    return math.exp(sum(math.log(r.speedup) for r in reports) / len(reports))


def _geomean(values: list[float]) -> float:
    if not values:
        return 1.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def interp_bench_payload(reports: list[InterpBenchReport],
                         fusion_table: dict | None = None) -> dict:
    """The JSON payload recorded as ``BENCH_interp.json``.

    ``geomean_speedup`` is the headline (best configuration vs legacy);
    ``geomean_predecode_speedup`` is the default engine without a profile.
    """
    payload = {
        "workloads": [
            {
                "name": r.name,
                "legacy_seconds": r.legacy_seconds,
                "predecoded_seconds": r.predecoded_seconds,
                "pgo_seconds": r.pgo_seconds,
                "speedup": r.speedup,
                "predecode_speedup": r.predecode_speedup,
                "opcode_classes": r.opcode_classes,
                "repeats": r.repeats,
            }
            for r in reports
        ],
        "geomean_speedup": geomean_speedup(reports),
        "geomean_predecode_speedup": _geomean(
            [r.predecode_speedup for r in reports]),
    }
    if fusion_table is not None:
        payload["fusion_pairs"] = [[first, second]
                                   for first, second, *_ in
                                   fusion_table.get("pairs", [])]
    return payload
