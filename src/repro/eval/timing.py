"""RQ3: time to instrument (paper Table 5) and raw interpreter timing.

Measures the full binary→binary pipeline: decode the ``.wasm`` bytes,
instrument for all hooks, re-encode — the same work Wasabi's CLI does.
Reports mean ± stddev over repetitions, and throughput in MB/s.

Also times engine configurations (the legacy loop, metering, telemetry,
recording) against the default quickened engine, interleaved round by
round, which backs ``BENCH_engine.json`` and the CI floors read from it.

All timing funnels through :func:`repro.obs.spans.measure`, so every
measured repeat is a span over one injected clock: pass ``clock=`` for
deterministic tests, or ``tracer=`` to keep the raw spans alongside the
aggregated report (the exporters then render them like any pipeline trace).
"""

from __future__ import annotations

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


# -- engine configurations, timed interleaved ---------------------------------

#: Builds a fresh machine for one timed run. Returns it with a reader of the
#: guarded events that run charged, or None when the configuration counts none.
MachineFactory = Callable[[], "tuple[Machine, Callable[[], int] | None]"]


@dataclass
class EngineBench:
    """One workload timed on the default engine and on each configuration.

    ``seconds`` (best invoke time) is keyed by configuration, ``"default"``
    included; ``events`` holds the counts of the configurations that report
    one. ``opcode_classes`` is the workload's *dynamic* opcode-class mix, so
    per-workload ratios are diagnosable.
    """

    name: str
    seconds: dict[str, float]
    events: dict[str, int]
    opcode_classes: dict[str, float]

    def ratio(self, config: str) -> float:
        """The configuration's best time over the default engine's."""
        return self.seconds[config] / self.seconds["default"]


def bench_engines(workloads: list[Workload],
                  configs: dict[str, MachineFactory], repeats: int = 3,
                  clock: Callable[[], float] | None = None,
                  tracer: Tracer | None = None) -> list[EngineBench]:
    """Best-of-``repeats`` invoke time of every workload on the default
    (quickened) engine and on each configuration, interleaved.

    Each workload's module is built once. Every repeat runs the default
    engine and then each configuration once, on a fresh instance (memory
    and globals reset), so both sides of every ratio come from the same
    rounds. Only the invoke is timed: one ``workload_invoke`` span per run,
    tagged with the workload and the configuration.
    """
    if tracer is None:
        tracer = Tracer(clock=clock) if clock is not None else Tracer()
    factories = {"default": lambda: (Machine(predecode=True), None), **configs}
    benches = []
    for workload in workloads:
        module = workload.module()
        seconds = dict.fromkeys(factories, float("inf"))
        events: dict[str, int] = {}
        for _ in range(repeats):
            for config, factory in factories.items():
                machine, count = factory()
                instance = machine.instantiate(module, workload.linker())
                elapsed, = measure(
                    lambda: instance.invoke(workload.entry, workload.args), 1,
                    name="workload_invoke", tracer=tracer,
                    attrs={"workload": workload.name, "config": config})
                seconds[config] = min(seconds[config], elapsed)
                if count is not None:
                    events[config] = count()
        benches.append(EngineBench(workload.name, seconds, events,
                                   _opcode_class_mix(workload, module)))
    return benches


def _opcode_class_mix(workload: Workload, module: Module) -> dict[str, float]:
    """``{class: share_of_executed_instructions}`` of one profiled run,
    descending — a memory-heavy mix explains a memory-bound ratio."""
    telemetry = Telemetry(profile=True)
    instance = Machine(predecode=True, telemetry=telemetry).instantiate(
        module, workload.linker())
    instance.invoke(workload.entry, workload.args)
    profiler = telemetry.profiler
    total = profiler.total_instructions or 1
    return {cls: count / total
            for cls, count in sorted(profiler.opcode_class_counts().items(),
                                     key=lambda kv: (-kv[1], kv[0]))}
