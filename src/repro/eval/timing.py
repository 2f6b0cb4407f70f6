"""RQ3 and RQ5: time to instrument (paper Table 5) and relative runtimes.

Measures the full binary→binary pipeline: decode the ``.wasm`` bytes,
instrument for all hooks, re-encode — the same work Wasabi's CLI does.
Reports mean ± stddev over repetitions, and throughput in MB/s.

Also times configurations against the default quickened engine, each run
paired with a default run of its own: engine options (the legacy loop,
metering, telemetry, recording) for ``BENCH_engine.json`` and its CI
floors, and analysis sessions for Figure 9, the selective ablation and the
analyses table (see :mod:`repro.eval.hooks_matrix`).

All timing funnels through :func:`repro.obs.spans.measure`, so every
measured repeat is a span over one injected clock: pass ``clock=`` for
deterministic tests, or ``tracer=`` to keep the raw spans alongside the
aggregated report (the exporters then render them like any pipeline trace).
"""

from __future__ import annotations

import gc
import statistics
from dataclasses import dataclass
from typing import Callable

from ..core.instrument import InstrumentationConfig, instrument_module
from ..interp.host import Linker
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


# -- configurations, timed in pairs against the default engine ----------------

#: Builds one timed run from the workload's module and a fresh linker.
#: Returns a runner, anything with ``invoke(entry, args)`` (an engine's
#: instance, an analysis session), with a reader of the guarded events that
#: run charged, or None when the configuration counts none.
ConfigFactory = Callable[[Module, Linker],
                         "tuple[object, Callable[[], int] | None]"]


def engine_config(**options) -> ConfigFactory:
    """A configuration running the module on ``Machine(**options)``."""
    return lambda module, linker: (
        Machine(**options).instantiate(module, linker), None)


#: the denominator of every ratio: the quickened engine, no options
DEFAULT_CONFIG = engine_config(predecode=True)


@dataclass
class EngineBench:
    """One workload timed on the default engine and on each configuration.

    ``seconds`` (best invoke time) is keyed by configuration, ``"default"``
    included; ``ratios`` holds each configuration's time over that of the
    default run just before it, one per repeat; ``events`` holds the counts
    of the configurations that report one. ``opcode_classes`` is the
    workload's *dynamic* opcode-class mix, so per-workload ratios are
    diagnosable.
    """

    name: str
    seconds: dict[str, float]
    ratios: dict[str, list[float]]
    events: dict[str, int]
    opcode_classes: dict[str, float]

    def ratio(self, config: str) -> float:
        """The median of the configuration's pair ratios."""
        return statistics.median(self.ratios[config])


def bench_engines(workloads: list[Workload],
                  configs: dict[str, ConfigFactory], repeats: int = 3,
                  clock: Callable[[], float] | None = None,
                  tracer: Tracer | None = None) -> list[EngineBench]:
    """Invoke time of every workload on the default (quickened) engine and
    on each configuration, in pairs.

    Each workload's module is built once. Every repeat runs each
    configuration right after a default run of its own (a lone default run
    when there are no configurations), so the two sides of a ratio see the
    host in the same state. Every run gets a fresh runner (memory and
    globals reset), and cyclic garbage is collected, untimed, before its
    invoke. Only the invoke is timed: one ``workload_invoke`` span per run,
    tagged with the workload and the configuration.
    """
    if tracer is None:
        tracer = Tracer(clock=clock) if clock is not None else Tracer()
    benches = []
    for workload in workloads:
        module = workload.module()
        seconds = dict.fromkeys(["default", *configs], float("inf"))
        ratios: dict[str, list[float]] = {config: [] for config in configs}
        events: dict[str, int] = {}

        def timed(config: str, factory: ConfigFactory) -> float:
            runner, count = factory(module, workload.linker())
            gc.collect()
            elapsed, = measure(
                lambda: runner.invoke(workload.entry, workload.args), 1,
                name="workload_invoke", tracer=tracer,
                attrs={"workload": workload.name, "config": config})
            seconds[config] = min(seconds[config], elapsed)
            if count is not None:
                events[config] = count()
            return elapsed

        for _ in range(repeats):
            if not configs:
                timed("default", DEFAULT_CONFIG)
            for config, factory in configs.items():
                default = timed("default", DEFAULT_CONFIG)
                ratios[config].append(timed(config, factory) / default)
        benches.append(EngineBench(workload.name, seconds, ratios, events,
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
