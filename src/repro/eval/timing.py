"""RQ3 and RQ5: time to instrument (paper Table 5) and relative runtimes.

Every timing of the evaluation runs through one loop, :func:`bench_pairs`:
each configuration runs right after a baseline run of its own, and a ratio
is the median of the pair ratios. Each run is one span on one injected
clock: pass ``clock=`` for deterministic tests, or ``tracer=`` to keep the
raw spans (the exporters render them like any pipeline trace).

:func:`time_instrumentation` times the binary→binary pipeline (decode,
instrument for all hooks, re-encode — the work Wasabi's CLI does) for
Table 5. :func:`bench_engines` times configurations against the default
quickened engine: engine options for ``BENCH_engine.json`` and analysis
sessions for Figure 9, the selective ablation and the analyses table (see
:mod:`repro.eval.hooks_matrix`).
"""

from __future__ import annotations

import gc
import statistics
from dataclasses import dataclass
from functools import partial
from typing import Callable

from ..core.instrument import InstrumentationConfig, instrument_module
from ..interp.host import Linker
from ..interp.machine import Machine
from ..obs.spans import Tracer
from ..obs.telemetry import Telemetry
from ..wasm.decoder import decode_module
from ..wasm.encoder import encode_module
from ..wasm.module import Module
from .workloads import Workload


#: Does the untimed set-up of one run (build an instance, a request, a
#: context) and returns the call to time.
Prepare = Callable[[], Callable[[], object]]


@dataclass
class Pairs:
    """Every run of one :func:`bench_pairs` call: each arm's run times in
    run order (``samples``), and each non-baseline arm's time over that of
    the baseline run just before it, one per repeat (``ratios``)."""

    samples: dict[str, list[float]]
    ratios: dict[str, list[float]]

    def ratio(self, arm: str) -> float:
        """The median of the arm's pair ratios."""
        return statistics.median(self.ratios[arm])


def bench_pairs(arms: dict[str, Prepare], repeats: int, *, name: str,
                attrs: dict | None = None,
                clock: Callable[[], float] | None = None,
                tracer: Tracer | None = None) -> Pairs:
    """Time every arm in pairs against the first, the baseline.

    Each repeat runs every other arm right after a baseline run of its own
    (a lone baseline run when there is no other arm), so the two sides of
    a ratio see the host in the same state. Before each run, its arm's
    prepare does the set-up and cyclic garbage is collected, both untimed;
    the call the prepare returns is timed as one ``name`` span tagged with
    ``attrs`` and the arm as ``config``.
    """
    if tracer is None:
        tracer = Tracer(clock=clock) if clock is not None else Tracer()
    baseline, *others = arms
    samples: dict[str, list[float]] = {arm: [] for arm in arms}
    ratios: dict[str, list[float]] = {arm: [] for arm in others}

    def run(arm: str) -> float:
        call = arms[arm]()
        gc.collect()
        with tracer.span(name, **(attrs or {}), config=arm):
            call()
        samples[arm].append(tracer.spans[-1].duration)
        return samples[arm][-1]

    for _ in range(repeats):
        if not others:
            run(baseline)
        for arm in others:
            base = run(baseline)
            ratios[arm].append(run(arm) / base)
    return Pairs(samples, ratios)


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
    samples = bench_pairs(
        {"instrument": lambda: partial(instrument_binary, raw, config)},
        repeats, name="instrument_binary", attrs={"workload": name},
        clock=clock, tracer=tracer).samples["instrument"]
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
    on each configuration, in pairs (:func:`bench_pairs`).

    Each workload's module is built once. Every run gets a fresh runner
    (memory and globals reset); only its invoke is timed, one
    ``workload_invoke`` span per run, tagged with the workload and the
    configuration. Event counts are read from each configuration's last
    run.
    """
    benches = []
    for workload in workloads:
        module = workload.module()
        counters: dict[str, Callable[[], int] | None] = {}

        def arm(config: str, factory: ConfigFactory) -> Prepare:
            def prepare():
                runner, counters[config] = factory(module, workload.linker())
                return partial(runner.invoke, workload.entry, workload.args)
            return prepare

        pairs = bench_pairs(
            {config: arm(config, factory) for config, factory
             in {"default": DEFAULT_CONFIG, **configs}.items()},
            repeats, name="workload_invoke",
            attrs={"workload": workload.name}, clock=clock, tracer=tracer)
        benches.append(EngineBench(
            workload.name,
            {config: min(runs) for config, runs in pairs.samples.items()},
            pairs.ratios,
            {config: count() for config, count in counters.items()
             if count is not None},
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
