"""RQ5: runtime overhead per hook group (paper Figure 9).

Runs each workload uninstrumented and once per instrumentation
configuration (each hook group alone, plus all hooks), with empty
analyses attached — measuring the cost of the instrumentation machinery
itself, exactly as the paper (and Jalangi's / RoadRunner's empty-analysis
baselines) do.

Timing goes through :func:`repro.obs.spans.measure` (one span per measured
repeat, one injected clock), so sweeps are deterministic under a fake
``clock=`` and can surrender their raw spans via ``tracer=``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..core.session import AnalysisSession
from ..interp.machine import Machine
from ..obs.spans import Tracer, measure
from .hooks_matrix import FIGURE_GROUPS, make_full_analysis, make_group_analysis
from .workloads import Workload


@dataclass
class OverheadReport:
    name: str
    config: str
    baseline_seconds: float
    instrumented_seconds: float

    @property
    def relative_runtime(self) -> float:
        """1.0x = no overhead (the paper's y-axis)."""
        if self.baseline_seconds == 0:
            return float("inf")
        return self.instrumented_seconds / self.baseline_seconds


def _time_run(invoke, repeats: int, name: str = "bench_invoke",
              clock: Callable[[], float] | None = None,
              tracer: Tracer | None = None,
              attrs: dict | None = None) -> float:
    """Best-of-``repeats`` through the shared span measurement path."""
    return min(measure(invoke, repeats, name=name, tracer=tracer,
                       clock=clock, attrs=attrs))


def baseline_runtime(workload: Workload, repeats: int = 3,
                     predecode: bool | None = None,
                     clock: Callable[[], float] | None = None,
                     tracer: Tracer | None = None) -> float:
    """Uninstrumented runtime; ``predecode`` selects the engine
    (None = the :envvar:`REPRO_PREDECODE` default)."""
    machine = Machine(predecode=predecode)
    instance = machine.instantiate(workload.module(), workload.linker())
    return _time_run(lambda: instance.invoke(workload.entry, workload.args),
                     repeats, name="baseline_invoke", clock=clock,
                     tracer=tracer, attrs={"workload": workload.name})


def instrumented_runtime(workload: Workload, config: str,
                         repeats: int = 3,
                         predecode: bool | None = None,
                         clock: Callable[[], float] | None = None,
                         tracer: Tracer | None = None) -> float:
    """Instrumented runtime under one hook configuration."""
    if config == "all":
        analysis = make_full_analysis()
        groups = None
    else:
        analysis = make_group_analysis(config)
        groups = frozenset({config})
    session = AnalysisSession(workload.module(), analysis,
                              linker=workload.linker(), groups=groups,
                              machine=Machine(predecode=predecode))
    return _time_run(lambda: session.invoke(workload.entry, workload.args),
                     repeats, name="instrumented_invoke", clock=clock,
                     tracer=tracer,
                     attrs={"workload": workload.name, "config": config})


def overhead_sweep(workload: Workload, configs: list[str] | None = None,
                   repeats: int = 3, include_all: bool = True,
                   predecode: bool | None = None,
                   clock: Callable[[], float] | None = None,
                   tracer: Tracer | None = None) -> list[OverheadReport]:
    """Relative runtime for every hook group (Figure 9's x-axis)."""
    baseline = baseline_runtime(workload, repeats, predecode=predecode,
                                clock=clock, tracer=tracer)
    reports = []
    for config in (configs or FIGURE_GROUPS):
        elapsed = instrumented_runtime(workload, config, repeats,
                                       predecode=predecode,
                                       clock=clock, tracer=tracer)
        reports.append(OverheadReport(workload.name, config, baseline, elapsed))
    if include_all:
        elapsed = instrumented_runtime(workload, "all", repeats,
                                       predecode=predecode,
                                       clock=clock, tracer=tracer)
        reports.append(OverheadReport(workload.name, "all", baseline, elapsed))
    return reports
