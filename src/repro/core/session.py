"""One-call convenience for instrumenting and running a module under an analysis.

Mirrors the end-to-end flow of the paper's Figure 2: instrument the binary,
generate the low-level hooks, link everything, and execute — with selective
instrumentation derived automatically from which hooks the analysis
overrides.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..interp.host import Linker
from ..interp.limits import ResourceLimits, ResourceUsage
from ..interp.machine import Instance, Machine
from ..wasm.module import Module
from .analysis import Analysis
from .hooks import HOOK_MODULE
from .instrument import (InstrumentationConfig, InstrumentationResult,
                         instrument_module)
from .runtime import WasabiRuntime

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs → interp)
    from ..obs.telemetry import Telemetry


class AnalysisSession:
    """An instrumented module instance wired to an analysis.

    With ``analysis=None`` the session instantiates ``module`` as it is:
    no instrumentation, no runtime, ``result`` and ``runtime`` None. The
    run paths (:mod:`repro.run`) use that for plain runs, so a plain and
    an analysed run differ only in the analysis passed.

    ``limits`` applies :class:`~repro.interp.limits.ResourceLimits` to the
    machine the session constructs (mutually exclusive with passing a
    pre-built ``machine``); ``on_analysis_error`` selects the runtime's
    hook-fault policy (see :class:`~repro.core.runtime.WasabiRuntime`);
    ``telemetry`` attaches one :class:`~repro.obs.telemetry.Telemetry` sink
    to the whole pipeline — the session records an ``instrument`` span and
    shares the sink with the machine (engine counters, ``instantiate``/
    ``invoke`` spans) and the runtime (per-hook latency histograms,
    fault/quarantine events).

    ``replay`` shares one :class:`~repro.interp.replay.Recorder` or
    :class:`~repro.interp.replay.Replayer` between the machine (host calls,
    meter clock reads) and the runtime (hook faults, quarantines), so one
    log captures every nondeterminism source of an analysis run.
    """

    def __init__(self, module: Module, analysis: Analysis | None,
                 linker: Linker | None = None,
                 groups: frozenset[str] | set[str] | None = None,
                 config: InstrumentationConfig | None = None,
                 machine: Machine | None = None,
                 run_start: bool = True,
                 limits: ResourceLimits | None = None,
                 on_analysis_error: str = "raise",
                 telemetry: "Telemetry | None" = None,
                 replay=None):
        if machine is not None and limits is not None:
            raise ValueError(
                "pass either a pre-built machine or limits, not both "
                "(construct the machine with Machine(limits=...) instead)")
        if machine is not None and replay is not None:
            raise ValueError(
                "pass either a pre-built machine or replay, not both "
                "(construct the machine with Machine(replay=...) instead)")
        self.original = module
        self.analysis = analysis
        self.telemetry = telemetry
        self.groups: frozenset[str] = frozenset()
        self.result: InstrumentationResult | None = None
        self.runtime: WasabiRuntime | None = None
        if machine is not None:
            # a pre-built machine brings its own recorder/replayer; the
            # runtime must share it so hook faults land in the same log
            replay = machine._replay
        self.replay = replay
        if analysis is not None:
            if groups is None:
                # selective instrumentation (§2.4.2): only instrument for
                # the hooks the analysis actually overrides
                groups = analysis.used_groups()
            self.groups = frozenset(groups)
            if telemetry is None:
                self.result = instrument_module(
                    module, groups=self.groups, config=config)
            else:
                with telemetry.span("instrument", groups=len(self.groups)):
                    self.result = instrument_module(
                        module, groups=self.groups, config=config)
            self.runtime = WasabiRuntime(self.result, analysis,
                                         on_analysis_error=on_analysis_error,
                                         telemetry=telemetry,
                                         replay=replay)
            linker = linker or Linker()
            for name, host_func in self.runtime.host_functions().items():
                linker.define(HOOK_MODULE, name, host_func)

        self.machine = machine or Machine(limits=limits, replay=replay)
        if telemetry is not None:
            # attach before instantiation so profiled machines decode the
            # instrumented module unfused (idempotent for a shared sink)
            self.machine.attach_telemetry(telemetry)
        if analysis is None:
            self.instance: Instance = self.machine.instantiate(
                module, linker, run_start=run_start)
            return
        # Instantiate without running start: the runtime must be bound (and
        # the high-level start hook fired) before any hook executes.
        self.instance = self.machine.instantiate(
            self.result.module, linker, run_start=False)
        self.runtime.bind(self.instance)
        if run_start and self.result.module.start is not None:
            analysis.start()
            self.machine.call(self.instance, self.result.module.start, [])

    @property
    def module_info(self):
        """Static module info exposed to analyses (``Wasabi.module.info``)."""
        return self.result.info.module_info

    @property
    def hook_faults(self):
        """Contained hook faults recorded by the runtime, in order."""
        return self.runtime.hook_faults if self.runtime is not None else []

    def resource_usage(self) -> ResourceUsage:
        """The machine's resource usage plus the runtime's fault count."""
        usage = self.machine.resource_usage()
        usage.hook_faults = len(self.hook_faults)
        return usage

    def invoke(self, export_name: str,
               args: Sequence[int | float] = ()) -> list[int | float]:
        """Call an exported function of the instrumented instance."""
        return self.instance.invoke(export_name, args)


def analyze(module: Module, analysis: Analysis,
            linker: Linker | None = None,
            entry: str | None = None,
            args: Sequence[int | float] = (),
            **session_kwargs) -> AnalysisSession:
    """Instrument ``module`` for ``analysis``, optionally invoking ``entry``.

    Returns the session so callers can inspect the analysis state or invoke
    further exports.
    """
    session = AnalysisSession(module, analysis, linker=linker, **session_kwargs)
    if entry is not None:
        session.invoke(entry, args)
    return session
