"""Per-hook-group analyses for the Figures 8/9 sweeps.

The paper's RQ4/RQ5 instrument each program once per hook group (selective
instrumentation) and once for all hooks. The helpers below build "empty"
analyses — hooks that are called but do nothing, mirroring the empty
analyses used to measure framework overhead in Jalangi/RoadRunner — that
trigger instrumentation of exactly the groups asked for (or all of them),
and the configurations :func:`repro.eval.timing.bench_engines` times them
under for Figure 9.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from ..core.analysis import ALL_GROUPS, HOOK_METHOD_TO_GROUP, Analysis
from ..core.session import AnalysisSession
from ..interp.machine import Machine
from .timing import ConfigFactory

#: The x-axis order of the paper's Figures 8 and 9.
FIGURE_GROUPS = [
    "nop", "unreachable", "memory_size", "memory_grow", "select", "drop",
    "load", "store", "call", "return", "const", "unary", "binary", "global",
    "local", "begin", "end", "if", "br", "br_if", "br_table",
]

assert set(FIGURE_GROUPS) == set(ALL_GROUPS)

_GROUP_TO_METHODS: dict[str, list[str]] = {}
for _method, _group in HOOK_METHOD_TO_GROUP.items():
    _GROUP_TO_METHODS.setdefault(_group, []).append(_method)


def _noop_hook(*args, **kwargs) -> None:
    pass


def make_group_analysis(*groups: str) -> Analysis:
    """An analysis that implements exactly the hooks of ``groups`` (no-ops)."""
    cls = type(f"Empty_{'_'.join(groups)}_Analysis", (Analysis,),
               {method: _noop_hook
                for group in groups for method in _GROUP_TO_METHODS[group]})
    return cls()


def make_full_analysis() -> Analysis:
    """An empty analysis implementing *all* hooks (the paper's "all" bars)."""
    cls = type("EmptyFullAnalysis", (Analysis,),
               {method: _noop_hook for method in HOOK_METHOD_TO_GROUP})
    return cls()


def analysis_config(make_analysis: Callable[[], Analysis]) -> ConfigFactory:
    """A configuration running a fresh ``make_analysis()`` on the default
    engine, the module instrumented for exactly the hooks it implements."""
    return lambda module, linker: (
        AnalysisSession(module, make_analysis(), linker=linker,
                        machine=Machine(predecode=True)), None)


def figure_configs() -> dict[str, ConfigFactory]:
    """Figure 9's 22 configurations: each hook group alone, then all hooks."""
    configs = {group: analysis_config(partial(make_group_analysis, group))
               for group in FIGURE_GROUPS}
    configs["all"] = analysis_config(make_full_analysis)
    return configs
