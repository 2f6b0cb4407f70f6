"""Extension: overhead of the *real* Table-4 analyses (not just empty hooks).

The paper's Figure 9 measures instrumentation overhead with empty
analyses; a natural follow-up question for adopters is what the shipped
analyses cost end-to-end. This benchmark times each Table-4 analysis on one
PolyBench kernel, every run paired with an uninstrumented run of its own
(:func:`repro.eval.timing.bench_engines`), and reports the median pair
ratios, ordered by the hooks they subscribe to (selective instrumentation
at work: the begin-only profiler is far cheaper than the all-hooks taint
analysis).
"""

from __future__ import annotations

from repro.analyses import (BasicBlockProfiler, BranchCoverage,
                            CallGraphAnalysis, CryptominerDetector,
                            InstructionCoverage, InstructionMixAnalysis,
                            MemoryTracer, TaintAnalysis)
from repro.eval import (analysis_config, bench_engines, polybench_workloads,
                        render_table)

ANALYSES = {
    "Basic block profiling": BasicBlockProfiler,
    "Call graph": CallGraphAnalysis,
    "Memory tracing": MemoryTracer,
    "Cryptominer detection": CryptominerDetector,
    "Branch coverage": BranchCoverage,
    "Instruction coverage": InstructionCoverage,
    "Instruction mix": InstructionMixAnalysis,
    "Taint analysis": TaintAnalysis,
}


def test_real_analyses_overhead(write_report):
    workloads = polybench_workloads(["trisolv"])
    configs = {name: analysis_config(cls) for name, cls in ANALYSES.items()}
    (bench,) = bench_engines(workloads, configs, repeats=5)
    rows = [[name, f"{bench.ratio(name):.2f}x"] for name in ANALYSES]
    report = render_table(["Analysis", "Relative runtime (trisolv)"], rows,
                          title="Extension: real Table-4 analyses, end-to-end")
    write_report("analyses_overhead", report)

    # selective instrumentation: narrow analyses are much cheaper than
    # the all-hooks ones
    assert bench.ratio("Basic block profiling") < bench.ratio("Instruction mix")
    assert bench.ratio("Call graph") < bench.ratio("Taint analysis")
