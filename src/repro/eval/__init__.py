"""Evaluation harness: workloads, per-hook sweeps, and report rendering.

The pytest benchmarks under ``benchmarks/`` are thin drivers around this
package; everything here is importable for ad-hoc experimentation too.
"""

from .faithfulness import (FaithfulnessResult, check_workload, run_instrumented,
                           run_original)
from .coverage import (DEFAULT_COVERAGE_MODULES, CoverageCollector,
                       CoverageMap, collect_edges)
from .faultinject import (Classification, Failure, classify, mutant_rng,
                          mutate, regenerate_mutant, replay_failure_bundle,
                          save_failure_bundle, seed_corpus)
from .fuzz import (CORPUS_SCHEMA, MUTATOR_VERSION, CorpusState, FuzzConfig,
                   FuzzResult, bench_payload, fold_into_telemetry,
                   load_corpus_entries, run_fuzz_campaign,
                   save_signature_bundle, signature_key)
from .reduce import (Reduction, reduce_bundle, reduce_bytes, reduce_failure,
                     reduce_invocations)
from .hooks_matrix import (FIGURE_GROUPS, make_full_analysis,
                           make_group_analysis)
from .overhead import (OverheadReport, baseline_runtime, instrumented_runtime,
                       overhead_sweep)
from .report import render_fig8, render_fig9, render_table, render_table5
from .sizes import SizeReport, measure_size, size_sweep
from .timing import (InterpBenchReport, TimingReport, bench_interpreter,
                     geomean_speedup, instrument_binary, interp_bench_payload,
                     time_instrumentation, time_workload)
from .workloads import (POLYBENCH_FAST_SUBSET, Workload, default_workloads,
                        polybench_workloads, realworld_workloads)

__all__ = [
    "CORPUS_SCHEMA", "Classification",
    "CorpusState", "CoverageCollector", "CoverageMap",
    "DEFAULT_COVERAGE_MODULES", "FIGURE_GROUPS", "Failure",
    "FaithfulnessResult", "FuzzConfig", "FuzzResult", "InterpBenchReport",
    "MUTATOR_VERSION",
    "OverheadReport", "POLYBENCH_FAST_SUBSET", "Reduction", "SizeReport",
    "TimingReport",
    "Workload", "baseline_runtime", "bench_interpreter", "bench_payload",
    "check_workload",
    "classify", "collect_edges", "default_workloads", "fold_into_telemetry",
    "geomean_speedup",
    "instrument_binary",
    "instrumented_runtime", "interp_bench_payload", "load_corpus_entries",
    "make_full_analysis",
    "make_group_analysis", "measure_size", "mutant_rng", "mutate",
    "overhead_sweep",
    "polybench_workloads", "realworld_workloads", "reduce_bundle",
    "reduce_bytes", "reduce_failure", "reduce_invocations",
    "regenerate_mutant", "render_fig8",
    "render_fig9", "render_table", "render_table5", "replay_failure_bundle",
    "run_fuzz_campaign", "run_instrumented",
    "run_original", "save_failure_bundle",
    "save_signature_bundle", "seed_corpus", "signature_key",
    "size_sweep", "time_instrumentation", "time_workload",
]
