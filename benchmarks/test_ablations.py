"""Ablation benchmarks for the design choices DESIGN.md calls out.

1. Selective vs full instrumentation (§2.4.2): size and run-time deltas.
2. On-demand vs eager monomorphization (§2.4.3): generated-hook counts.
3. Location arguments (every hook carries two i32 consts): size cost.
4. Parallel instrumentation (§3): wall-clock with a thread pool (the Rust
   original gets ~1.7x on 2 cores; CPython's GIL caps ours near 1.0x, which
   the report makes visible rather than hiding).
"""

from __future__ import annotations

from functools import partial

from repro.core import eager_hook_count, instrument_module
from repro.core.instrument import InstrumentationConfig
from repro.eval import (analysis_config, bench_engines, bench_pairs,
                        make_full_analysis, make_group_analysis,
                        polybench_workloads, render_table)
from repro.wasm.encoder import encode_module
from repro.workloads import engine_demo
from repro.workloads.polybench import compile_kernel


def test_ablation_selective_instrumentation(write_report):
    workload = polybench_workloads(["trisolv"])[0]
    module = workload.module()
    original_size = len(encode_module(module))

    analyses = {
        "call only (call-graph analysis)": partial(make_group_analysis, "call"),
        "begin only (block profiling)": partial(make_group_analysis, "begin"),
        "load+store (memory tracing)": partial(make_group_analysis, "load",
                                               "store"),
        "binary only (cryptominer)": partial(make_group_analysis, "binary"),
        "all hooks": make_full_analysis,
    }
    (bench,) = bench_engines(
        [workload], {label: analysis_config(make)
                     for label, make in analyses.items()}, repeats=5)
    rows = []
    for label, make in analyses.items():
        result = instrument_module(module, groups=make().used_groups())
        size = len(encode_module(result.module))
        rows.append([label,
                     f"{100 * (size - original_size) / original_size:+.0f}%",
                     f"{bench.ratio(label):.2f}x", result.hook_count])
    report = render_table(
        ["Configuration", "Size delta", "Relative runtime", "Hooks"],
        rows, title="Ablation: selective vs full instrumentation (trisolv)")
    write_report("ablation_selective", report)

    # selective instrumentation must be meaningfully cheaper than full
    full_size = rows[-1][1]
    call_size = rows[0][1]
    assert int(call_size.rstrip("%")) < int(full_size.rstrip("%"))


def test_ablation_monomorphization(write_report):
    result = instrument_module(engine_demo())
    on_demand = result.hook_count
    widest = max(len(t.params) for t in engine_demo().types)
    eager = eager_hook_count(widest)
    call_sigs = len({spec.payload for spec in result.info.hooks
                     if spec.kind == "call_pre"})
    report = render_table(
        ["Strategy", "Hooks"],
        [["on-demand (what Wasabi generates)", f"{on_demand:,}"],
         [f"on-demand call_pre variants", f"{call_sigs:,}"],
         [f"eager, calls up to {widest} params", f"{eager:.3e}"]],
        title="Ablation: on-demand vs eager monomorphization (engine_demo)")
    write_report("ablation_monomorphization", report)
    assert on_demand < 2000 < eager


def test_ablation_location_arguments(write_report):
    module = compile_kernel("gemm")
    original = len(encode_module(module))
    with_locations = len(encode_module(instrument_module(module).module))
    config = InstrumentationConfig(emit_locations=False)
    without = len(encode_module(instrument_module(module, config=config).module))
    report = render_table(
        ["Variant", "Size", "Increase"],
        [["original", original, "-"],
         ["instrumented, with (func,instr) location args", with_locations,
          f"{100 * (with_locations - original) / original:+.0f}%"],
         ["instrumented, locations omitted", without,
          f"{100 * (without - original) / original:+.0f}%"]],
        title="Ablation: cost of location arguments (gemm, all hooks)")
    write_report("ablation_locations", report)
    assert original < without < with_locations


def test_ablation_parallel_instrumentation(write_report):
    module = engine_demo(4.0)

    def workers(n: int):
        config = InstrumentationConfig(parallel_workers=n)
        return lambda: partial(instrument_module, module, config=config)

    pairs = bench_pairs({"1": workers(1), "4": workers(4)}, 3,
                        name="instrument_module")
    report = render_table(
        ["Workers", "Seconds", "Speedup"],
        [["1", f"{min(pairs.samples['1']):.3f}", "1.00x"],
         ["4", f"{min(pairs.samples['4']):.3f}",
          f"{1 / pairs.ratio('4'):.2f}x"]],
        title=("Ablation: parallel instrumentation (engine_demo x4). "
               "Paper (Rust, 2 cores): 1.7x; CPython's GIL bounds ours."))
    write_report("ablation_parallel", report)

    # correctness: parallel output contains the same set of hooks
    seq_result = instrument_module(module)
    par_result = instrument_module(
        module, config=InstrumentationConfig(parallel_workers=4))
    assert {s.name for s in seq_result.info.hooks} == \
        {s.name for s in par_result.info.hooks}
