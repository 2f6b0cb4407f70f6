"""§4.5: on-demand monomorphization — number of generated low-level hooks.

The paper reports 110–122 hooks for PolyBench programs, 302 for PSPDFKit,
and 783 for the Unreal Engine under full instrumentation, versus an
astronomically large eager count (4^22 ≈ 1.7e13 for the UE4 binary's widest
call). This benchmark reproduces the measurement and the comparison.
"""

from __future__ import annotations

from repro.core import eager_hook_count, instrument_module
from repro.eval import render_table
from repro.workloads import engine_demo, pdf_toolkit
from repro.workloads.polybench import compile_kernel, kernel_names


def test_monomorphization_counts(write_report):
    poly_counts = {name: instrument_module(compile_kernel(name)).hook_count
                   for name in kernel_names()}
    pdf_result = instrument_module(pdf_toolkit())
    engine_result = instrument_module(engine_demo())

    def widest_call(module):
        return max(len(t.params) for t in module.types)

    engine_widest = widest_call(engine_demo())
    rows = [
        ["PolyBench (min..max)",
         f"{min(poly_counts.values())}..{max(poly_counts.values())}",
         f"4^6 = {4 ** 6:,} (calls with 6 args are common)"],
        ["pdf_toolkit", pdf_result.hook_count,
         f"4^{widest_call(pdf_toolkit())} = {4 ** widest_call(pdf_toolkit()):,}"],
        ["engine_demo", engine_result.hook_count,
         f"4^{engine_widest} = {4 ** engine_widest:.2e}"],
    ]
    report = render_table(
        ["Program", "On-demand hooks", "Eager lower bound (call hooks alone)"],
        rows, title="Section 4.5: on-demand monomorphization")
    write_report("sec45_monomorphization", report)

    # shape: on-demand counts are O(100); eager counts are astronomical
    assert max(poly_counts.values()) < 400
    assert pdf_result.hook_count < engine_result.hook_count < 2000
    assert eager_hook_count(engine_widest) > 10 ** 6
    # larger, more diverse binaries need more hooks (paper: 122 < 302 < 783)
    assert max(poly_counts.values()) < engine_result.hook_count

    # every generated hook corresponds to a distinct (kind, payload)
    names = [spec.name for spec in engine_result.info.hooks]
    assert len(names) == len(set(names))
