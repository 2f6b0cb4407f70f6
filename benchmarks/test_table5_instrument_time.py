"""Table 5: time to instrument programs (RQ3).

Times the full binary→binary pipeline (decode, instrument for all hooks,
re-encode) for the 30 PolyBench kernels and the two real-world stand-ins,
reporting mean ± stddev and throughput (MB/s), like the paper's Table 5.
The absolute throughput differs (Python vs Rust, and our binaries are
scaled down); the paper-shape claims that must hold are (a) small binaries
instrument near-instantaneously relative to the big ones and (b) throughput
does not degrade for larger binaries.
"""

from __future__ import annotations

from repro.eval import instrument_binary, render_table5, time_instrumentation
from repro.wasm.encoder import encode_module
from repro.workloads import engine_demo, pdf_toolkit
from repro.workloads.polybench import compile_kernel, kernel_names

from conftest import full_run


def test_table5(write_report):
    repeats = 5 if full_run() else 3
    reports = []
    for name in kernel_names():
        reports.append(time_instrumentation(
            f"polybench/{name}", compile_kernel(name), repeats=repeats))
    # larger stand-ins to make throughput comparable across sizes
    pdf = pdf_toolkit(4.0)
    engine = engine_demo(8.0)
    pdf_report = time_instrumentation("pdf_toolkit (scale 4)", pdf,
                                      repeats=repeats)
    engine_report = time_instrumentation("engine_demo (scale 8)", engine,
                                         repeats=repeats)
    reports += [pdf_report, engine_report]
    write_report("table5_instrument_time", render_table5(reports))

    polybench = [r for r in reports if r.name.startswith("polybench")]
    mean_poly = sum(r.mean_seconds for r in polybench) / len(polybench)
    # shape: small kernels instrument much faster than the big binaries
    assert mean_poly < engine_report.mean_seconds
    # shape: throughput is not dramatically worse on the big binary
    # (the paper observes throughput *increasing* with size)
    mean_tp = sum(r.throughput_mb_per_s for r in polybench) / len(polybench)
    assert engine_report.throughput_mb_per_s > 0.3 * mean_tp

    # the timed pipeline emits the instrumented binary (engine_demo x8)
    raw = encode_module(engine)
    assert len(instrument_binary(raw)) > len(raw)
