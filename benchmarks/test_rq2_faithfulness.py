"""RQ2 (§4.3) as a benchmark: faithfulness + validation over the whole suite.

The paper compares program outputs before/after full instrumentation for
all 32 programs and runs wasm-validate on every instrumented binary, plus
the 63-program spec suite. We report the same counts over our suite
(30 PolyBench + 2 real-world stand-ins + the generated spec corpus).
"""

from __future__ import annotations

from repro.core import instrument_module
from repro.eval import (check_workload, make_full_analysis,
                        polybench_workloads, realworld_workloads, render_table)
from repro.interp import Linker, Machine
from repro.wasm import Trap, validate_module
from repro.workloads.spec_corpus import corpus


def test_rq2(write_report):
    rows = []
    failures = []
    workloads = polybench_workloads() + realworld_workloads()
    for workload in workloads:
        result = check_workload(workload)
        if not result.ok:
            failures.append(workload.name)
    rows.append(["application programs", len(workloads),
                 len(workloads) - len(failures)])

    corpus_ok = 0
    programs = corpus()
    machine = Machine()
    for program in programs:
        result = instrument_module(program.module)
        validate_module(result.module)
        from repro.core.runtime import WasabiRuntime
        from repro.core.hooks import HOOK_MODULE

        runtime = WasabiRuntime(result, make_full_analysis())
        linker = Linker()
        for name, hf in runtime.host_functions().items():
            linker.define(HOOK_MODULE, name, hf)
        original = machine.instantiate(program.module)
        instrumented = machine.instantiate(result.module, linker)
        runtime.bind(instrumented)
        try:
            expected = original.invoke(program.entry, program.args)
            actual = instrumented.invoke(program.entry, program.args)
            corpus_ok += expected == actual
        except Trap:
            try:
                instrumented.invoke(program.entry, program.args)
            except Trap:
                corpus_ok += 1
    rows.append(["spec-corpus programs", len(programs), corpus_ok])

    report = render_table(
        ["Suite", "Programs", "Faithful + valid"], rows,
        title="RQ2: faithfulness of execution (paper §4.3)")
    write_report("rq2_faithfulness", report)

    assert not failures, f"unfaithful workloads: {failures}"
    assert corpus_ok == len(programs)
