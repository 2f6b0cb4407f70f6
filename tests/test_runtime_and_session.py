"""The Wasabi runtime (low-level → high-level dispatch) and session glue."""

import sys

import pytest

from repro.core import (Analysis, AnalysisSession, analyze, instrument_module)
from repro.core.hooks import HOOK_MODULE
from repro.core.instrument import InstrumentationConfig
from repro.core.runtime import WasabiRuntime, _part_extractors
from repro.interp import Linker, Machine
from repro.minic import compile_source
from repro.wasm import encode_module, validate_module
from repro.wasm.types import F32, F64, I32, I64


def _present(valtype, raw):
    """One canonical value through the runtime's presentation converter
    (i64 values cross the boundary as two i32 halves)."""
    present = _part_extractors((valtype,))[1][0]
    return present([raw & 0xFFFFFFFF, raw >> 32] if valtype is I64 else [raw])


class TestValuePresentation:
    def test_i32_signed(self):
        assert _present(I32, 0xFFFFFFFF) == -1
        assert _present(I32, 5) == 5

    def test_i64_signed(self):
        assert _present(I64, (1 << 64) - 1) == -1
        assert _present(I64, 1 << 62) == 1 << 62

    def test_floats_untouched(self):
        assert _present(F32, 1.5) == 1.5
        assert _present(F64, -0.0) == 0.0


class TestHookImports:
    def test_hook_import_module_name(self, fib_module):
        result = instrument_module(fib_module)
        hook_imports = [imp for imp in result.module.imports
                        if imp.module == HOOK_MODULE]
        assert len(hook_imports) == result.hook_count

    def test_hook_functypes_match_specs(self, fib_module):
        result = instrument_module(fib_module)
        runtime = WasabiRuntime(result, Analysis())
        host = runtime.host_functions()
        assert set(host) == {spec.name for spec in result.info.hooks}
        for spec in result.info.hooks:
            assert host[spec.name].functype == spec.functype

    def test_existing_imports_keep_indices(self, print_linker):
        module = compile_source("""
            import func print_i32(x: i32);
            export func f() { print_i32(9); }
        """)
        result = instrument_module(module)
        # the env import is still function 0
        assert result.module.imports[0].module == "env"
        first_import = result.module.imported_functions()[0]
        assert first_import.name == "print_i32"

    def test_call_indices_remapped(self, fib_module):
        result = instrument_module(fib_module)
        instrumented_fib = result.module.functions[0]
        hook_count = result.hook_count
        # recursive call now targets original idx 0 shifted by hook count
        recursive_calls = [i for i in instrumented_fib.body
                           if i.op == "call" and i.idx == hook_count]
        assert recursive_calls, "recursive call should be remapped"

    def test_exports_and_names_survive(self, fib_module):
        result = instrument_module(fib_module)
        export = result.module.export_of("func", "fib")
        assert result.module.func_name(export.idx) == "fib"


class TestSession:
    def test_invoke_unknown_export(self, fib_module):
        session = AnalysisSession(fib_module, Analysis())
        from repro.wasm import WasmError
        with pytest.raises(WasmError):
            session.invoke("nope")

    def test_multiple_invocations_accumulate(self, fib_module):
        class CountCalls(Analysis):
            def __init__(self):
                self.calls = 0

            def call_pre(self, loc, func, args, tbl):
                self.calls += 1

        analysis = CountCalls()
        session = AnalysisSession(fib_module, analysis)
        session.invoke("fib", [5])
        first = analysis.calls
        session.invoke("fib", [5])
        assert analysis.calls == 2 * first

    def test_two_sessions_are_independent(self, fib_module):
        class CountCalls(Analysis):
            def __init__(self):
                self.calls = 0

            def call_pre(self, loc, func, args, tbl):
                self.calls += 1

        a, b = CountCalls(), CountCalls()
        session_a = AnalysisSession(fib_module, a)
        session_b = AnalysisSession(fib_module, b)
        session_a.invoke("fib", [6])
        assert a.calls > 0 and b.calls == 0
        session_b.invoke("fib", [3])
        assert b.calls > 0

    def test_explicit_groups_override_detection(self, fib_module):
        class Everything(Analysis):
            def __init__(self):
                self.events = 0

            def binary(self, *args):
                self.events += 1

            def call_pre(self, *args):
                self.events += 1

        analysis = Everything()
        session = AnalysisSession(fib_module, analysis,
                                  groups=frozenset({"binary"}))
        session.invoke("fib", [5])
        # only binary hooks were instrumented
        assert all(spec.kind == "binary" for spec in session.result.info.hooks)

    def test_analyze_with_entry(self, fib_module):
        class R(Analysis):
            def __init__(self):
                self.returned = None

            def return_(self, loc, results):
                self.returned = list(results)

        analysis = R()
        analyze(fib_module, analysis, entry="fib", args=(7,))
        assert analysis.returned == [13]


class TestParallelInstrumentation:
    def test_parallel_equivalent_to_sequential(self):
        from repro.workloads import pdf_toolkit
        module = pdf_toolkit()
        sequential = instrument_module(module)
        parallel = instrument_module(
            module, config=InstrumentationConfig(parallel_workers=4))
        validate_module(parallel.module)
        # hooks are numbered in function order whatever the thread
        # interleaving, so the output is the sequential one, byte for byte
        assert [s.name for s in sequential.info.hooks] == \
            [s.name for s in parallel.info.hooks]
        assert encode_module(parallel.module) == encode_module(sequential.module)

    def test_parallel_stress_with_frequent_thread_switches(self):
        # more workers than cores, switching threads every few bytecodes:
        # workers race on the shared intern table and static-info dicts,
        # and any lost or misattributed entry would change the output
        from repro.workloads import engine_demo
        module = engine_demo()
        sequential = instrument_module(module)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            parallel = instrument_module(
                module, config=InstrumentationConfig(parallel_workers=8))
        finally:
            sys.setswitchinterval(previous)
        assert encode_module(parallel.module) == encode_module(sequential.module)
        for name in ("memarg_offsets", "var_indices", "call_targets",
                     "br_targets", "br_tables", "begin_of_end"):
            assert getattr(parallel.info, name) == getattr(sequential.info, name)

    def test_parallel_runs_faithfully(self):
        from repro.workloads import pdf_toolkit
        from repro.eval import make_full_analysis

        module = pdf_toolkit()
        expected = Machine().instantiate(module).invoke("main", [2])
        result = instrument_module(
            module, config=InstrumentationConfig(parallel_workers=4))
        runtime = WasabiRuntime(result, make_full_analysis())
        linker = Linker()
        for name, hf in runtime.host_functions().items():
            linker.define(HOOK_MODULE, name, hf)
        instance = Machine().instantiate(result.module, linker)
        runtime.bind(instance)
        assert instance.invoke("main", [2]) == expected


class TestAnalysisExceptionPropagation:
    def test_analysis_errors_surface(self, fib_module):
        from repro.wasm import AnalysisError

        class Broken(Analysis):
            def binary(self, loc, op, a, b, r):
                raise RuntimeError("analysis bug")

        session = AnalysisSession(fib_module, Broken())
        with pytest.raises(AnalysisError, match="analysis bug") as excinfo:
            session.invoke("fib", [3])
        # the original exception is preserved as the cause, and the fault
        # is attributed to the hook and guest location
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        assert excinfo.value.hook_name is not None
        assert excinfo.value.location is not None
        assert excinfo.value.location.func >= 0
