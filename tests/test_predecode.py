"""The pre-decoded threaded engine: cache behaviour, differential
equivalence with the legacy loop, and host-result coercion.

Engine selection is always explicit here (``Machine(predecode=...)``) so
these tests mean the same thing under the CI differential job, which sets
``REPRO_PREDECODE=0`` for the rest of the suite.
"""

from __future__ import annotations

import struct
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.interp.predecode as pd
from repro.analyses import InstructionMixAnalysis
from repro.core import AnalysisSession
from repro.eval.workloads import (POLYBENCH_FAST_SUBSET, polybench_workloads,
                                  realworld_workloads)
from repro.interp import (Machine, ResourceLimits, WasmFunction,
                          cached_decode, decode_function, predecode_default)
from repro.interp.host import HostFunction, Linker
from repro.interp.predecode import (OP_CALL_INDIRECT, OP_CONST,
                                    OP_GET_LOCAL, OP_HOOK, OP_SEGMENT)
from repro.minic import compile_source
from repro.obs.telemetry import Telemetry
from repro.wasm import decode_module, encode_module
from repro.wasm.builder import ModuleBuilder
from repro.wasm.errors import ExhaustionError, Trap, ValidationError, WasmError
from repro.wasm.module import BrTable, Instr
from repro.wasm.types import F32, F64, I32, I64, FuncType
from repro.workloads.polybench import compile_kernel

from .test_quickened import hook_segments
from .test_wasi import run_workload


def _bits(values: list[int | float]) -> list[bytes]:
    """Bit patterns of a result list (distinguishes 0.0/-0.0, NaN payloads)."""
    return [struct.pack("<d", v) if isinstance(v, float)
            else v.to_bytes(8, "little") for v in values]


# -- decoded-stream cache ---------------------------------------------------------


class TestDecodeCache:
    def test_second_instantiation_hits_cache(self, fib_module):
        machine = Machine(predecode=True)
        machine.instantiate(fib_module)
        assert machine.predecode_cache_misses == 1
        assert machine.predecode_cache_hits == 0
        machine.instantiate(fib_module)
        assert machine.predecode_cache_misses == 1
        assert machine.predecode_cache_hits == 1

    def test_cache_shared_across_machines(self, memory_module):
        Machine(predecode=True).instantiate(memory_module)
        second = Machine(predecode=True)
        second.instantiate(memory_module)
        assert second.predecode_cache_hits >= 1
        assert second.predecode_cache_misses == 0

    def test_cached_results_identical(self, fib_module):
        machine = Machine(predecode=True)
        first = machine.instantiate(fib_module)
        second = machine.instantiate(fib_module)
        assert machine.predecode_cache_hits >= 1
        assert first.invoke("fib", [12]) == second.invoke("fib", [12]) == [144]

    def test_body_replacement_invalidates(self, add_module):
        machine = Machine(predecode=True)
        instance = machine.instantiate(add_module)
        assert instance.invoke("add", [2, 3]) == [5]
        func = add_module.functions[0]
        func.body = [Instr("get_local", idx=0), Instr("get_local", idx=1),
                     Instr("i32.sub"), Instr("end")]
        fresh = machine.instantiate(add_module)
        assert machine.predecode_cache_misses == 2  # re-decoded, not reused
        assert fresh.invoke("add", [7, 3]) == [4]

    def test_cached_decode_returns_hit_flag(self, add_module):
        func = add_module.functions[0]
        func.body = list(func.body)  # drop any cache from other tests
        _, hit = cached_decode(func, add_module)
        assert not hit
        _, hit = cached_decode(func, add_module)
        assert hit

    def test_in_place_length_change_invalidates(self, add_module):
        # the one cached stream is stale once the same body list changes
        # length, even though it is still the list the stream was built from
        func = add_module.functions[0]
        func.body = list(func.body)
        decoded, _ = cached_decode(func, add_module)
        assert func._decoded is decoded
        func.body[-1:-1] = [Instr("i32.const", value=1), Instr("i32.add")]
        fresh, hit = cached_decode(func, add_module)
        assert not hit and fresh is not decoded and func._decoded is fresh
        assert len(fresh.code) == len(func.body)
        instance = Machine(predecode=True).instantiate(add_module)
        assert instance.invoke("add", [2, 3]) == [6]

    def test_legacy_machine_does_not_decode(self, add_module):
        """A legacy machine does not decode: it refuses bodies at
        instantiation by fetching their validation records
        (``tests/test_branch_forms.py::TestRefusedBodies``), runs no
        decoded stream and counts no decode-cache traffic."""
        machine = Machine(predecode=False)
        instance = machine.instantiate(add_module)
        assert instance.functions[0].decoded is None
        assert machine.predecode_cache_hits == 0
        assert machine.predecode_cache_misses == 0

    @pytest.mark.parametrize("path", ["legacy", "profiled"])
    def test_legacy_loop_instantiation_compiles_no_segment(self, path):
        """A machine that runs the legacy loop only walks each body to
        refuse it: instantiating compiles no segment and caches no
        stream, while the decoded engine compiles the same module's."""
        make = {"legacy": lambda: Machine(predecode=False),
                "profiled": lambda: Machine(
                    predecode=True, telemetry=Telemetry(profile=True))}[path]
        workload, = polybench_workloads(["gemm"], n=6)
        module = decode_module(encode_module(workload.module()))  # undecoded

        def segment_lookups() -> int:
            info = pd._segment_code.cache_info()
            return info.hits + info.misses

        before = segment_lookups()
        make().instantiate(module, workload.linker())
        assert segment_lookups() == before
        assert all(getattr(func, "_decoded", None) is None
                   for func in module.functions)
        Machine(predecode=True).instantiate(module, workload.linker())
        assert segment_lookups() > before


class TestEngineSelection:
    def test_default_follows_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_PREDECODE", raising=False)
        assert predecode_default() is True
        for off in ("0", "false", "no", "off", "False", "OFF"):
            monkeypatch.setenv("REPRO_PREDECODE", off)
            assert predecode_default() is False
        monkeypatch.setenv("REPRO_PREDECODE", "1")
        assert predecode_default() is True

    def test_explicit_flag_overrides_env(self, monkeypatch, add_module):
        monkeypatch.setenv("REPRO_PREDECODE", "0")
        machine = Machine(predecode=True)
        assert machine.predecode
        machine.instantiate(add_module)
        assert machine.predecode_cache_misses + machine.predecode_cache_hits == 1


# -- differential: both engines, same observable behaviour ------------------------


def _both_engines(module, name, args, linker_fn=lambda: None):
    results = []
    for predecode in (False, True):
        machine = Machine(predecode=predecode)
        instance = machine.instantiate(module, linker_fn())
        results.append(instance.invoke(name, args))
    return results


class TestEngineDifferential:
    def test_fib(self, fib_module):
        legacy, fast = _both_engines(fib_module, "fib", [15])
        assert _bits(legacy) == _bits(fast) == _bits([610])

    def test_memory_roundtrip(self, memory_module):
        legacy, fast = _both_engines(memory_module, "roundtrip", [2.5])
        assert _bits(legacy) == _bits(fast)
        legacy, fast = _both_engines(memory_module, "grow", [])
        assert _bits(legacy) == _bits(fast)

    def test_br_table_and_nested_blocks(self):
        builder = ModuleBuilder("brt")
        fb = builder.function((I32,), (I32,), name="classify", export="classify")
        fb.block().block().block()
        fb.get_local(0)
        fb.emit("br_table", br_table=BrTable((0, 1), 2))
        fb.end()                     # depth 0: x == 0
        fb.i32_const(100)
        fb.emit("return")
        fb.end()                     # depth 1: x == 1
        fb.i32_const(200)
        fb.emit("return")
        fb.end()                     # default
        fb.i32_const(999)
        fb.finish()
        module = builder.build()
        for x in range(0, 5):
            legacy, fast = _both_engines(module, "classify", [x])
            assert legacy == fast
            assert legacy == [{0: 100, 1: 200}.get(x, 999)]

    def test_floats_bit_identical(self):
        module = compile_source("""
            export func mix(a: f64, b: f64) -> f64 {
                var c: f32 = f32(a) * f32(b);
                return f64(c) + a / b;
            }
        """)
        for a, b in [(1.5, -3.25), (0.0, -0.0), (1e308, 1e-308), (-7.0, 0.0)]:
            legacy, fast = _both_engines(module, "mix", [a, b])
            assert _bits(legacy) == _bits(fast)

    def test_traps_identical(self):
        module = compile_source("""
            memory 1;
            export func div(a: i32, b: i32) -> i32 { return a / b; }
            export func oob(a: i32) -> i32 { return mem_i32[a]; }
        """)
        for name, args in [("div", [1, 0]), ("oob", [1 << 20])]:
            messages = []
            for predecode in (False, True):
                machine = Machine(predecode=predecode)
                instance = machine.instantiate(module)
                with pytest.raises(Trap) as excinfo:
                    instance.invoke(name, args)
                messages.append(str(excinfo.value))
            assert messages[0] == messages[1]

    def test_unreachable_and_exhaustion(self):
        builder = ModuleBuilder("traps")
        fb = builder.function((), (), name="boom", export="boom")
        fb.emit("unreachable")
        fb.finish()
        module = builder.build()
        for predecode in (False, True):
            instance = Machine(predecode=predecode).instantiate(module)
            with pytest.raises(Trap, match="unreachable"):
                instance.invoke("boom", [])

        deep = compile_source("""
            export func down(n: i32) -> i32 { return down(n + 1); }
        """)
        for predecode in (False, True):
            instance = Machine(predecode=predecode).instantiate(deep)
            with pytest.raises(ExhaustionError):
                instance.invoke("down", [0])

    def test_indirect_calls(self):
        module = compile_source("""
            type unop = func(i32) -> i32;
            func double(x: i32) -> i32 { return x * 2; }
            func square(x: i32) -> i32 { return x * x; }
            table [double, square];
            export func apply(f: i32, x: i32) -> i32 {
                return call_indirect[unop](f, x);
            }
        """)
        for f, x in [(0, 21), (1, 7)]:
            legacy, fast = _both_engines(module, "apply", [f, x])
            assert legacy == fast


# -- decode details ---------------------------------------------------------------


class TestDecodeDetails:
    def test_malformed_instruction_fails_at_instantiation(self):
        builder = ModuleBuilder("bad")
        fb = builder.function((), (I32,), name="bad", export="bad")
        fb.emit("i32.const", value=1)
        fb.finish()
        module = builder.build()
        module.functions[0].body.insert(1, Instr("i32.bogus_op"))
        # both engines refuse the module while validating its bodies, also
        # one built in memory that never went through load_module
        for predecode in (True, False):
            with pytest.raises(ValidationError,
                               match="i32.bogus_op: unknown instruction"):
                Machine(predecode=predecode).instantiate(module)

    def test_missing_immediate_rejected_at_instantiation(self):
        builder = ModuleBuilder("bad")
        fb = builder.function((), (), name="f", export="f")
        fb.emit("nop")
        fb.finish()
        module = builder.build()
        module.functions[0].body.insert(0, Instr("i32.const"))  # no value
        missing = "i32.const: missing its value immediate"
        with pytest.raises(ValidationError, match=missing):
            decode_function(module.functions[0], module)
        with pytest.raises(ValidationError, match=missing):
            Machine(predecode=True).instantiate(module)
        assert getattr(module.functions[0], "_decoded", None) is None


#: Runs too short to become a compiled segment (``nop`` breaks a run),
#: each starting at a pc the call enters: the body of ``f(a, b)``, that
#: pc and the plain op it decodes to, and the expected result. The binary
#: op is ``i32.sub`` so swapped operands would show.
SHORT_RUNS = {
    "get_local+const": (
        lambda fb: fb.get_local(0).emit("i32.const", value=7).emit("i32.sub"),
        0, OP_GET_LOCAL, lambda a, b: a - 7),
    "const+binary": (
        lambda fb: fb.get_local(0).emit("nop").emit("i32.const", value=7)
        .emit("i32.sub"),
        2, OP_CONST, lambda a, b: a - 7),
    "get_local+binary": (
        lambda fb: fb.get_local(0).emit("nop").get_local(1).emit("i32.sub"),
        2, OP_GET_LOCAL, lambda a, b: a - b),
    "get_local+get_local": (
        lambda fb: fb.get_local(1).get_local(0).emit("i32.sub"),
        0, OP_GET_LOCAL, lambda a, b: b - a),
}


class TestShortRuns:
    @pytest.mark.parametrize("run", sorted(SHORT_RUNS))
    def test_short_run_executes_slot_by_slot(self, run):
        emit, pc, plain_op, expected = SHORT_RUNS[run]
        builder = ModuleBuilder("short")
        emit(builder.function((I32, I32), (I32,), name="f",
                              export="f")).finish()
        module = builder.build()
        code = decode_function(module.functions[0], module).code
        assert code[pc][0] == plain_op
        assert OP_SEGMENT not in {ins[0] for ins in code}
        for a, b in ((3, 10), (10, 3)):
            legacy, fast = _both_engines(module, "f", [a, b])
            assert legacy == fast == [expected(a, b) & 0xFFFFFFFF]


# -- the streams instances execute ------------------------------------------------

#: Op ids the decoded loop (``Machine._exec_decoded``) has an arm for; every
#: executed stream must stay inside this set. Bare memory ops (decode
#: installs their quickened twins) have no arm, and any id without one
#: would fall through to the final arm, which raises.
EXECUTABLE = frozenset({
    pd.OP_GET_LOCAL, pd.OP_BINARY, pd.OP_CONST, pd.OP_SET_LOCAL, pd.OP_BR_IF,
    pd.OP_UNARY, pd.OP_TEE_LOCAL, pd.OP_BR, pd.OP_END, pd.OP_LOOP, pd.OP_IF,
    pd.OP_BLOCK, pd.OP_JUMP, pd.OP_CALL, pd.OP_RETURN, pd.OP_GET_GLOBAL,
    pd.OP_SET_GLOBAL, pd.OP_SELECT, pd.OP_DROP, pd.OP_CALL_INDIRECT,
    pd.OP_BR_TABLE, pd.OP_MEMORY_SIZE, pd.OP_MEMORY_GROW, pd.OP_NOP,
    pd.OP_UNREACHABLE, pd.OP_HOOK,
    pd.OP_QLOAD, pd.OP_QLOAD_MASK, pd.OP_QSTORE, pd.OP_QSTORE_MASK,
    pd.OP_SEGMENT, pd.OP_BR_ADJUST, pd.OP_BR_IF_ADJUST,
})


def _executed_ops(instance) -> set[int]:
    """Every op id in the decoded streams of ``instance``'s functions."""
    return {ins[0] for wfunc in instance.functions
            if isinstance(wfunc, WasmFunction)
            for ins in wfunc.decoded.code}


class TestExecutedStreams:
    @pytest.mark.parametrize("kernel", POLYBENCH_FAST_SUBSET)
    def test_polybench_streams_have_no_base_ops(self, kernel):
        workload, = polybench_workloads([kernel], n=6)
        instance = Machine(predecode=True).instantiate(workload.module(),
                                                       workload.linker())
        instance.invoke(workload.entry, workload.args)
        ops = _executed_ops(instance)
        assert ops and ops <= EXECUTABLE

    @pytest.mark.parametrize("name", ["pdf_toolkit", "engine_demo"])
    def test_realworld_streams_have_no_base_ops(self, name):
        workload = next(w for w in realworld_workloads(
            engine_scale=0.2, pdf_scale=0.05, rounds=1) if w.name == name)
        instance = Machine(predecode=True).instantiate(workload.module(),
                                                       workload.linker())
        instance.invoke(workload.entry, workload.args)
        ops = _executed_ops(instance)
        assert ops and ops <= EXECUTABLE
        if name == "engine_demo":
            # the stand-in that exercises call_indirect runs its plain arm
            assert OP_CALL_INDIRECT in ops

    @pytest.mark.parametrize("name", ["line_filter", "checksum", "extract"])
    def test_wasi_io_streams_have_no_base_ops(self, name):
        """The WASI programs of e2e ``execute``, whose many runs too short
        for a segment execute slot by slot."""
        run = run_workload(name, predecode=True)
        assert run["error"] is None
        ops = _executed_ops(run["instance"])
        assert ops and ops <= EXECUTABLE

    def test_instrumented_streams_have_no_base_ops(self):
        workload, = polybench_workloads(["trisolv"], n=6)
        session = AnalysisSession(workload.module(), InstructionMixAnalysis(),
                                  linker=workload.linker(),
                                  machine=Machine(predecode=True))
        session.invoke(workload.entry, workload.args)
        ops = _executed_ops(session.instance)
        assert {OP_HOOK, OP_SEGMENT} <= ops <= EXECUTABLE
        assert any(hook_segments(wfunc.decoded)
                   for wfunc in session.instance.functions
                   if isinstance(wfunc, WasmFunction))

    def test_execution_leaves_the_shared_cache_untouched(self):
        workload, = polybench_workloads(["gemm"], n=6)
        module = workload.module()
        instance = Machine(predecode=True).instantiate(module, workload.linker())
        instance.invoke(workload.entry, workload.args)
        for func in module.functions:
            cached, hit = cached_decode(func, module)
            assert hit
            fresh = decode_function(func, module)
            assert [ins[0] for ins in cached.code] == \
                [ins[0] for ins in fresh.code]


# -- segment code sharing -----------------------------------------------------------


def _segments(module) -> list:
    """The compiled segment functions of every function of ``module``."""
    return [ins[1] for func in module.functions
            for ins in decode_function(func, module).code if ins[0] == OP_SEGMENT]


def _f64(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


#: Constants a segment binds by name (``k{n}``) instead of printing them:
#: both infinities and two quiet NaNs with different payloads.
NON_FINITE = {"inf": 0x7FF0000000000000, "neg_inf": 0xFFF0000000000000,
              "nan_1": 0x7FF8000000000001, "neg_nan_abcd": 0xFFF800000000ABCD}


class TestSegmentCodeSharing:
    def test_second_decode_of_a_kernel_compiles_nothing(self):
        data = encode_module(compile_kernel("gemm"))
        first = _segments(decode_module(data))
        misses = pd._segment_code.cache_info().misses
        second = _segments(decode_module(data))
        assert pd._segment_code.cache_info().misses == misses
        assert first and len(first) == len(second)
        for old, new in zip(first, second):
            assert old is not new
            assert old.__code__ is new.__code__
            assert old.__globals__ is not new.__globals__

    def test_non_finite_constants_stay_private_to_each_segment(self):
        builder = ModuleBuilder("consts")
        for name, bits in NON_FINITE.items():
            fb = builder.function((), (F64,), name=name, export=name)
            local = fb.add_local(F64)
            fb.f64_const(_f64(bits)).set_local(local).get_local(local)
            fb.get_local(local).emit("drop").finish()
        module = builder.build()
        assert len({fn.__code__ for fn in _segments(module)}) == 1
        for name, bits in NON_FINITE.items():
            legacy, fast = _both_engines(module, name, [])
            assert _bits(legacy) == _bits(fast) == [struct.pack("<Q", bits)]

    @pytest.mark.parametrize("op, width, what", [("f64.load", 8, "load"),
                                                 ("i32.store16", 2, "store")])
    def test_trap_in_shared_segment_names_its_own_access(self, op, width, what):
        builder = ModuleBuilder("oob")
        builder.add_memory(1)
        for name in ("f", "g"):
            fb = builder.function((I32,), (F64,) if what == "load" else (),
                                  name=name, export=name)
            fb.get_local(0).i32_const(3).emit("i32.add")
            if what == "load":
                fb.load(op, offset=16)
            else:
                fb.get_local(0).store(op, offset=16)
            fb.finish()
        module = builder.build()
        assert len({fn.__code__ for fn in _segments(module)}) == 1
        for name, arg in (("f", 65536 - 20), ("g", 70000)):
            messages = []
            for predecode in (False, True):
                instance = Machine(predecode=predecode).instantiate(module)
                with pytest.raises(Trap) as excinfo:
                    instance.invoke(name, [arg])
                messages.append(str(excinfo.value))
            assert messages[0] == messages[1]
            assert f"({what} of {width} bytes at address {arg + 19}," in messages[0]

    def test_threads_compiling_one_kernel_print_the_legacy_output(self):
        """More threads than cores decode and run one kernel at once, from
        an empty cache and under a short switch interval; each prints what
        the legacy loop prints. Fuel (the run needs 450) stops a run that a
        wrongly bound segment sends into an endless loop."""
        workload, = polybench_workloads(["gemm"], n=6)
        data = encode_module(workload.module())

        def run(predecode: bool) -> list:
            sink: list = []
            machine = Machine(predecode=predecode,
                              limits=ResourceLimits(fuel=100_000))
            instance = machine.instantiate(decode_module(data),
                                           workload.linker(sink))
            instance.invoke(workload.entry, workload.args)
            return sink

        expected = run(False)
        pd._segment_code.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(run, True) for _ in range(16)]
                outputs = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert expected
        assert all(_bits(output) == _bits(expected) for output in outputs)


# -- host-function result coercion (regression: silent float→i32 truncation) -----


class TestHostResultCoercion:
    def _module_calling_host(self, result_type):
        builder = ModuleBuilder("host")
        functype = FuncType((), (result_type,))
        builder.import_function("env", "source", functype)
        fb = builder.function((), (result_type,), name="go", export="go")
        fb.emit("call", idx=0)
        fb.finish()
        return builder.build(), functype

    def _run(self, result_type, host_value, predecode):
        module, functype = self._module_calling_host(result_type)
        linker = Linker()
        linker.define_function("env", "source", functype,
                               lambda args: host_value)
        machine = Machine(predecode=predecode)
        instance = machine.instantiate(module, linker)
        return instance.invoke("go", [])

    @pytest.mark.parametrize("predecode", [False, True])
    def test_float_for_i32_result_raises(self, predecode):
        with pytest.raises(WasmError, match="non-integer"):
            self._run(I32, 2.5, predecode)

    @pytest.mark.parametrize("predecode", [False, True])
    def test_float_for_i64_result_raises(self, predecode):
        with pytest.raises(WasmError, match="non-integer"):
            self._run(I64, 1.0, predecode)

    @pytest.mark.parametrize("predecode", [False, True])
    def test_non_numeric_result_raises(self, predecode):
        with pytest.raises(WasmError, match="non-numeric"):
            self._run(F64, "nope", predecode)

    @pytest.mark.parametrize("predecode", [False, True])
    def test_wrong_arity_raises(self, predecode):
        with pytest.raises(WasmError, match="returned 2 values"):
            self._run(I32, (1, 2), predecode)

    @pytest.mark.parametrize("predecode", [False, True])
    def test_valid_results_still_coerced(self, predecode):
        assert self._run(I32, -1, predecode) == [0xFFFFFFFF]
        assert self._run(F32, 1.1, predecode) == \
            [struct.unpack("<f", struct.pack("<f", 1.1))[0]]
        assert self._run(I64, True, predecode) == [1]

    def test_host_function_direct_call(self):
        # the HostFunction import path used by Machine.call directly
        functype = FuncType((), (I32,))
        host = HostFunction(functype, lambda args: 0.5, name="bad_host")
        builder = ModuleBuilder("direct")
        builder.import_function("env", "f", functype)
        fb = builder.function((), (I32,), name="go", export="go")
        fb.emit("call", idx=0)
        fb.finish()
        linker = Linker()
        linker.define("env", "f", host)
        instance = Machine(predecode=True).instantiate(builder.build(), linker)
        with pytest.raises(WasmError, match="bad_host"):
            instance.invoke("go", [])


class TestStreamSummary:
    """The decoded-stream triage summary used by `repro bundle`."""

    def test_plain_module(self):
        from repro.interp.predecode import stream_summary
        module = compile_source("""
            import func print_f64(x: f64);
            export func main() -> f64 {
                print_f64(2.5);
                return 2.5;
            }
        """, "plain")
        summary = stream_summary(module)
        assert summary["instructions"] == sum(len(f.body)
                                              for f in module.functions)
        assert summary["host_call_sites"] == 1
        assert summary["hook_sites"] == 0
        assert set(summary) == {"instructions", "hook_sites",
                                "host_call_sites"}

    def test_instrumented_module_has_hook_sites(self):
        from repro.core import instrument_module
        from repro.interp.predecode import stream_summary
        module = compile_source("""
            export func f(n: i32) -> i32 { return n + 1; }
        """, "inst")
        assert stream_summary(module)["hook_sites"] == 0
        instrumented = instrument_module(module).module
        assert stream_summary(instrumented)["hook_sites"] > 0

    def test_malformed_body_is_rejected(self):
        from repro.interp.predecode import stream_summary
        module = compile_source("""
            export func f() -> i32 { return 3; }
        """, "broken")
        module.functions[0].body.insert(0, Instr("i32.const"))  # no immediate
        missing = "i32.const: missing its value immediate"
        with pytest.raises(ValidationError, match=missing):
            stream_summary(module)
        with pytest.raises(ValidationError, match=missing):
            Machine(predecode=True).instantiate(module)
