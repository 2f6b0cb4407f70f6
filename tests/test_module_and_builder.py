"""Module model (index spaces, names, type interning) and builder API."""

import pytest

from repro.wasm import (Instr, Module, WasmError, format_body, format_module,
                        validate_module)
from repro.wasm.builder import ModuleBuilder
from repro.wasm.module import MemArg, check_instr
from repro.wasm.types import F64, I32, I64, FuncType, GlobalType


class TestIndexSpaces:
    def test_imported_functions_come_first(self):
        builder = ModuleBuilder()
        imported = builder.import_function("env", "f", FuncType((), ()))
        fb = builder.function((), (), name="g")
        fb.finish()
        module = builder.build()
        assert imported == 0
        assert fb.func_idx == 1
        assert module.num_imported_functions == 1
        assert module.num_functions == 2
        assert module.function_at(0) is None
        assert module.function_at(1).name == "g"

    def test_func_type_lookup(self):
        builder = ModuleBuilder()
        builder.import_function("env", "f", FuncType((I64,), (F64,)))
        fb = builder.function((I32,), (I32,))
        fb.get_local(0)
        fb.finish()
        module = builder.build()
        assert module.func_type(0) == FuncType((I64,), (F64,))
        assert module.func_type(1) == FuncType((I32,), (I32,))
        with pytest.raises(WasmError):
            module.func_type(2)

    def test_func_name_fallbacks(self):
        builder = ModuleBuilder()
        builder.import_function("imports", "callme", FuncType((), ()))
        named = builder.function((), (), name="has_name")
        named.finish()
        exported = builder.function((), (), export="exported_name")
        exported.finish()
        anonymous = builder.function((), ())
        anonymous.finish()
        module = builder.build()
        assert module.func_name(0) == "imports.callme"
        assert module.func_name(1) == "has_name"
        assert module.func_name(2) == "exported_name"
        assert module.func_name(3) == "func_3"

    def test_global_type_lookup_with_imports(self):
        builder = ModuleBuilder()
        builder.import_global("env", "g0", GlobalType(I64, mutable=False))
        builder.add_global(F64, mutable=True, init=1.0)
        module = builder.build()
        assert module.global_type(0) == GlobalType(I64, mutable=False)
        assert module.global_type(1) == GlobalType(F64, mutable=True)

    def test_type_interning_deduplicates(self):
        module = Module()
        a = module.add_type(FuncType((I32,), (I32,)))
        b = module.add_type(FuncType((I32,), (I32,)))
        c = module.add_type(FuncType((I64,), (I32,)))
        assert a == b != c
        assert len(module.types) == 2

    def test_type_interning_returns_first_equal_type(self):
        # duplicates appended directly (as the decoder does) stay where they
        # are; add_type keeps answering with the first one
        t1, t2 = FuncType((I32,), (I32,)), FuncType((), (F64,))
        module = Module(types=[t1, t2, FuncType((I32,), (I32,))])
        assert module.add_type(FuncType((I32,), (I32,))) == 0
        module.types.append(FuncType((), ()))
        module.types.append(FuncType((), ()))
        assert module.add_type(FuncType((), ())) == 3
        assert module.add_type(FuncType((I64,), ())) == 5
        assert len(module.types) == 6

    def test_type_interning_follows_a_replaced_list(self):
        module = Module()
        module.add_type(FuncType((I32,), ()))
        module.add_type(FuncType((I64,), ()))
        module.types = [FuncType((I64,), ())]
        assert module.add_type(FuncType((I64,), ())) == 0
        assert module.add_type(FuncType((I32,), ())) == 1
        del module.types[:]
        assert module.add_type(FuncType((I64,), ())) == 0

    def test_whole_index_space_tables(self):
        builder = ModuleBuilder()
        builder.import_function("env", "f", FuncType((I64,), (F64,)))
        builder.import_global("env", "g0", GlobalType(I64, mutable=False))
        builder.import_function("env", "h", FuncType((), ()))
        builder.add_global(F64, mutable=True, init=1.0)
        fb = builder.function((I32,), (I32,))
        fb.get_local(0)
        fb.finish()
        module = builder.build()
        assert module.function_types() == [
            module.func_type(i) for i in range(module.num_functions)]
        assert module.global_types() == [
            module.global_type(i) for i in range(module.num_globals)]

    def test_iter_instructions(self):
        builder = ModuleBuilder()
        builder.import_function("env", "f", FuncType((), ()))
        fb = builder.function((), ())
        fb.emit("nop")
        fb.finish()
        module = builder.build()
        triples = list(module.iter_instructions())
        assert triples[0][:2] == (1, 0)  # defined funcs start after imports
        assert module.instruction_count() == 2  # nop + end


class TestInstrChecks:
    def test_unknown_mnemonic(self):
        with pytest.raises(WasmError, match="unknown instruction"):
            check_instr(Instr("i32.frobnicate"))

    def test_missing_immediate(self):
        with pytest.raises(WasmError, match="missing"):
            check_instr(Instr("call"))
        check_instr(Instr("call", idx=0))

    def test_str_rendering(self):
        assert str(Instr("i32.const", value=5)) == "i32.const 5"
        assert "offset=8" in str(Instr("f64.load", memarg=MemArg(3, 8)))


class TestBuilderErrors:
    def test_import_after_define_rejected(self):
        builder = ModuleBuilder()
        fb = builder.function((), ())
        fb.finish()
        with pytest.raises(WasmError, match="imports must"):
            builder.import_function("env", "late", FuncType((), ()))

    def test_double_finish_rejected(self):
        builder = ModuleBuilder()
        fb = builder.function((), ())
        fb.finish()
        with pytest.raises(WasmError):
            fb.finish()

    def test_emit_after_finish_rejected(self):
        builder = ModuleBuilder()
        fb = builder.function((), ())
        fb.finish()
        with pytest.raises(WasmError):
            fb.emit("nop")

    def test_unbalanced_blocks_rejected(self):
        builder = ModuleBuilder()
        fb = builder.function((), ())
        fb.block()
        with pytest.raises(WasmError, match="unbalanced"):
            fb.finish()

    def test_explicit_end_accepted(self):
        builder = ModuleBuilder()
        fb = builder.function((), ())
        fb.emit("nop")
        fb.end()  # closes the implicit function block explicitly
        fb.finish()
        validate_module(builder.build())

    def test_local_types(self):
        builder = ModuleBuilder()
        fb = builder.function((I32, F64), ())
        local = fb.add_local(I64)
        assert fb.num_params == 2
        assert local == 2
        assert fb.local_type(0) is I32
        assert fb.local_type(1) is F64
        assert fb.local_type(2) is I64


class TestTextFormat:
    def test_block_indentation(self):
        body = [Instr("block"), Instr("nop"), Instr("end"), Instr("end")]
        text = format_body(body)
        lines = text.splitlines()
        assert lines[0].strip() == "block"
        assert lines[1].startswith("    ")  # nop indented inside the block

    def test_module_rendering(self, fib_module):
        text = format_module(fib_module)
        assert "(module $fib" in text
        assert '(export "fib"' in text
        assert "call 0" in text

    def test_if_else_indentation(self):
        body = [Instr("if"), Instr("nop"), Instr("else"), Instr("nop"),
                Instr("end"), Instr("end")]
        lines = format_body(body).splitlines()
        if_depth = len(lines[0]) - len(lines[0].lstrip())
        else_depth = len(lines[2]) - len(lines[2].lstrip())
        assert if_depth == else_depth
