"""The WAT text-format parser (linear style)."""

import pytest

from repro.interp import Linker, Machine
from repro.wasm import validate_module
from repro.wasm.types import F64, FuncType
from repro.wasm.wat import WatError, parse_wat


def run(text, entry, args=(), linker=None):
    module = parse_wat(text)
    validate_module(module)
    return Machine().instantiate(module, linker).invoke(entry, args)


class TestBasics:
    def test_add(self):
        assert run("""
            (module
              (func $add (export "add") (param $a i32) (param $b i32)
                         (result i32)
                get_local $a
                get_local $b
                i32.add))
        """, "add", (2, 3)) == [5]

    def test_current_spec_mnemonics_accepted(self):
        assert run("""
            (module
              (func (export "f") (param i32) (result i32)
                local.get 0
                i32.const 1
                i32.add))
        """, "f", (9,)) == [10]

    def test_module_name_and_comments(self):
        module = parse_wat("""
            (module $demo
              ;; a line comment
              (; a block comment ;)
              (func (export "f") (result i32) i32.const 7))
        """)
        assert module.name == "demo"
        assert Machine().instantiate(module).invoke("f") == [7]

    def test_numeric_indices(self):
        assert run("""
            (module
              (func $h (param i32) (result i32) get_local 0)
              (func (export "f") (result i32)
                i32.const 5
                call 0))
        """, "f") == [5]


class TestControlFlow:
    def test_blocks_and_named_labels(self):
        assert run("""
            (module
              (func (export "f") (param i32) (result i32)
                (local $r i32)
                block $exit
                  loop $top
                    get_local 0
                    i32.eqz
                    br_if $exit
                    get_local $r
                    get_local 0
                    i32.add
                    set_local $r
                    get_local 0
                    i32.const 1
                    i32.sub
                    set_local 0
                    br $top
                  end
                end
                get_local $r))
        """, "f", (4,)) == [10]

    def test_if_else_with_result(self):
        assert run("""
            (module
              (func (export "f") (param i32) (result i32)
                get_local 0
                if (result i32)
                  i32.const 1
                else
                  i32.const 2
                end))
        """, "f", (0,)) == [2]

    def test_br_table(self):
        text = """
            (module
              (func (export "f") (param i32) (result i32)
                block $b2
                  block $b1
                    block $b0
                      get_local 0
                      br_table $b0 $b1 $b2
                    end
                    i32.const 10
                    return
                  end
                  i32.const 20
                  return
                end
                i32.const 30))
        """
        assert run(text, "f", (0,)) == [10]
        assert run(text, "f", (1,)) == [20]
        assert run(text, "f", (2,)) == [30]


class TestModuleFields:
    def test_memory_data_and_memarg(self):
        assert run("""
            (module
              (memory 1 2)
              (data (i32.const 8) "\\2a\\00\\00\\00")
              (func (export "f") (result i32)
                i32.const 0
                i32.load offset=8))
        """, "f") == [42]

    def test_globals(self):
        module = parse_wat("""
            (module
              (global $g (mut i32) (i32.const 10))
              (func (export "bump") (result i32)
                get_global $g
                i32.const 1
                i32.add
                set_global $g
                get_global $g))
        """)
        validate_module(module)
        instance = Machine().instantiate(module)
        assert instance.invoke("bump") == [11]
        assert instance.invoke("bump") == [12]

    def test_table_elem_call_indirect(self):
        assert run("""
            (module
              (table 2 funcref)
              (func $double (param i32) (result i32)
                get_local 0 i32.const 2 i32.mul)
              (func $negate (param i32) (result i32)
                i32.const 0 get_local 0 i32.sub)
              (elem (i32.const 0) $double $negate)
              (func (export "f") (param i32) (param i32) (result i32)
                get_local 1
                get_local 0
                call_indirect (param i32) (result i32)))
        """, "f", (0, 21)) == [42]

    def test_imports(self):
        text = """
            (module
              (import "env" "print" (func $print (param f64)))
              (func (export "f")
                f64.const 2.5
                call $print))
        """
        printed = []
        linker = Linker().define_function("env", "print",
                                          FuncType((F64,), ()),
                                          lambda args: printed.append(args[0]))
        run(text, "f", linker=linker)
        assert printed == [2.5]

    def test_start_and_separate_export(self):
        module = parse_wat("""
            (module
              (global $g (mut i32) (i32.const 0))
              (func $init i32.const 9 set_global $g)
              (func $get (result i32) get_global $g)
              (export "get" (func $get))
              (start $init))
        """)
        validate_module(module)
        assert Machine().instantiate(module).invoke("get") == [9]


class TestErrors:
    def test_unknown_instruction(self):
        with pytest.raises(WatError, match="unknown instruction"):
            parse_wat('(module (func (export "f") i32.frobnicate))')

    def test_unknown_label(self):
        with pytest.raises(WatError, match="unknown label"):
            parse_wat('(module (func br $nowhere))')

    def test_folded_rejected(self):
        with pytest.raises(WatError, match="folded"):
            parse_wat('(module (func (result i32) (i32.add (i32.const 1) (i32.const 2))))')

    def test_duplicate_names(self):
        with pytest.raises(WatError, match="duplicate"):
            parse_wat("(module (func $f) (func $f))")

    @pytest.mark.parametrize("text,message", [
        ("", "unexpected end of input"),
        ("(module (func", "unclosed"),
        ('(module (func (result i32) i32.const abc))', "invalid integer"),
        ('(module (func (result f64) f64.const xyz))', "invalid float"),
        ('(module (memory 1) (data (i32.const 0) "\\q"))', "unknown string escape"),
        ('(module (func (result i32) i32.const))', "missing its immediate"),
        ('(module (func (export)))', r"\(export ...\) needs at least 1"),
        ('(module (import "\\ff" "x" (func)))', "not valid UTF-8"),
    ], ids=["empty", "unclosed", "int_literal", "float_literal", "escape",
            "no_immediate", "export_arity", "name_utf8"])
    def test_malformed_text(self, text, message):
        with pytest.raises(WatError, match=message):
            parse_wat(text)


class TestIntegrationWithWasabi:
    def test_wat_module_instrumented(self):
        from repro import Analysis, analyze

        module = parse_wat("""
            (module
              (func (export "f") (param i64) (result i64)
                get_local 0
                i64.const 3
                i64.mul))
        """)
        seen = []

        class Watch(Analysis):
            def binary(self, loc, op, a, b, r):
                seen.append((op, a, b, r))

        analyze(module, Watch(), entry="f", args=(1 << 40,))
        assert seen == [("i64.mul", 1 << 40, 3, 3 << 40)]
