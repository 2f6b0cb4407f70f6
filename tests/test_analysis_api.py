"""The high-level analysis API (paper Table 2): 23 hooks, faithful types."""

import inspect

import pytest

from repro.core import Analysis, BranchTarget, Location, MemArg, analyze
from repro.core.analysis import ALL_GROUPS, BLOCK_TYPES, HOOK_METHOD_TO_GROUP
from repro.minic import compile_source


class TestApiSurface:
    def test_twenty_three_hooks(self):
        """The paper's API has 23 hooks in total (Table 2 + footnote 3)."""
        hooks = [name for name, member in inspect.getmembers(Analysis,
                                                             inspect.isfunction)
                 if (not name.startswith("_") or name in ("return_", "const_",
                                                          "global_", "if_"))
                 and name != "used_groups"]  # introspection helper, not a hook
        assert len(hooks) == 23

    def test_hook_names_match_table2(self):
        expected = {
            "const_", "drop", "select", "unary", "binary", "local", "global_",
            "memory_size", "memory_grow", "load", "store", "call_pre",
            "call_post", "return_", "br", "br_if", "br_table", "begin", "end",
            "nop", "unreachable", "if_", "start",
        }
        actual = {name for name, member in inspect.getmembers(
            Analysis, inspect.isfunction)}
        assert expected <= actual

    def test_every_instrumentable_hook_has_a_group(self):
        # `start` is dispatched by the runtime, not instrumented
        assert set(HOOK_METHOD_TO_GROUP.values()) == set(ALL_GROUPS)
        assert "start" not in HOOK_METHOD_TO_GROUP

    def test_block_types(self):
        assert BLOCK_TYPES == ("function", "block", "loop", "if", "else")

    def test_group_count_matches_figures(self):
        # the x-axis of Figures 8/9 has 21 hook groups
        assert len(ALL_GROUPS) == 21


class TestValueObjects:
    def test_location_ordering_and_str(self):
        assert Location(1, 2) < Location(1, 3) < Location(2, 0)
        assert str(Location(3, 14)) == "3:14"

    def test_branch_target(self):
        target = BranchTarget(1, Location(0, 5))
        assert target.label == 1 and target.location.instr == 5

    def test_memarg_effective_address(self):
        memarg = MemArg(addr=16, offset=8)
        assert memarg.addr + memarg.offset == 24

    def test_tuple_types_with_field_names(self):
        """Both per-event value objects are named tuples, so building,
        hashing and comparing one runs in C."""
        assert issubclass(Location, tuple) and issubclass(MemArg, tuple)
        assert Location._fields == ("func", "instr")
        assert MemArg._fields == ("addr", "offset")

    def test_keyword_construction_str_and_repr(self):
        location = Location(func=3, instr=14)
        assert location == Location(3, 14)
        assert (location.func, location.instr) == (3, 14)
        assert str(location) == "3:14"
        assert repr(location) == "Location(func=3, instr=14)"
        memarg = MemArg(addr=16, offset=8)
        assert memarg == MemArg(16, 8)
        assert repr(memarg) == str(memarg) == "MemArg(addr=16, offset=8)"
        assert sorted([Location(2, 0), Location(1, 3), Location(1, 2)]) == [
            Location(1, 2), Location(1, 3), Location(2, 0)]

    def test_equal_values_hash_equal(self):
        assert hash(Location(1, 2)) == hash(Location(1, 2))
        assert hash(MemArg(16, 8)) == hash(MemArg(addr=16, offset=8))
        assert len({Location(1, 2), Location(1, 2), Location(2, 1)}) == 2
        # like any tuple, each equals a plain tuple of its fields
        assert Location(1, 2) == (1, 2) and MemArg(16, 8) == (16, 8)

    def test_fields_cannot_be_assigned(self):
        location, memarg = Location(1, 2), MemArg(16, 8)
        with pytest.raises(AttributeError):
            location.instr = 3
        with pytest.raises(AttributeError):
            memarg.addr = 0
        assert location == (1, 2) and memarg == (16, 8)


class TestFaithfulTypeMapping:
    """Figure 5: i64 -> full-precision int, conditions -> bool, floats pass."""

    def test_i64_full_precision(self):
        module = compile_source(
            "export func f(x: i64) -> i64 { return x + 1L; }")
        seen = {}

        class Watch(Analysis):
            def binary(self, loc, op, a, b, r):
                seen["args"] = (a, b, r)

        big = (1 << 62) + 7  # not representable as a double
        session = analyze(module, Watch(), entry="f", args=(big,))
        assert seen["args"] == (big, 1, big + 1)

    def test_i64_negative(self):
        module = compile_source(
            "export func f(x: i64) -> i64 { return x - 1L; }")
        seen = {}

        class Watch(Analysis):
            def return_(self, loc, results):
                seen["r"] = list(results)

        analyze(module, Watch(), entry="f", args=(-5,))
        assert seen["r"] == [-6]

    def test_i32_presented_signed(self):
        module = compile_source("export func f() -> i32 { return 0 - 7; }")
        seen = []

        class Watch(Analysis):
            def return_(self, loc, results):
                seen.extend(results)

        analyze(module, Watch(), entry="f")
        assert seen == [-7]

    def test_conditions_are_bool(self):
        module = compile_source("""
            export func f(c: i32) -> i32 {
                if (c) { return 1; }
                return 0;
            }
        """)
        seen = []

        class Watch(Analysis):
            def if_(self, loc, condition):
                seen.append(condition)

        analyze(module, Watch(), entry="f", args=(42,))
        assert seen == [True]
        assert all(isinstance(c, bool) for c in seen)

    def test_floats_pass_through(self):
        module = compile_source(
            "export func f(x: f32) -> f32 { return x * 2.0f; }")
        seen = {}

        class Watch(Analysis):
            def binary(self, loc, op, a, b, r):
                seen["v"] = (op, a, b, r)

        analyze(module, Watch(), entry="f", args=(1.25,))
        assert seen["v"] == ("f32.mul", 1.25, 2.0, 2.5)


class TestStartHook:
    def test_start_hook_fires_before_start_function(self):
        module = compile_source("""
            global g: i32 = 0;
            func init() { g = 7; }
            start init;
            export func get() -> i32 { return g; }
        """)
        order = []

        class Watch(Analysis):
            def start(self):
                order.append("start-hook")

            def global_(self, loc, op, idx, value):
                order.append(f"{op}:{value}")

        session = analyze(module, Watch())
        assert order[0] == "start-hook"
        assert "set_global:7" in order
        assert session.invoke("get") == [7]

    def test_no_start_no_hook(self):
        module = compile_source("export func f() -> i32 { return 1; }")
        fired = []

        class Watch(Analysis):
            def start(self):
                fired.append(True)

        analyze(module, Watch(), entry="f")
        assert fired == []


class TestModuleInfo:
    def test_function_names_and_types(self, print_linker):
        module = compile_source("""
            import func print_f64(x: f64);
            func helper(a: i32) -> i32 { return a; }
            export func main() -> i32 { return helper(1); }
        """)
        session = analyze(module, Analysis(), linker=print_linker)
        info = session.module_info
        assert info.func_name(0) == "env.print_f64"
        assert info.functions[0].imported
        assert info.func_name(1) == "helper"
        assert "main" in info.functions[2].export_names
        assert str(info.functions[1].type) == "[i32] -> [i32]"

    def test_instruction_counts(self):
        module = compile_source("export func f() -> i32 { return 4; }")
        session = analyze(module, Analysis())
        assert session.module_info.functions[0].instr_count == \
            len(module.functions[0].body)
