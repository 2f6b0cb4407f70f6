"""Static metadata generated by the instrumenter (the runtime's inputs)."""

from repro.core import instrument_module
from repro.core.analysis import BranchTarget, Location
from repro.core.metadata import BrTableInfo, EndEvent, ModuleInfo
from repro.minic import compile_source
from repro.wasm.builder import ModuleBuilder
from repro.wasm.module import BrTable, Export
from repro.wasm.types import I32, FuncType, GlobalType


class TestModuleInfo:
    def test_from_module(self):
        module = compile_source("""
            import func ext(x: f64);
            global g: i64 = 0;
            export func main() { ext(1.0); }
        """)
        info = ModuleInfo.from_module(module)
        assert len(info.functions) == 2
        assert info.functions[0].imported
        assert not info.functions[1].imported
        assert info.functions[1].export_names == ("main",)
        assert info.functions[1].instr_count == len(module.functions[0].body)
        assert len(info.globals) == 1
        assert info.has_memory and not info.has_table
        assert info.start is None

    def test_func_name_shortcut(self):
        module = compile_source("export func foo() {}")
        info = ModuleInfo.from_module(module)
        assert info.func_name(0) == "foo"
        assert info.function(0).idx == 0

    def test_agrees_with_per_index_lookups(self):
        # imports interleaved with a global import, a nameless function
        # exported twice, and one neither named nor exported
        builder = ModuleBuilder()
        builder.import_function("env", "a", FuncType((I32,), ()))
        builder.import_global("env", "g", GlobalType(I32))
        builder.import_function("env", "b", FuncType((), (I32,)))
        exported = builder.function((), (), export="first")
        exported.finish()
        anonymous = builder.function((), ())
        anonymous.finish()
        module = builder.build()
        module.exports.append(Export("second", "func", exported.func_idx))
        info = ModuleInfo.from_module(module)
        for idx, fn in enumerate(info.functions):
            defined = module.function_at(idx)
            assert fn.idx == idx
            assert fn.name == module.func_name(idx)
            assert fn.type == module.func_type(idx)
            assert fn.imported == (defined is None)
            assert fn.instr_count == (len(defined.body) if defined else 0)
        assert info.functions[2].export_names == ("first", "second")
        assert [fn.name for fn in info.functions] == [
            "env.a", "env.b", "first", "func_3"]
        assert info.globals == [GlobalType(I32)]


class TestBrTableInfo:
    def make(self):
        t0 = BranchTarget(0, Location(0, 5))
        t1 = BranchTarget(1, Location(0, 9))
        default = BranchTarget(2, Location(0, 12))
        e = EndEvent("block", Location(0, 1), Location(0, 4))
        return BrTableInfo((t0, t1), default, ((e,), (), (e, e)))

    def test_select_in_range(self):
        info = self.make()
        target, ended = info.select(0)
        assert target.location.instr == 5 and len(ended) == 1
        target, ended = info.select(1)
        assert target.location.instr == 9 and ended == ()

    def test_select_default(self):
        info = self.make()
        for index in (2, 3, 100):
            target, ended = info.select(index)
            assert target.location.instr == 12 and len(ended) == 2


class TestGeneratedMetadata:
    def test_memarg_offsets_recorded(self):
        builder = ModuleBuilder()
        builder.add_memory(1)
        fb = builder.function((), (I32,), export="f")
        fb.i32_const(0)
        fb.load("i32.load", offset=24)
        fb.finish()
        result = instrument_module(builder.build(), groups={"load"})
        assert result.info.memarg_offsets[(0, 1)] == 24

    def test_var_indices_recorded(self):
        module = compile_source("export func f(a: i32, b: i32) -> i32 { return b; }")
        result = instrument_module(module, groups={"local"})
        assert 1 in result.info.var_indices.values()

    def test_call_targets_use_original_indices(self):
        module = compile_source("""
            import func ext();
            func helper() {}
            export func main() { ext(); helper(); }
        """)
        result = instrument_module(module, groups={"call"})
        targets = set(result.info.call_targets.values())
        assert targets == {0, 1}  # original index space, unshifted

    def test_br_targets_and_begin_of_end(self):
        builder = ModuleBuilder()
        fb = builder.function((), (), export="f")
        fb.block()          # 0
        fb.br(0)            # 1
        fb.end()            # 2
        fb.finish()         # 3 = function end
        result = instrument_module(builder.build(), groups={"br", "end"})
        target = result.info.br_targets[(0, 1)]
        assert target.label == 0
        assert target.location == Location(0, 3)
        # end metadata for the block (begin idx 0) and the function (-1)
        assert result.info.begin_of_end[(0, 2, "block")] == Location(0, 0)
        assert (0, 3, "function") in result.info.begin_of_end

    def test_br_table_metadata(self):
        builder = ModuleBuilder()
        fb = builder.function((I32,), (I32,), export="f")
        fb.block()
        fb.block()
        fb.get_local(0)
        fb.emit("br_table", br_table=BrTable((0,), 1))
        fb.end()
        fb.end()
        fb.i32_const(1)
        fb.finish()
        result = instrument_module(builder.build(), groups={"br_table", "end"})
        table_info = result.info.br_tables[(0, 3)]
        assert len(table_info.targets) == 1
        # label 0 -> inner block: one traversed frame; default -> both
        assert len(table_info.ended[0]) == 1
        assert len(table_info.ended[1]) == 2

    def test_hook_by_name_lookup(self):
        module = compile_source("export func f() -> i32 { return 1 + 2; }")
        result = instrument_module(module)
        by_name = result.info.hook_by_name()
        assert set(by_name) == {spec.name for spec in result.info.hooks}
