"""The quickened engine against the legacy string-dispatch loop.

Differential coverage for what the decoded engine runs beyond the base
opcodes — compiled straight-line segments and pre-resolved memory-op
slots — and for its call_indirect arm, against the legacy loop, the oracle
every quickened stream must match bit for bit, including trap messages and
snapshot/restore.
"""

import dis
import math
import re
import struct
import sys

import pytest
from hypothesis import given, settings, strategies as st

import repro.interp.predecode as pd
from repro.core.instrument import instrument_module
from repro.eval import polybench_workloads
from repro.interp import Machine
from repro.interp.predecode import (OP_HOOK, OP_QLOAD, OP_QLOAD_MASK,
                                    OP_QSTORE, OP_QSTORE_MASK, OP_SEGMENT,
                                    _SEGMENT_MIN, decode_function)
from repro.interp.snapshot import (Snapshot, diff_instance, restore_instance,
                                   snapshot_instance)
from repro.interp.values import BINOPS, UNOPS
from repro.minic import compile_source
from repro.wasm import Trap
from repro.wasm.builder import ModuleBuilder
from repro.wasm.types import F32, F64, I32, I64, FuncType


#: The pre-resolved memory-op twins (ids 52-55) that replace a covered
#: slot's bare load or store; any other covered slot keeps its base op.
QUICKENED_TWINS = frozenset({OP_QLOAD, OP_QLOAD_MASK, OP_QSTORE,
                             OP_QSTORE_MASK})



def hook_segments(decoded) -> list[tuple[int, tuple]]:
    """``(pc, slot)`` of every compiled segment of ``decoded`` whose run
    holds a hook site: one covering the first slot of that site."""
    sites = [pc - 2 if consts else pc for pc, _, consts in decoded.hook_sites]
    return [(pc, ins) for pc, ins in enumerate(decoded.code)
            if ins[0] == OP_SEGMENT
            and any(pc <= site < pc + ins[-1] for site in sites)]


ENGINES = [
    {"predecode": False},                       # legacy string dispatch
    {"predecode": True},                        # quickened engine
]


def _all_engines(module, name, args, repeats=2, mutate=None):
    """Invoke ``name`` ``repeats`` times on every engine configuration.

    Two invocations per instance so per-instance state (linear memory,
    the table) carries over between calls. ``mutate`` (called
    with the instance between invocations) injects state changes like table
    mutation. Returns one list of results per engine.
    """
    out = []
    for kwargs in ENGINES:
        instance = Machine(**kwargs).instantiate(module)
        results = []
        for i in range(repeats):
            if mutate is not None and i:
                mutate(instance)
            results.append(instance.invoke(name, args))
        out.append(results)
    return out


def _bits_of(results):
    return [[struct.pack("<d", v) if isinstance(v, float)
             else (v % 2 ** 64).to_bytes(8, "little") for v in values]
            for values in results]


def _assert_identical(runs):
    baseline = _bits_of(runs[0])
    for other in runs[1:]:
        assert _bits_of(other) == baseline


def _trap_on(module, name, args, **kwargs):
    instance = Machine(**kwargs).instantiate(module)
    with pytest.raises(Trap) as exc:
        instance.invoke(name, args)
    return str(exc.value)


# -- hypothesis differential corpus --------------------------------------------


class TestQuickenedBitIdentical:
    """The legacy and quickened engines must agree bit-for-bit on a
    hypothesis corpus mixing the quickened surfaces:
    straight-line arithmetic runs (compiled segments), f64/i32 loads and
    stores (quickened memory slots), and integer wraparound."""

    MIXED = """
        memory 1;
        export func crunch(a: i32, b: i32, x: f64) -> f64 {
            var i: i32;
            var acc: f64 = 0.0;
            mem_f64[0] = x;
            for (i = 0; i < 24; i = i + 1) {
                mem_i32[64 + i] = a * i + b;
                mem_f64[1 + i] = acc + mem_f64[0] * f64(i);
                acc = acc + mem_f64[1 + i] - f64(mem_i32[64 + i]);
            }
            return acc + f64(f32(x));
        }
        export func bits(a: i32, b: i32) -> i64 {
            var wide: i64 = i64(a) * i64(b);
            mem_i64[0] = (wide << 7) ^ (wide >> 3);
            return mem_i64[0] ^ i64(a % (b | 1));
        }
    """

    @settings(deadline=None, max_examples=40)
    @given(st.integers(min_value=-2 ** 31, max_value=2 ** 31 - 1),
           st.integers(min_value=-2 ** 31, max_value=2 ** 31 - 1),
           st.floats(allow_nan=False, width=64))
    def test_mixed_program(self, a, b, x):
        module = compile_source(self.MIXED)
        _assert_identical(_all_engines(module, "crunch", [a, b, x]))

    @settings(deadline=None, max_examples=40)
    @given(st.integers(min_value=-2 ** 31, max_value=2 ** 31 - 1),
           st.integers(min_value=-2 ** 31, max_value=2 ** 31 - 1))
    def test_integer_wraparound(self, a, b):
        module = compile_source(self.MIXED)
        _assert_identical(_all_engines(module, "bits", [a, b]))


# -- compiled segments ----------------------------------------------------------


class TestCompiledSegments:
    SRC = """
        memory 1;
        export func kernel(i: i32, x: f64) -> f64 {
            mem_f64[i] = x * 2.0 + 1.0;
            return mem_f64[i] * mem_f64[i] - x;
        }
    """

    def _decoded(self, fuse):
        module = compile_source(self.SRC)
        func = next(f for f in module.functions if f.body is not None)
        return decode_function(func, module, fuse=fuse)

    def test_quickened_stream_contains_segments(self):
        code = self._decoded(fuse=True).code
        segments = [(pc, ins) for pc, ins in enumerate(code)
                    if ins[0] == OP_SEGMENT]
        assert segments, "straight-line kernel produced no compiled segment"
        for pc, (_, fn, target, exits, span) in segments:
            # a straight-line body: every segment only falls through
            successor, = exits
            assert callable(fn) and target is None
            assert span >= _SEGMENT_MIN
            assert successor >= pc + span

    def test_unquickened_stream_has_no_segments(self):
        code = self._decoded(fuse=False).code
        assert not any(ins[0] == OP_SEGMENT for ins in code)

    def test_covered_slots_keep_fallback_decoding(self):
        # branch targets inside a segment must still find executable slots
        plain = self._decoded(fuse=False).code
        quick = self._decoded(fuse=True).code
        for pc, ins in enumerate(quick):
            if ins[0] == OP_SEGMENT:
                for covered in range(pc + 1, pc + ins[-1]):
                    assert quick[covered][0] != OP_SEGMENT
                    assert quick[covered][0] == plain[covered][0] or \
                        quick[covered][0] in QUICKENED_TWINS

    def test_short_runs_stay_uncompiled(self):
        module = compile_source("""
            export func tiny(a: i32) -> i32 { return a + 1; }
        """)
        func = next(f for f in module.functions if f.body is not None)
        code = decode_function(func, module).code
        assert not any(ins[0] == OP_SEGMENT for ins in code)

    def test_hook_sites_join_segments(self):
        """Hook sites join the runs around them: a run holding sites is one
        segment numbered from its first site, and every segment function,
        with or without sites, takes the same four arguments."""
        module = instrument_module(compile_source(self.SRC)).module
        func, = (f for f in module.functions if f.body is not None)
        decoded = decode_function(func, module)
        code = decoded.code
        slots = [pc - 2 if consts else pc for pc, _, consts in decoded.hook_sites]
        for site, pc in enumerate(slots):
            # a site's slot is its OP_HOOK, or the segment it starts
            assert code[pc][0] in (OP_HOOK, OP_SEGMENT)
            assert code[pc][0] == OP_SEGMENT or code[pc][1] == site
        segments = hook_segments(decoded)
        assert segments
        for start, ins in segments:
            first_site, span = ins[1].__globals__["_site"], ins[-1]
            inside = [site for site, pc in enumerate(slots)
                      if start <= pc < start + span]
            assert inside == list(range(first_site, first_site + len(inside)))
        assert all(ins[1].__code__.co_argcount == 4 for ins in code
                   if ins[0] == OP_SEGMENT)

    def test_segment_results_match_legacy(self):
        module = compile_source(self.SRC)
        _assert_identical(_all_engines(module, "kernel", [7, 2.5]))

    @pytest.mark.parametrize("condition", [0, 1, 0x80000000])
    @pytest.mark.parametrize("valtype, first, second", [
        (I32, 0xFFFFFFFF, 5), (I64, 0x8000000000000000, 3),
        (F64, -0.0, 0.0)])
    def test_select_joins_a_segment(self, valtype, first, second, condition):
        """A straight-line run holding ``select`` compiles into one segment
        that picks what the legacy loop picks."""
        builder = ModuleBuilder("select")
        fb = builder.function((valtype, valtype, I32), (valtype,), name="f",
                              export="f")
        fb.get_local(0).get_local(1).get_local(2).emit("select").finish()
        module = builder.build()
        code = decode_function(module.functions[0], module).code
        assert code[0][0] == OP_SEGMENT and code[0][4] == 4
        runs = _all_engines(module, "f", [first, second, condition])
        _assert_identical(runs)
        assert _bits_of(runs[1]) == _bits_of([[first if condition else second]] * 2)


def _forwarding_module():
    """One straight-line run that reads local 0, does ``set_local 0``, does
    ``tee_local 0`` on a value pushed before the run and reads local 0
    again; the code after the ``nop`` barriers reads the locals back."""
    builder = ModuleBuilder("forward")
    builder.add_memory(1)
    builder.add_global(I32, init=-7)
    fb = builder.function((I32, I32), (I32,), export="f")
    scratch = fb.add_local(I32)
    fb.get_global(0)                         # below the run's own pushes
    fb.get_local(0).i32_const(0x7FFFFFFF).emit("i32.add").set_local(0)
    fb.tee_local(0).get_local(0).emit("i32.mul").set_local(scratch)
    fb.i32_const(0).get_local(scratch).store("i32.store")
    fb.get_local(0).get_local(1).emit("i32.sub")
    fb.emit("nop")
    fb.i32_const(4).get_local(0).store("i32.store")
    fb.emit("nop")
    fb.i32_const(8).get_local(scratch).store("i32.store")
    fb.finish()
    return builder.build()


class TestLocalForwarding:
    def test_run_reads_each_local_once(self, monkeypatch):
        sources = []
        compile_code = pd._segment_code

        def capture(src):
            sources.append(src)
            return compile_code(src)

        monkeypatch.setattr(pd, "_segment_code", capture)
        module = _forwarding_module()
        func, = module.functions
        code = decode_function(func, module).code
        segments = [ins for ins in code if ins[0] == OP_SEGMENT]
        assert len(segments) == len(sources) == 1
        # the whole run up to the first nop, which is its successor
        _, _, target, exits, span = segments[0]
        assert (target, exits, span) == (None, (15,), 14)
        src, = sources
        assert len(re.findall(r"= locals_\[0\]$", src, re.MULTILINE)) == 1
        assert "= locals_[1]" in src and "= locals_[2]" not in src

    @pytest.mark.parametrize("args", [[5, 3], [0x80000000, 1], [-1, -9]])
    def test_forwarded_run_matches_legacy(self, args):
        module = _forwarding_module()
        runs = []
        for kwargs in ENGINES:
            instance = Machine(**kwargs).instantiate(module)
            result = instance.invoke("f", args)
            runs.append((result, bytes(instance.memory.data[:12])))
        assert _bits_of([runs[0][0]]) == _bits_of([runs[1][0]])
        assert runs[0][1] == runs[1][1]


def _write_back_module(trap: bool = False):
    """``f(a)``: one straight-line run that stores ``a`` at 0, sets local
    1 three times, storing its middle value at 4 and reading it back in
    between; past a ``nop`` barrier the code stores local 1 at 8 and
    returns it. With ``trap``, the run ends in an out-of-bounds load after
    its last ``set_local``."""
    builder = ModuleBuilder("write_back")
    builder.add_memory(1)
    fb = builder.function((I32,), (I32,), export="f")
    scratch = fb.add_local(I32)
    fb.i32_const(0).get_local(0).store("i32.store")
    fb.get_local(0).i32_const(3).emit("i32.add").set_local(scratch)
    fb.get_local(scratch).i32_const(5).emit("i32.mul").set_local(scratch)
    fb.i32_const(4).get_local(scratch).store("i32.store")
    fb.get_local(scratch).i32_const(1).emit("i32.sub").set_local(scratch)
    if trap:
        fb.i32_const(0x10000).load("i32.load").emit("drop")
    fb.emit("nop")
    fb.i32_const(8).get_local(scratch).store("i32.store")
    fb.get_local(scratch)
    fb.finish()
    return builder.build()


class TestLocalWriteBack:
    """A segment writes each local it sets back once, at its exit."""

    def test_a_local_set_three_times_is_stored_once(self):
        module = _write_back_module()
        code = decode_function(module.functions[0], module).code
        _, fn, _, exits, span = code[0]
        assert code[0][0] == OP_SEGMENT and span == 18
        stores = [ins for ins in dis.get_instructions(fn)
                  if ins.opname == "STORE_SUBSCR"]
        assert len(stores) == 1
        # called directly, the segment leaves what its slots would: the
        # final value in the frame, every store in memory
        stack, locals_, memdata = [], [10, 0], bytearray(16)
        assert fn(stack, locals_, memdata, []) == exits[0]
        assert stack == [] and locals_ == [10, 64]
        assert struct.unpack("<3I", memdata[:12]) == (10, 65, 0)

    @pytest.mark.parametrize("a", [10, -7, 0x7FFFFFFF])
    def test_written_back_run_matches_legacy(self, a):
        module = _write_back_module()
        runs = []
        for kwargs in ENGINES:
            instance = Machine(**kwargs).instantiate(module)
            runs.append((instance.invoke("f", [a]),
                         bytes(instance.memory.data[:12])))
        assert runs[0] == runs[1]
        expected = ((a + 3) * 5 - 1) & 0xFFFFFFFF
        assert struct.unpack("<3I", runs[1][1])[1:] == (
            ((a + 3) * 5) & 0xFFFFFFFF, expected)

    def test_trap_after_set_local_matches_legacy(self):
        module = _write_back_module(trap=True)
        outcomes = []
        for kwargs in ENGINES:
            instance = Machine(**kwargs).instantiate(module)
            with pytest.raises(Trap) as exc:
                instance.invoke("f", [10])
            outcomes.append((str(exc.value), bytes(instance.memory.data[:12])))
        assert outcomes[0] == outcomes[1]
        assert "out of bounds memory access" in outcomes[1][0]
        assert struct.unpack("<3I", outcomes[1][1]) == (10, 65, 0)


# -- inline templates -------------------------------------------------------------

_COMPARES = ["eq", "ne", "lt_s", "lt_u", "gt_s", "gt_u", "le_s", "le_u",
             "ge_s", "ge_u"]

#: Every op a compiled segment computes inline instead of calling its
#: table function, by family.
INLINE_FAMILIES = {
    "int_arith": [f"{p}.{op}" for p in ("i32", "i64")
                  for op in ("add", "sub", "mul", "shl", "and", "or", "xor")],
    "int_compare": [f"{p}.{op}" for p in ("i32", "i64") for op in _COMPARES],
    "float_arith": ["f64.add", "f64.sub", "f64.mul"],
    "float_compare": [f"{p}.{op}" for p in ("f32", "f64")
                      for op in ("eq", "ne", "lt", "gt", "le", "ge")],
    "eqz": ["i32.eqz", "i64.eqz"],
    "convert": ["f64.convert_s/i32", "f64.convert_u/i32"],
}
INLINE_OPS = [name for family in INLINE_FAMILIES.values() for name in family]

_FLOAT_EDGES = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan,
                5e-324, sys.float_info.max]

#: Operands each template is checked on, by operand type.
EDGES = {
    I32: [0, 1, 31, 32, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF],
    I64: [0, 1, 63, 64, 0xFFFFFFFF, 0x7FFFFFFFFFFFFFFF,
          0x8000000000000000, 0xFFFFFFFFFFFFFFFF],
    F32: _FLOAT_EDGES,
    F64: _FLOAT_EDGES,
}

_TYPES = {"i32": I32, "i64": I64, "f32": F32, "f64": F64}

#: Every function of the op tables, by identity.
TABLE_FUNCTIONS = {id(fn) for fn in (*BINOPS.values(), *UNOPS.values())}


def _arity(name: str) -> int:
    return 2 if name in BINOPS else 1


def _operand_type(name: str):
    """``f64.convert_s/i32`` takes an i32; any other op its prefix type."""
    return _TYPES[name.rpartition("/")[2][:3]]


def _result_type(name: str):
    test = name.split(".")[1].split("_")[0]
    return I32 if test in ("eq", "ne", "lt", "gt", "le", "ge", "eqz") else _TYPES[name[:3]]


def _template(name: str) -> str:
    inline = pd._INLINE_BINOPS if name in BINOPS else pd._INLINE_UNOPS
    fn = BINOPS[name] if name in BINOPS else UNOPS[name]
    return inline[id(fn)]


def _operand_grid(name: str) -> list[tuple]:
    edges = EDGES[_operand_type(name)]
    if _arity(name) == 1:
        return [(a,) for a in edges]
    return [(a, b) for a in edges for b in edges]


def _assert_same(got, want) -> None:
    """Equal type (an int 0/1 is never a bool) and equal value, floats by
    their bits so NaN and -0.0 count."""
    assert type(got) is type(want)
    if isinstance(want, float):
        assert struct.pack("<d", got) == struct.pack("<d", want)
    else:
        assert got == want


def _template_module(name: str):
    """``f`` runs ``get_local``s, the op, ``set_local`` and ``get_local``:
    one straight-line run long enough to compile into a segment."""
    builder = ModuleBuilder("template")
    fb = builder.function((_operand_type(name),) * _arity(name),
                          (_result_type(name),), name="f", export="f")
    out = fb.add_local(_result_type(name))
    for index in range(_arity(name)):
        fb.get_local(index)
    fb.emit(name).set_local(out).get_local(out).finish()
    return builder.build()


class TestInlineTemplates:
    """Each template is exact: it computes what its table function does,
    value and type, on the edges of its operand type, both as written in
    the segment and in the segment the decoder compiles."""

    def test_every_template_is_listed(self):
        templated = {name for table, inline in ((BINOPS, pd._INLINE_BINOPS),
                                                (UNOPS, pd._INLINE_UNOPS))
                     for name, fn in table.items() if id(fn) in inline}
        assert templated == set(INLINE_OPS)

    @pytest.mark.parametrize("name", INLINE_OPS)
    def test_template_matches_table_function(self, name):
        fn = BINOPS[name] if name in BINOPS else UNOPS[name]
        template = _template(name)
        names = ("a", "b")[:_arity(name)]
        for operands in _operand_grid(name):
            env = dict(zip(names, operands))
            # operands are the segment's temporaries, or its literals
            by_name = template.format(**{n: n for n in names})
            _assert_same(eval(by_name, env), fn(*operands))
            if all(math.isfinite(value) for value in operands):
                literal = template.format(**{n: repr(v) for n, v in env.items()})
                _assert_same(eval(literal, {}), fn(*operands))

    @pytest.mark.parametrize("name", INLINE_OPS)
    def test_segment_binds_no_table_function(self, name):
        module = _template_module(name)
        slot = decode_function(module.functions[0], module).code[0]
        assert slot[0] == OP_SEGMENT
        bound = {id(value) for value in slot[1].__globals__.values()}
        assert not bound & TABLE_FUNCTIONS

    @pytest.mark.parametrize("family", INLINE_FAMILIES)
    def test_segments_match_legacy(self, family):
        for name in INLINE_FAMILIES[family]:
            module = _template_module(name)
            legacy = Machine(predecode=False).instantiate(module)
            decoded = Machine(predecode=True).instantiate(module)
            for operands in _operand_grid(name):
                want, = legacy.invoke("f", list(operands))
                got, = decoded.invoke("f", list(operands))
                _assert_same(got, want)


# -- call_indirect --------------------------------------------------------------


def _dispatch_module():
    """A table with two i32→i32 functions and an exported dispatcher."""
    builder = ModuleBuilder()
    sig = FuncType((I32,), (I32,))

    fb = builder.function((I32,), (I32,), name="inc")
    fb.get_local(0).i32_const(1).emit("i32.add")
    fb.finish()
    inc = fb.func_idx

    fb = builder.function((I32,), (I32,), name="dbl")
    fb.get_local(0).i32_const(2).emit("i32.mul")
    fb.finish()
    dbl = fb.func_idx

    builder.add_table(4, 4)
    builder.add_element(0, [inc, dbl])

    fb = builder.function((I32, I32), (I32,), export="dispatch")
    fb.get_local(1)          # argument
    fb.get_local(0)          # table index
    fb.call_indirect(builder.module.add_type(sig))
    fb.finish()
    return builder.build(), inc, dbl


class TestCallIndirect:
    def test_same_target_repeats_and_target_switch(self):
        module, _, _ = _dispatch_module()
        for kwargs in ENGINES:
            instance = Machine(**kwargs).instantiate(module)
            # repeated same-target calls
            assert [instance.invoke("dispatch", [0, 10]) for _ in range(3)] \
                == [[11]] * 3
            # switch targets, then back
            assert instance.invoke("dispatch", [1, 10]) == [20]
            assert instance.invoke("dispatch", [0, 10]) == [11]

    def test_table_mutation_changes_the_callee(self):
        module, inc, dbl = _dispatch_module()
        results = []
        for kwargs in ENGINES:
            instance = Machine(**kwargs).instantiate(module)
            out = [instance.invoke("dispatch", [0, 10])]   # calls 'inc'
            instance.table.set(0, dbl)                     # retarget entry 0
            out.append(instance.invoke("dispatch", [0, 10]))
            instance.table.set(0, None)                    # uninitialize
            try:
                instance.invoke("dispatch", [0, 10])
                out.append("no trap")
            except Trap as exc:
                out.append(str(exc))
            results.append(out)
        assert results[0] == results[1]
        assert results[0][:2] == [[11], [20]]
        assert "uninitialized" in results[0][2]

    def test_trap_messages_match_legacy(self):
        module, _, _ = _dispatch_module()
        for index in (2, 99):  # uninitialized entry / out of bounds
            messages = {_trap_on(module, "dispatch", [index, 1], **kwargs)
                        for kwargs in ENGINES}
            assert len(messages) == 1, messages


# -- memory quickening at the page boundary ------------------------------------


class TestMemoryBoundary:
    SRC = """
        memory 1;
        export func load_f64(i: i32) -> f64 { return mem_f64[i]; }
        export func store_f64(i: i32, x: f64) -> f64 {
            mem_f64[i] = x;
            return mem_f64[i] + 1.0;
        }
        export func grow_then_store(i: i32, x: f64) -> f64 {
            var prev: i32 = memory_grow(1);
            mem_f64[i] = x * f64(prev);
            return mem_f64[i];
        }
    """

    def test_last_valid_slot_agrees(self):
        # f64 index 8191 covers bytes 65528..65535, the last in-bounds access
        module = compile_source(self.SRC)
        _assert_identical(_all_engines(module, "store_f64", [8191, 3.25]))

    @pytest.mark.parametrize("index", [8192, 2 ** 28])
    def test_oob_trap_messages_match(self, index):
        module = compile_source(self.SRC)
        for entry in ("load_f64", "store_f64"):
            args = [index] if entry == "load_f64" else [index, 1.0]
            messages = {_trap_on(module, entry, args, **kwargs)
                        for kwargs in ENGINES}
            assert len(messages) == 1, messages
            assert "out of bounds memory access" in next(iter(messages))

    #: one access per quickened slot kind: (mnemonic, value type, width in
    #: bytes, the slot decode installs for it)
    ACCESSES = [
        ("i32.load", I32, 4, OP_QLOAD),
        ("i32.load16_u", I32, 2, OP_QLOAD),
        ("f64.load", F64, 8, OP_QLOAD),
        ("i64.load8_s", I64, 1, OP_QLOAD_MASK),
        ("i64.store", I64, 8, OP_QSTORE),
        ("f32.store", F32, 4, OP_QSTORE),
        ("i32.store8", I32, 1, OP_QSTORE_MASK),
        ("i64.store32", I64, 4, OP_QSTORE_MASK),
    ]

    @pytest.mark.parametrize("mnemonic,valtype,width,slot", ACCESSES,
                             ids=[access[0] for access in ACCESSES])
    def test_oob_message_names_access_and_width(self, mnemonic, valtype,
                                                width, slot):
        # the access (offset=1 included) overhangs the one page by one
        # byte; both engines name the same kind, width and address
        builder = ModuleBuilder("access")
        builder.add_memory(1)
        is_load = ".load" in mnemonic
        if is_load:
            fb = builder.function((I32,), (valtype,), name="f", export="f")
            fb.get_local(0).load(mnemonic, offset=1)
        else:
            fb = builder.function((I32, valtype), (), name="f", export="f")
            fb.get_local(0).get_local(1).store(mnemonic, offset=1)
        fb.finish()
        module = builder.build()
        body = module.functions[0].body
        pc = next(i for i, ins in enumerate(body) if ins.op == mnemonic)
        assert decode_function(module.functions[0], module).code[pc][0] == slot
        addr = 65536 - width + 1
        zero = 0.0 if valtype.is_float else 0
        args = [addr - 1] if is_load else [addr - 1, zero]
        messages = {_trap_on(module, "f", args, **kwargs) for kwargs in ENGINES}
        what = "load" if is_load else "store"
        assert messages == {f"out of bounds memory access ({what} of {width} "
                            f"bytes at address {addr}, memory is 65536 bytes)"}

    @pytest.mark.parametrize("mnemonic,low_bits",
                             [("i64.store8", 0x98), ("i64.store16", 0xBA98),
                              ("i64.store32", 0xFEDCBA98)],
                             ids=["i64.store8", "i64.store16", "i64.store32"])
    def test_narrow_store_of_wide_value_keeps_low_bytes(self, mnemonic,
                                                        low_bits):
        # an i64 wider than the store: i64.store32 shares i32.store's
        # (fmt, mask), yet its quickened slot must still mask the value
        builder = ModuleBuilder("narrow")
        builder.add_memory(1)
        fb = builder.function((I32, I64), (), name="st", export="st")
        fb.get_local(0).get_local(1).store(mnemonic)
        fb.finish()
        fb = builder.function((I32,), (I64,), name="ld", export="ld")
        fb.get_local(0).load("i64.load")
        fb.finish()
        module = builder.build()
        runs = []
        for kwargs in ENGINES:
            instance = Machine(**kwargs).instantiate(module)
            instance.invoke("st", [8, 0x76543210FEDCBA98])
            runs.append([instance.invoke("ld", [8])])
        _assert_identical(runs)
        assert runs[0] == [[low_bits]]

    def test_access_valid_only_after_grow(self):
        # index 8192 is the first slot of page 2: traps at 1 page, succeeds
        # after memory.grow — quickened slots must see the grown memory
        module = compile_source(self.SRC)
        runs = []
        for kwargs in ENGINES:
            instance = Machine(**kwargs).instantiate(module)
            with pytest.raises(Trap):
                instance.invoke("store_f64", [8192, 2.0])
            runs.append([instance.invoke("grow_then_store", [8192, 2.0]),
                         instance.invoke("store_f64", [8192, 2.0])])
        _assert_identical(runs)


# -- snapshot/restore on the quickened engine ----------------------------------


class TestSnapshotQuickened:
    def test_quickened_state_rebuilt_on_restore(self):
        """Snapshot mid-run on the quickened engine, restore into a fresh
        quickened instance: diff is empty, and the resumed run is
        bit-identical — no engine state is serialized."""
        workload = polybench_workloads(["trisolv"], n=12)[0]
        module = workload.module()

        printed_a: list = []
        inst_a = Machine(predecode=True).instantiate(
            module, workload.linker(printed_a))
        inst_a.invoke("main", [])  # then snapshot mid-state
        snap = Snapshot.from_json(snapshot_instance(inst_a).to_json())

        printed_b: list = []
        inst_b = Machine(predecode=True).instantiate(
            module, workload.linker(printed_b))
        restore_instance(inst_b, snap)
        assert diff_instance(inst_b, snap) == []

        printed_a.clear()
        inst_a.invoke("main", [])
        inst_b.invoke("main", [])
        assert printed_a == printed_b

    def test_restored_table_decides_the_callee(self):
        module, inc, dbl = _dispatch_module()
        for kwargs in ENGINES:
            instance = Machine(**kwargs).instantiate(module)
            assert instance.invoke("dispatch", [0, 10]) == [11]  # calls 'inc'

            snap = snapshot_instance(instance)
            fresh = Machine(**kwargs).instantiate(module)
            restore_instance(fresh, snap)
            # mutate the restored table: the call must follow the live
            # entry, not the callee resolved before the snapshot
            fresh.table.set(0, dbl)
            assert fresh.invoke("dispatch", [0, 10]) == [20]
