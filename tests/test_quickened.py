"""The quickened engine against the legacy string-dispatch loop.

Differential coverage for what the decoded engine runs beyond the base
opcodes — compiled straight-line segments, pre-resolved memory-op slots
and call_indirect inline caches — against the legacy loop, the oracle
every quickened stream must match bit for bit, including trap messages and
snapshot/restore.
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.eval import polybench_workloads
from repro.interp import Machine
from repro.interp.predecode import (OP_QLOAD, OP_QLOAD_MASK, OP_QSTORE,
                                    OP_QSTORE_MASK, OP_SEGMENT, _SEGMENT_MIN,
                                    _compile_segments, decode_function)
from repro.interp.snapshot import (Snapshot, diff_instance, restore_instance,
                                   snapshot_instance)
from repro.minic import compile_source
from repro.wasm import Trap
from repro.wasm.builder import ModuleBuilder
from repro.wasm.types import F32, F64, I32, I64, FuncType


ENGINES = [
    {"predecode": False},                       # legacy string dispatch
    {"predecode": True},                        # quickened engine
]


def _all_engines(module, name, args, repeats=2, mutate=None):
    """Invoke ``name`` ``repeats`` times on every engine configuration.

    Two invocations per instance so per-instance state (inline-cache
    cells, linear memory) carries over between calls. ``mutate`` (called
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
        segments = [ins for ins in code if ins[0] == OP_SEGMENT]
        assert segments, "straight-line kernel produced no compiled segment"
        for _, fn, span in segments:
            assert callable(fn)
            assert span >= _SEGMENT_MIN

    def test_unquickened_stream_has_no_segments(self):
        code = self._decoded(fuse=False).code
        assert not any(ins[0] == OP_SEGMENT for ins in code)

    def test_covered_slots_keep_fallback_decoding(self):
        # branch targets inside a segment must still find executable slots
        plain = self._decoded(fuse=False).code
        quick = self._decoded(fuse=True).code
        for pc, ins in enumerate(quick):
            if ins[0] == OP_SEGMENT:
                for covered in range(pc + 1, pc + ins[2]):
                    assert quick[covered][0] != OP_SEGMENT
                    assert quick[covered][0] == plain[covered][0] or \
                        quick[covered][0] >= 30  # fused/quickened fallback

    def test_short_runs_stay_uncompiled(self):
        module = compile_source("""
            export func tiny(a: i32) -> i32 { return a + 1; }
        """)
        func = next(f for f in module.functions if f.body is not None)
        code = decode_function(func, module).code
        assert not any(ins[0] == OP_SEGMENT for ins in code)

    def test_blocked_pcs_never_join_segments(self):
        module = compile_source(self.SRC)
        func = next(f for f in module.functions if f.body is not None)
        decoded = decode_function(func, module, fuse=False)
        code = list(decoded.code)
        # block a pc in the middle of what would otherwise be a run
        starts = [pc for pc, ins in enumerate(code)]
        target = starts[4]
        _compile_segments(code, blocked={target})
        for pc, ins in enumerate(code):
            if ins[0] == OP_SEGMENT:
                assert not (pc <= target < pc + ins[2])

    def test_segment_results_match_legacy(self):
        module = compile_source(self.SRC)
        _assert_identical(_all_engines(module, "kernel", [7, 2.5]))


# -- call_indirect inline caches ------------------------------------------------


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


class TestCallIndirectIC:
    def test_monomorphic_and_megamorphic_paths(self):
        module, _, _ = _dispatch_module()
        for kwargs in ENGINES:
            instance = Machine(**kwargs).instantiate(module)
            # repeated same-target calls (IC hit path after the first)
            assert [instance.invoke("dispatch", [0, 10]) for _ in range(3)] \
                == [[11]] * 3
            # switch targets (IC miss → rebind), then back
            assert instance.invoke("dispatch", [1, 10]) == [20]
            assert instance.invoke("dispatch", [0, 10]) == [11]

    def test_table_mutation_invalidates_cache(self):
        module, inc, dbl = _dispatch_module()
        results = []
        for kwargs in ENGINES:
            instance = Machine(**kwargs).instantiate(module)
            out = [instance.invoke("dispatch", [0, 10])]   # cache 'inc'
            instance.table.set(0, dbl)                     # mutate under the IC
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
        bit-identical — IC cells are rebuilt, never serialized."""
        workload = polybench_workloads(["trisolv"], n=12)[0]
        module = workload.module()

        printed_a: list = []
        inst_a = Machine(predecode=True).instantiate(
            module, workload.linker(printed_a))
        inst_a.invoke("main", [])  # fills IC cells, then snapshot mid-state
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

    def test_ic_cells_reset_not_stale_after_restore(self):
        module, inc, dbl = _dispatch_module()
        machine = Machine(predecode=True)
        instance = machine.instantiate(module)
        assert instance.invoke("dispatch", [0, 10]) == [11]  # IC caches 'inc'

        snap = snapshot_instance(instance)
        fresh = Machine(predecode=True).instantiate(module)
        restore_instance(fresh, snap)
        # mutate the restored table: a stale (serialized) cache would still
        # dispatch to 'inc'
        fresh.table.set(0, dbl)
        assert fresh.invoke("dispatch", [0, 10]) == [20]
