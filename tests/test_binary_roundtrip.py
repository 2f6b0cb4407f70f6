"""Binary format: encode/decode units plus whole-module roundtrip properties."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.wasm import (DecodeError, Instr, Limits, Module, decode_module,
                        encode_module, leb128, validate_module)
from repro.wasm.builder import ModuleBuilder
from repro.wasm.decoder import decode_instrs
from repro.wasm.encoder import MAGIC, VERSION, encode_instr
from repro.wasm.module import BrTable, MemArg
from repro.wasm.types import F32, F64, I32, I64, FuncType, GlobalType
from repro.workloads import engine_demo, pdf_toolkit
from repro.workloads.polybench import compile_kernel, kernel_names
from repro.workloads.spec_corpus import corpus


def roundtrip(module: Module) -> bytes:
    raw = encode_module(module)
    decoded = decode_module(raw)
    raw2 = encode_module(decoded)
    assert raw == raw2, "re-encoding after decode changed the binary"
    return raw


class TestInstrEncoding:
    def assert_instr_roundtrip(self, instr: Instr):
        raw = encode_instr(instr)
        decoded, = decode_instrs(raw)
        assert encode_instr(decoded) == raw

    def test_simple(self):
        self.assert_instr_roundtrip(Instr("i32.add"))

    def test_const_immediates(self):
        for instr in [Instr("i32.const", value=-42),
                      Instr("i64.const", value=1 << 62),
                      Instr("f32.const", value=1.5),
                      Instr("f64.const", value=-2.25)]:
            self.assert_instr_roundtrip(instr)

    def test_memarg(self):
        self.assert_instr_roundtrip(Instr("f64.load", memarg=MemArg(3, 4096)))

    def test_br_table(self):
        self.assert_instr_roundtrip(
            Instr("br_table", br_table=BrTable((0, 1, 5), 2)))

    def test_block_types(self):
        for bt in [None, I32, I64, F32, F64]:
            self.assert_instr_roundtrip(Instr("block", blocktype=bt))

    def test_call_indirect_reserved_byte(self):
        raw = encode_instr(Instr("call_indirect", idx=3))
        assert raw[-1] == 0x00
        broken = raw[:-1] + b"\x01"
        with pytest.raises(DecodeError):
            decode_instrs(broken)

    @given(st.integers(min_value=-2 ** 31, max_value=2 ** 31 - 1))
    def test_i32_const_roundtrip(self, value):
        decoded, = decode_instrs(encode_instr(Instr("i32.const", value=value)))
        assert decoded.value == value

    @given(st.floats(allow_nan=False, width=32))
    def test_f32_const_roundtrip(self, value):
        decoded, = decode_instrs(encode_instr(Instr("f32.const", value=value)))
        assert decoded.value == value


def _float_bits_module() -> Module:
    """One body holding constants that compare equal as floats but differ
    in their bits (and NaNs, which compare equal to nothing)."""
    f64_nans = [struct.unpack("<d", struct.pack("<Q", bits))[0]
                for bits in (0x7FF8000000000001, 0xFFF4000000000002)]
    builder = ModuleBuilder()
    fb = builder.function((), (), export="f")
    for value in [0.0, -0.0, *f64_nans, 0.0]:
        fb.emit("f64.const", value=value).emit("drop")
    for value in [0.0, -0.0, -0.0]:
        fb.emit("f32.const", value=value).emit("drop")
    fb.finish()
    return builder.build()


class TestDecoderInput:
    """Any bytes-like input, and instructions shared only within one decode."""

    @pytest.mark.parametrize("wrap", [bytearray, memoryview,
                                      lambda raw: memoryview(b"pad" + raw)[3:]],
                             ids=["bytearray", "memoryview", "memoryview-slice"])
    def test_bytes_like_input_decodes_equal(self, wrap, fib_module):
        for module in (fib_module, compile_kernel("gemm")):
            raw = encode_module(module)
            assert decode_module(wrap(raw)) == decode_module(raw)

    def test_float_constants_keep_their_bits(self):
        module = _float_bits_module()
        raw = encode_module(module)
        decoded = decode_module(raw)
        assert encode_module(decoded) == raw

        def const_bits(m: Module) -> list:
            return [(i.op, struct.pack("<d", i.value))
                    for i in m.functions[0].body if i.op.endswith(".const")]
        assert const_bits(decoded) == const_bits(module)

    def test_instructions_are_shared_within_one_decode_only(self):
        builder = ModuleBuilder()
        fb = builder.function((I32,), (I32,))
        fb.get_local(0).i32_const(7).emit("i32.add")
        fb.get_local(0).i32_const(7).emit("i32.add").emit("i32.add")
        fb.finish()
        raw = encode_module(builder.build())
        first, second = (decode_module(raw).functions[0].body for _ in range(2))
        assert first[0] is first[3] and first[1] is first[4]
        assert first[2] is first[5] is second[2]  # immediate-free: one per opcode
        # no intern table outlives its decode_module call
        assert first[0] == second[0] and first[0] is not second[0]
        assert first[1] == second[1] and first[1] is not second[1]


def _split_sections(raw: bytes) -> list[tuple[int, bytes]]:
    """The ``(id, payload)`` of every section of a well-formed binary."""
    sections, pos = [], 8
    while pos < len(raw):
        size, start = leb128.decode_unsigned(raw, pos + 1)
        sections.append((raw[pos], raw[start:start + size]))
        pos = start + size
    return sections


def _join_sections(sections: list[tuple[int, bytes]]) -> bytes:
    return MAGIC + VERSION + b"".join(
        bytes([section_id]) + leb128.encode_unsigned(len(payload)) + payload
        for section_id, payload in sections)


def _every_section_module() -> Module:
    """A module holding all eleven non-custom sections."""
    builder = ModuleBuilder("every_section")
    builder.import_function("env", "f", FuncType((I32,), ()))
    builder.add_table(1)
    builder.add_memory(1)
    glob = builder.add_global(I32, mutable=True, init=0)
    fb = builder.function((), (), name="init", export="init")
    fb.i32_const(1).set_global(glob)
    fb.finish()
    builder.set_start(fb.func_idx)
    builder.add_element(0, [fb.func_idx])
    builder.add_data(0, b"data")
    return builder.build()


class TestSectionFraming:
    """Every read stops at its section's end, and a non-custom section must
    be used up exactly."""

    def test_every_section_present(self):
        raw = encode_module(_every_section_module())
        assert [sid for sid, _ in _split_sections(raw)] == [*range(1, 12), 0]
        assert encode_module(decode_module(raw)) == raw

    @pytest.mark.parametrize("section_id", range(1, 12))
    def test_trailing_byte_in_section_rejected(self, section_id):
        sections = _split_sections(encode_module(_every_section_module()))
        padded = [(sid, payload + b"\x00" if sid == section_id else payload)
                  for sid, payload in sections]
        with pytest.raises(DecodeError, match=f"section {section_id} size mismatch"):
            decode_module(_join_sections(padded))

    def test_trailing_bytes_in_custom_section_kept(self, add_module):
        from repro.wasm.module import CustomSection
        add_module.custom_sections.append(CustomSection("vendor", b"\x00\x00"))
        decoded = decode_module(encode_module(add_module))
        assert decoded.custom_sections == [CustomSection("vendor", b"\x00\x00")]

    def test_leb128_does_not_run_into_the_next_section(self):
        """With the continuation bit set on the last byte of gemm's export
        section, the exported function index must not swallow the id byte
        of the code section that follows."""
        sections = _split_sections(encode_module(compile_kernel("gemm")))
        ids = [sid for sid, _ in sections]
        export = ids.index(7)
        assert ids[export + 1] == 10
        payload = sections[export][1]
        sections[export] = (7, payload[:-1] + bytes([payload[-1] | 0x80]))
        with pytest.raises(DecodeError, match="truncated LEB128 integer"):
            decode_module(_join_sections(sections))


class TestModuleStructure:
    def test_header(self, add_module):
        raw = encode_module(add_module)
        assert raw.startswith(MAGIC + VERSION)

    def test_bad_magic_rejected(self):
        with pytest.raises(DecodeError):
            decode_module(b"\x00nope\x01\x00\x00\x00")

    def test_bad_version_rejected(self):
        with pytest.raises(DecodeError):
            decode_module(MAGIC + b"\x02\x00\x00\x00")

    def test_sections_out_of_order_rejected(self):
        builder = ModuleBuilder()
        fb = builder.function((), (I32,))
        fb.i32_const(7)
        fb.finish()
        raw = bytearray(encode_module(builder.build()))
        # find the type section (id=1) and function section (id=3); swap ids
        # crudely by duplicating a later section id earlier: simplest is to
        # append an out-of-order section at the end
        raw += bytes([1, 1, 0])  # empty type section after code section
        with pytest.raises(DecodeError):
            decode_module(bytes(raw))

    def test_roundtrip_preserves_names(self, fib_module):
        raw = encode_module(fib_module)
        decoded = decode_module(raw)
        assert decoded.name == "fib"
        assert decoded.functions[0].name == "fib"

    def test_roundtrip_preserves_custom_sections(self, add_module):
        from repro.wasm.module import CustomSection
        add_module.custom_sections.append(CustomSection("vendor", b"\x01\x02"))
        decoded = decode_module(encode_module(add_module))
        assert decoded.custom_sections == [CustomSection("vendor", b"\x01\x02")]

    def test_imports_globals_table_memory(self):
        builder = ModuleBuilder("full")
        builder.import_function("env", "f", FuncType((I64,), (F64,)))
        builder.import_memory("env", "mem", Limits(1, 10))
        builder.import_global("env", "g", GlobalType(I32, mutable=False))
        builder.add_global(F64, mutable=True, init=3.5, export="gg")
        builder.add_table(4, 8)
        fb = builder.function((), (), name="t", export="t")
        fb.emit("nop")
        fb.finish()
        builder.add_element(1, [fb.func_idx])
        module = builder.build()
        decoded = decode_module(roundtrip(module))
        assert decoded.num_imported_functions == 1
        assert len(decoded.imported_memories()) == 1
        assert len(decoded.imported_globals()) == 1
        assert decoded.tables[0].limits == Limits(4, 8)
        assert decoded.elements[0].func_idxs == [1]

    def test_data_segments(self):
        builder = ModuleBuilder()
        builder.add_memory(1)
        builder.add_data(16, b"hello wasm")
        decoded = decode_module(roundtrip(builder.build()))
        assert decoded.data[0].data == b"hello wasm"

    def test_start_section(self):
        builder = ModuleBuilder()
        glob = builder.add_global(I32, mutable=True, init=0)
        fb = builder.function((), (), name="init")
        fb.i32_const(1).set_global(glob)
        fb.finish()
        builder.set_start(fb.func_idx)
        decoded = decode_module(roundtrip(builder.build()))
        assert decoded.start == 0

    def test_truncated_binary_rejected(self, fib_module):
        raw = encode_module(fib_module)
        with pytest.raises(DecodeError):
            decode_module(raw[:len(raw) - 3])


class TestCorpusRoundtrip:
    """Whole-program roundtrips over every workload family."""

    @pytest.mark.parametrize("name", kernel_names())
    def test_polybench_roundtrip(self, name):
        module = compile_kernel(name)
        decoded = decode_module(roundtrip(module))
        validate_module(decoded)
        assert decoded.instruction_count() == module.instruction_count()

    def test_synthetic_roundtrip(self):
        for module in (engine_demo(), pdf_toolkit()):
            decoded = decode_module(roundtrip(module))
            validate_module(decoded)

    def test_spec_corpus_roundtrip(self):
        for program in corpus()[:40]:
            roundtrip(program.module)


@st.composite
def random_expression_module(draw):
    """Small random — but always valid — modules: straight-line arithmetic."""
    ops_i32 = ["i32.add", "i32.sub", "i32.mul", "i32.and", "i32.or",
               "i32.xor", "i32.shl", "i32.rotl"]
    builder = ModuleBuilder()
    fb = builder.function((I32,), (I32,), export="run")
    fb.get_local(0)
    for _ in range(draw(st.integers(min_value=1, max_value=20))):
        fb.i32_const(draw(st.integers(min_value=-2 ** 31, max_value=2 ** 31 - 1)))
        fb.emit(draw(st.sampled_from(ops_i32)))
    fb.finish()
    return builder.build()


class TestPropertyRoundtrip:
    @settings(max_examples=50, deadline=None)
    @given(random_expression_module())
    def test_random_module_roundtrip_and_validate(self, module):
        decoded = decode_module(roundtrip(module))
        validate_module(decoded)
