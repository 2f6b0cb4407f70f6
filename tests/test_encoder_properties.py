"""Properties of the code encoder over random instruction sequences.

One table-driven loop encodes both whole expressions and single
instructions, with inline paths for one- and two-byte LEB128 immediates.
Random sequences over every MVP mnemonic, weighted towards the immediates
where those paths end (and the masked-unsigned i32 constants the
instrumenter emits when it splits an i64), must encode the same either way
and decode back to the same instructions.
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.wasm import opcodes
from repro.wasm.decoder import decode_instrs
from repro.wasm.encoder import encode_expr, encode_instr
from repro.wasm.errors import EncodeError
from repro.wasm.module import BrTable, Instr, MemArg
from repro.wasm.numeric import to_signed
from repro.wasm.types import F32, F64, I32, I64

Imm = opcodes.Imm

U32_EDGES = [0, 1, 63, 64, 127, 128, 129, 16383, 16384, 2 ** 31, 2 ** 32 - 1]
#: i32 constants as the decoder gives them (signed) and as the instrumenter
#: emits them (masked to unsigned, e.g. 0xFFFFFFFF for -1)
S32_EDGES = [-65, -64, -63, 63, 64, 65, -8193, -8192, 8191, 8192,
             -2 ** 31, 2 ** 31 - 1, 2 ** 31, 0xFFFFFFFF, 0xFFFFFFC0, 0xFFFFFFBF]
S64_EDGES = [-65, -64, 63, 64, -2 ** 63, 2 ** 63 - 1, 2 ** 64 - 1, 32]
#: NaN bit patterns. Only quiet f32 NaNs: a Python float cannot carry a
#: signalling binary32 NaN unchanged, so the decoder quiets those.
F32_NAN_BITS = [0x7FC00000, 0xFFC00000, 0x7FC00001, 0xFFFFFFFF, 0x7FFFFFFF]
F64_NAN_BITS = [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                0x7FF4000000000000, 0xFFFFFFFFFFFFFFFF]

u32 = st.one_of(st.sampled_from(U32_EDGES),
                st.integers(min_value=0, max_value=2 ** 32 - 1))
s32 = st.one_of(st.sampled_from(S32_EDGES),
                st.integers(min_value=-2 ** 31, max_value=2 ** 32 - 1))
s64 = st.one_of(st.sampled_from(S64_EDGES),
                st.integers(min_value=-2 ** 63, max_value=2 ** 64 - 1))
f32 = st.one_of(
    st.floats(width=32, allow_nan=False),
    st.sampled_from(F32_NAN_BITS).map(
        lambda bits: struct.unpack("<f", struct.pack("<I", bits))[0]))
f64 = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from(F64_NAN_BITS).map(
        lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]))

IMMEDIATES = {
    Imm.NONE: st.just({}),
    Imm.MEM_IDX: st.just({}),
    Imm.BLOCKTYPE: st.fixed_dictionaries(
        {"blocktype": st.sampled_from([None, I32, I64, F32, F64])}),
    Imm.LABEL: st.fixed_dictionaries({"label": u32}),
    Imm.BR_TABLE: st.fixed_dictionaries({"br_table": st.builds(
        BrTable, st.lists(u32, max_size=5).map(tuple), u32)}),
    Imm.FUNC_IDX: st.fixed_dictionaries({"idx": u32}),
    Imm.TYPE_IDX: st.fixed_dictionaries({"idx": u32}),
    Imm.LOCAL_IDX: st.fixed_dictionaries({"idx": u32}),
    Imm.GLOBAL_IDX: st.fixed_dictionaries({"idx": u32}),
    Imm.MEMARG: st.fixed_dictionaries({"memarg": st.builds(MemArg, u32, u32)}),
    Imm.CONST_I32: st.fixed_dictionaries({"value": s32}),
    Imm.CONST_I64: st.fixed_dictionaries({"value": s64}),
    Imm.CONST_F32: st.fixed_dictionaries({"value": f32}),
    Imm.CONST_F64: st.fixed_dictionaries({"value": f64}),
}


@st.composite
def instrs(draw):
    op = draw(st.sampled_from(sorted(opcodes.BY_NAME)))
    return Instr(op, **draw(IMMEDIATES[opcodes.BY_NAME[op].imm]))


bodies = st.lists(instrs(), max_size=40)


def canonical(instr: Instr) -> tuple:
    """An instruction as the binary format sees it: integer constants in
    two's-complement range, floats by bit pattern."""
    value = instr.value
    imm = instr.info.imm
    if imm is Imm.CONST_I32:
        value = to_signed(value, 32)
    elif imm is Imm.CONST_I64:
        value = to_signed(value, 64)
    elif imm is Imm.CONST_F32:
        value = struct.pack("<f", value)
    elif imm is Imm.CONST_F64:
        value = struct.pack("<d", value)
    return (instr.op, value, instr.idx, instr.label, instr.br_table,
            instr.memarg, instr.blocktype)


@settings(max_examples=300, deadline=None)
@given(bodies)
def test_expr_is_concatenation_of_instrs(body):
    joined = b"".join(encode_instr(instr) for instr in body)
    assert encode_expr(body, terminated=True) == joined
    assert encode_expr(body) == joined + b"\x0b"


@settings(max_examples=300, deadline=None)
@given(bodies)
def test_decode_of_encode_roundtrips(body):
    raw = encode_expr(body, terminated=True)
    decoded = decode_instrs(raw)
    assert [canonical(i) for i in decoded] == [canonical(i) for i in body]
    assert encode_expr(decoded, terminated=True) == raw


@pytest.mark.parametrize("value,encoded", [
    (-65, b"\xbf\x7f"), (-64, b"\x40"), (63, b"\x3f"), (64, b"\xc0\x00"),
    (0xFFFFFFFF, b"\x7f"), (2 ** 31, b"\x80\x80\x80\x80\x78"),
    (-8193, b"\xff\xbf\x7f"), (-8192, b"\x80\x40"), (8191, b"\xff\x3f"),
    (8192, b"\x80\xc0\x00"),
])
def test_i32_const_leb_boundaries(value, encoded):
    assert encode_instr(Instr("i32.const", value=value)) == b"\x41" + encoded


@pytest.mark.parametrize("idx,encoded", [
    (127, b"\x7f"), (128, b"\x80\x01"), (16383, b"\xff\x7f"),
    (16384, b"\x80\x80\x01"), (2 ** 32 - 1, b"\xff\xff\xff\xff\x0f"),
])
def test_index_leb_boundaries(idx, encoded):
    assert encode_instr(Instr("call", idx=idx)) == b"\x10" + encoded
    assert encode_instr(Instr("br", label=idx)) == b"\x0c" + encoded


def test_unknown_mnemonic_rejected():
    with pytest.raises(EncodeError):
        encode_expr([Instr("i32.add"), Instr("i32.frobnicate")])


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        encode_instr(Instr("get_local", idx=-1))
