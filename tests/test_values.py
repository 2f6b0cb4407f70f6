"""Exact numeric semantics of the interpreter (spec conformance)."""

import math
import struct
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.interp import Machine
from repro.interp.values import BINOPS, MASK32, MASK64, UNOPS
from repro.wasm.builder import ModuleBuilder
from repro.wasm.errors import Trap
from repro.wasm.numeric import f32_bits, f32_from_bits, to_signed, to_unsigned
from repro.wasm.types import F32, I64

u32 = st.integers(min_value=0, max_value=MASK32)
u64 = st.integers(min_value=0, max_value=MASK64)


class TestIntegerArithmetic:
    def test_add_wraps(self):
        assert BINOPS["i32.add"](0xFFFFFFFF, 1) == 0
        assert BINOPS["i64.add"](MASK64, 2) == 1

    def test_sub_wraps(self):
        assert BINOPS["i32.sub"](0, 1) == 0xFFFFFFFF

    def test_mul_wraps(self):
        assert BINOPS["i32.mul"](0x10000, 0x10000) == 0

    def test_div_s_rounds_toward_zero(self):
        assert BINOPS["i32.div_s"](to_unsigned(-7, 32), 2) == to_unsigned(-3, 32)
        assert BINOPS["i32.div_s"](7, to_unsigned(-2, 32)) == to_unsigned(-3, 32)

    def test_div_u(self):
        assert BINOPS["i32.div_u"](to_unsigned(-1, 32), 2) == 0x7FFFFFFF

    def test_div_by_zero_traps(self):
        for op in ["i32.div_s", "i32.div_u", "i32.rem_s", "i32.rem_u",
                   "i64.div_s", "i64.div_u", "i64.rem_s", "i64.rem_u"]:
            with pytest.raises(Trap):
                BINOPS[op](1, 0)

    def test_div_s_overflow_traps(self):
        with pytest.raises(Trap):
            BINOPS["i32.div_s"](0x80000000, MASK32)  # MIN / -1

    def test_rem_s_min_minus_one_is_zero(self):
        # the one case where rem_s does NOT trap while div_s does
        assert BINOPS["i32.rem_s"](0x80000000, MASK32) == 0

    def test_rem_s_sign_follows_dividend(self):
        assert BINOPS["i32.rem_s"](to_unsigned(-7, 32), 3) == to_unsigned(-1, 32)
        assert BINOPS["i32.rem_s"](7, to_unsigned(-3, 32)) == 1

    def test_shifts_mask_count(self):
        assert BINOPS["i32.shl"](1, 33) == 2
        assert BINOPS["i64.shl"](1, 65) == 2

    def test_shr_s_sign_extends(self):
        assert BINOPS["i32.shr_s"](0x80000000, 1) == 0xC0000000

    def test_shr_u_zero_extends(self):
        assert BINOPS["i32.shr_u"](0x80000000, 1) == 0x40000000

    def test_rotl_rotr(self):
        assert BINOPS["i32.rotl"](0x80000001, 1) == 0x00000003
        assert BINOPS["i32.rotr"](0x00000003, 1) == 0x80000001
        assert BINOPS["i64.rotl"](1, 64) == 1

    def test_clz_ctz_popcnt(self):
        assert UNOPS["i32.clz"](0) == 32
        assert UNOPS["i32.clz"](1) == 31
        assert UNOPS["i64.clz"](0) == 64
        assert UNOPS["i32.ctz"](0) == 32
        assert UNOPS["i32.ctz"](8) == 3
        assert UNOPS["i32.popcnt"](0xF0F0F0F0) == 16

    def test_eqz(self):
        assert UNOPS["i32.eqz"](0) == 1
        assert UNOPS["i64.eqz"](5) == 0

    def test_signed_comparisons(self):
        minus_one = to_unsigned(-1, 32)
        assert BINOPS["i32.lt_s"](minus_one, 0) == 1
        assert BINOPS["i32.lt_u"](minus_one, 0) == 0
        assert BINOPS["i32.gt_s"](1, minus_one) == 1

    @given(u32, u32)
    def test_add_matches_reference(self, a, b):
        assert BINOPS["i32.add"](a, b) == (a + b) % 2 ** 32

    @given(u32, st.integers(min_value=1, max_value=MASK32))
    def test_divmod_identity_unsigned(self, a, b):
        q = BINOPS["i32.div_u"](a, b)
        r = BINOPS["i32.rem_u"](a, b)
        assert q * b + r == a and 0 <= r < b

    @given(u64, st.integers(min_value=0, max_value=200))
    def test_rot_roundtrip(self, x, k):
        rotated = BINOPS["i64.rotl"](x, k)
        assert BINOPS["i64.rotr"](rotated, k) == x


class TestFloatSemantics:
    def test_f32_rounding(self):
        # 0.1 is not representable in binary32
        result = BINOPS["f32.add"](0.1, 0.0)
        assert result == struct.unpack("<f", struct.pack("<f", 0.1))[0]

    def test_div_by_zero_gives_infinity(self):
        assert BINOPS["f64.div"](1.0, 0.0) == math.inf
        assert BINOPS["f64.div"](-1.0, 0.0) == -math.inf
        assert math.isnan(BINOPS["f64.div"](0.0, 0.0))

    def test_min_max_nan_propagation(self):
        assert math.isnan(BINOPS["f64.min"](float("nan"), 1.0))
        assert math.isnan(BINOPS["f32.max"](1.0, float("nan")))

    def test_min_of_signed_zeros(self):
        assert math.copysign(1.0, BINOPS["f64.min"](-0.0, 0.0)) == -1.0
        assert math.copysign(1.0, BINOPS["f64.max"](-0.0, 0.0)) == 1.0

    def test_nearest_rounds_half_to_even(self):
        assert UNOPS["f64.nearest"](0.5) == 0.0
        assert UNOPS["f64.nearest"](1.5) == 2.0
        assert UNOPS["f64.nearest"](2.5) == 2.0
        assert UNOPS["f64.nearest"](-0.5) == -0.0

    def test_trunc_preserves_negative_zero(self):
        result = UNOPS["f64.trunc"](-0.25)
        assert result == 0.0 and math.copysign(1.0, result) == -1.0

    def test_sqrt(self):
        assert UNOPS["f64.sqrt"](4.0) == 2.0
        assert math.isnan(UNOPS["f64.sqrt"](-1.0))
        assert math.copysign(1.0, UNOPS["f64.sqrt"](-0.0)) == -1.0

    def test_copysign(self):
        assert BINOPS["f64.copysign"](3.0, -1.0) == -3.0
        assert BINOPS["f64.copysign"](-3.0, 1.0) == 3.0

    def test_comparisons_with_nan(self):
        nan = float("nan")
        assert BINOPS["f64.eq"](nan, nan) == 0
        assert BINOPS["f64.ne"](nan, nan) == 1
        assert BINOPS["f64.lt"](nan, 1.0) == 0

    def test_abs_neg(self):
        assert UNOPS["f32.abs"](-2.5) == 2.5
        assert UNOPS["f64.neg"](1.5) == -1.5


class TestConversions:
    def test_wrap(self):
        assert UNOPS["i32.wrap/i64"](0x1_0000_0001) == 1

    def test_extend(self):
        assert UNOPS["i64.extend_s/i32"](to_unsigned(-1, 32)) == MASK64
        assert UNOPS["i64.extend_u/i32"](to_unsigned(-1, 32)) == MASK32

    def test_trunc_basic(self):
        assert UNOPS["i32.trunc_s/f64"](-3.7) == to_unsigned(-3, 32)
        assert UNOPS["i32.trunc_u/f64"](3.7) == 3

    def test_trunc_nan_traps(self):
        with pytest.raises(Trap):
            UNOPS["i32.trunc_s/f64"](float("nan"))

    def test_trunc_overflow_traps(self):
        with pytest.raises(Trap):
            UNOPS["i32.trunc_s/f64"](2.0 ** 31)
        with pytest.raises(Trap):
            UNOPS["i32.trunc_u/f64"](-1.0)
        # but values that truncate into range are fine
        assert UNOPS["i32.trunc_u/f64"](-0.5) == 0

    def test_convert(self):
        assert UNOPS["f64.convert_s/i32"](to_unsigned(-5, 32)) == -5.0
        assert UNOPS["f64.convert_u/i32"](to_unsigned(-5, 32)) == 4294967291.0
        assert UNOPS["f64.convert_u/i64"](MASK64) == 2.0 ** 64

    def test_reinterpret_roundtrip(self):
        bits = UNOPS["i64.reinterpret/f64"](-2.5)
        assert UNOPS["f64.reinterpret/i64"](bits) == -2.5
        assert UNOPS["i32.reinterpret/f32"](-0.0) == 0x80000000

    @given(st.floats(allow_nan=False, allow_infinity=False, width=32))
    def test_f32_bits_roundtrip(self, x):
        bits = UNOPS["i32.reinterpret/f32"](x)
        assert UNOPS["f32.reinterpret/i32"](bits) == x

    @given(st.integers(min_value=-2 ** 31, max_value=2 ** 31 - 1))
    def test_trunc_of_convert_is_identity(self, value):
        converted = UNOPS["f64.convert_s/i32"](to_unsigned(value, 32))
        assert to_signed(UNOPS["i32.trunc_s/f64"](converted), 32) == value


def _converted_on(predecode: bool, op: str, value: int) -> float:
    builder = ModuleBuilder("convert")
    fb = builder.function((I64,), (F32,), name="f", export="f")
    fb.get_local(0).emit(op).finish()
    result, = Machine(predecode=predecode).instantiate(builder.build()).invoke("f", [value])
    return result


class TestI64ToF32:
    """i64 to f32 conversions round once, to nearest, ties to even."""

    #: Inputs from the spec test suite's ``conversions.wast`` that a
    #: conversion rounding through binary64 first gets wrong.
    SPEC_CASES = [
        ("f32.convert_u/i64", 0x8000008000000001, "0x1.000002p+63"),
        ("f32.convert_u/i64", 0x20000020000001, "0x1.000002p+53"),
        ("f32.convert_s/i64", 0x20000020000001, "0x1.000002p+53"),
        ("f32.convert_s/i64", -0x20000020000001, "-0x1.000002p+53"),
        ("f32.convert_u/i64", 0xFFFFFE8000000001, "0x1.fffffep+63"),
        ("f32.convert_s/i64", 0x7FFFFF4000000001, "0x1.fffffep+62"),
        ("f32.convert_u/i64", 0x7FFFFF4000000001, "0x1.fffffep+62"),
    ]

    @pytest.mark.parametrize("predecode", [True, False], ids=["decoded", "legacy"])
    @pytest.mark.parametrize("op, value, expected", SPEC_CASES)
    def test_spec_cases_on_both_engines(self, op, value, expected, predecode):
        assert _converted_on(predecode, op, value) == float.fromhex(expected)

    @given(u64)
    def test_rounds_to_nearest_even(self, x):
        """Each result is a binary32 value no farther from the input than
        either neighbour, and has an even significand on a tie."""
        for op, exact in (("f32.convert_u/i64", x), ("f32.convert_s/i64", to_signed(x, 64))):
            result = UNOPS[op](x)
            bits = f32_bits(result)
            assert f32_from_bits(bits) == result
            distance = abs(Fraction(result) - exact)
            for neighbour in (bits - 1, bits + 1):
                if neighbour & 0x7FFFFFFF < 0x7F800000:  # finite, same sign
                    other = abs(Fraction(f32_from_bits(neighbour)) - exact)
                    assert distance < other or (distance == other and bits % 2 == 0)
