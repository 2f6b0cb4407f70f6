"""Exact WebAssembly numeric semantics.

Integers are represented as unsigned Python ints in canonical
two's-complement form (``0 <= x < 2**bits``); floats as Python floats,
with every f32 operation rounded through binary32. All trapping behaviour
(division by zero, signed-overflow division, float-to-int truncation out of
range) matches the spec.

The tables :data:`UNOPS` and :data:`BINOPS` map mnemonics to plain Python
functions and are the interpreter's arithmetic core.
"""

from __future__ import annotations

import math
import operator
from typing import Callable

from ..wasm.errors import Trap
from ..wasm.numeric import (f32_bits, f32_from_bits, f32_round, f64_bits,
                            f64_from_bits, to_signed, to_unsigned)

MASK32 = 0xFFFFFFFF
MASK64 = 0xFFFFFFFFFFFFFFFF


# -- integer helpers -----------------------------------------------------------

def _clz(x: int, bits: int) -> int:
    if x == 0:
        return bits
    return bits - x.bit_length()


def _ctz(x: int, bits: int) -> int:
    if x == 0:
        return bits
    return (x & -x).bit_length() - 1


def _popcnt(x: int) -> int:
    return bin(x).count("1")


def _div_s(a: int, b: int, bits: int) -> int:
    sa, sb = to_signed(a, bits), to_signed(b, bits)
    if sb == 0:
        raise Trap("integer divide by zero")
    quotient = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        quotient = -quotient
    if quotient >= 1 << (bits - 1):
        raise Trap("integer overflow")  # MIN / -1
    return to_unsigned(quotient, bits)


def _div_u(a: int, b: int, bits: int) -> int:
    if b == 0:
        raise Trap("integer divide by zero")
    return a // b


def _rem_s(a: int, b: int, bits: int) -> int:
    sa, sb = to_signed(a, bits), to_signed(b, bits)
    if sb == 0:
        raise Trap("integer divide by zero")
    remainder = abs(sa) % abs(sb)
    if sa < 0:
        remainder = -remainder
    return to_unsigned(remainder, bits)


def _rem_u(a: int, b: int, bits: int) -> int:
    if b == 0:
        raise Trap("integer divide by zero")
    return a % b


def _rotl(x: int, k: int, bits: int) -> int:
    k %= bits
    mask = (1 << bits) - 1
    return ((x << k) | (x >> (bits - k))) & mask if k else x


def _rotr(x: int, k: int, bits: int) -> int:
    return _rotl(x, bits - (k % bits), bits) if k % bits else x


def _shr_s(x: int, k: int, bits: int) -> int:
    return to_unsigned(to_signed(x, bits) >> (k % bits), bits)


def _bool(x: bool) -> int:
    return 1 if x else 0


# -- float helpers -------------------------------------------------------------

_CANONICAL_NAN = float("nan")


def _fdiv(a: float, b: float) -> float:
    if b == 0.0:
        if a == 0.0 or math.isnan(a):
            return _CANONICAL_NAN
        sign = math.copysign(1.0, a) * math.copysign(1.0, b)
        return math.inf if sign > 0 else -math.inf
    return a / b


def _fmin(a: float, b: float) -> float:
    if math.isnan(a) or math.isnan(b):
        return _CANONICAL_NAN
    if a == 0.0 and b == 0.0:
        # min(-0, +0) = -0
        return a if math.copysign(1.0, a) < 0 else b
    return a if a < b else b


def _fmax(a: float, b: float) -> float:
    if math.isnan(a) or math.isnan(b):
        return _CANONICAL_NAN
    if a == 0.0 and b == 0.0:
        return a if math.copysign(1.0, a) > 0 else b
    return a if a > b else b


def _fnearest(x: float) -> float:
    if math.isnan(x) or math.isinf(x) or x == 0.0:
        return x
    rounded = float(round(x))  # Python rounds half to even
    if rounded == 0.0:
        return math.copysign(0.0, x)
    return rounded


def _ftrunc(x: float) -> float:
    if math.isnan(x) or math.isinf(x) or x == 0.0:
        return x
    truncated = float(math.trunc(x))
    if truncated == 0.0:
        return math.copysign(0.0, x)
    return truncated


def _fsqrt(x: float) -> float:
    if math.isnan(x):
        return _CANONICAL_NAN
    if x < 0.0:
        return _CANONICAL_NAN
    if x == 0.0:
        return x  # preserve -0.0
    return math.sqrt(x)


def _fceil(x: float) -> float:
    if math.isnan(x) or math.isinf(x) or x == 0.0:
        return x
    result = float(math.ceil(x))
    if result == 0.0:
        return math.copysign(0.0, x)
    return result


def _ffloor(x: float) -> float:
    if math.isnan(x) or math.isinf(x) or x == 0.0:
        return x
    return float(math.floor(x))


def _fcopysign(a: float, b: float) -> float:
    if math.isnan(a):
        return math.copysign(_CANONICAL_NAN, b)
    return math.copysign(abs(a), b)


def _trunc_to_int(x: float, bits: int, signed: bool, what: str) -> int:
    if math.isnan(x):
        raise Trap(f"invalid conversion to integer ({what} of NaN)")
    if math.isinf(x):
        raise Trap(f"integer overflow ({what} of infinity)")
    truncated = math.trunc(x)
    if signed:
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    else:
        lo, hi = 0, (1 << bits) - 1
    if not lo <= truncated <= hi:
        raise Trap(f"integer overflow ({what} of {x!r})")
    return to_unsigned(truncated, bits)


def _convert_u64_to_float(x: int) -> float:
    return float(x)


def _int_to_f32(x: int) -> float:
    """``x`` rounded once to binary32, ties to even.

    ``f32_round(float(x))`` rounds twice, to binary64 and then to
    binary32, which is wrong when the first rounding lands on a binary32
    tie (``0x20000020000001`` gives ``0x1p+53``, not ``0x1.000002p+53``).
    Rounding the integer to 24 significant bits leaves ``float`` nothing
    to round, and a 64-bit magnitude cannot overflow binary32.
    """
    magnitude = abs(x)
    excess = magnitude.bit_length() - 24
    if excess > 0:
        kept = magnitude >> excess
        dropped = magnitude & ((1 << excess) - 1)
        half = 1 << (excess - 1)
        if dropped > half or (dropped == half and kept & 1):
            kept += 1
        magnitude = kept << excess
    return float(magnitude) if x >= 0 else -float(magnitude)


# -- operation tables ------------------------------------------------------------

UnOp = Callable[[int | float], int | float]
BinOp = Callable[[int | float, int | float], int | float]

UNOPS: dict[str, UnOp] = {}
BINOPS: dict[str, BinOp] = {}


def _register_int_ops(prefix: str, bits: int) -> None:
    mask = (1 << bits) - 1
    UNOPS[f"{prefix}.clz"] = lambda x: _clz(x, bits)
    UNOPS[f"{prefix}.ctz"] = lambda x: _ctz(x, bits)
    UNOPS[f"{prefix}.popcnt"] = _popcnt
    UNOPS[f"{prefix}.eqz"] = lambda x: _bool(x == 0)
    BINOPS[f"{prefix}.add"] = lambda a, b: (a + b) & mask
    BINOPS[f"{prefix}.sub"] = lambda a, b: (a - b) & mask
    BINOPS[f"{prefix}.mul"] = lambda a, b: (a * b) & mask
    BINOPS[f"{prefix}.div_s"] = lambda a, b: _div_s(a, b, bits)
    BINOPS[f"{prefix}.div_u"] = lambda a, b: _div_u(a, b, bits)
    BINOPS[f"{prefix}.rem_s"] = lambda a, b: _rem_s(a, b, bits)
    BINOPS[f"{prefix}.rem_u"] = lambda a, b: _rem_u(a, b, bits)
    # bitwise ops on already-masked unsigned values stay in range, so the
    # C-level operator functions are drop-in (and much cheaper to call
    # than a Python-level lambda)
    BINOPS[f"{prefix}.and"] = operator.and_
    BINOPS[f"{prefix}.or"] = operator.or_
    BINOPS[f"{prefix}.xor"] = operator.xor
    BINOPS[f"{prefix}.shl"] = lambda a, b: (a << (b % bits)) & mask
    BINOPS[f"{prefix}.shr_s"] = lambda a, b: _shr_s(a, b, bits)
    BINOPS[f"{prefix}.shr_u"] = lambda a, b: a >> (b % bits)
    BINOPS[f"{prefix}.rotl"] = lambda a, b: _rotl(a, b, bits)
    BINOPS[f"{prefix}.rotr"] = lambda a, b: _rotr(a, b, bits)
    BINOPS[f"{prefix}.eq"] = lambda a, b: _bool(a == b)
    BINOPS[f"{prefix}.ne"] = lambda a, b: _bool(a != b)
    BINOPS[f"{prefix}.lt_s"] = lambda a, b: _bool(to_signed(a, bits) < to_signed(b, bits))
    BINOPS[f"{prefix}.lt_u"] = lambda a, b: _bool(a < b)
    BINOPS[f"{prefix}.gt_s"] = lambda a, b: _bool(to_signed(a, bits) > to_signed(b, bits))
    BINOPS[f"{prefix}.gt_u"] = lambda a, b: _bool(a > b)
    BINOPS[f"{prefix}.le_s"] = lambda a, b: _bool(to_signed(a, bits) <= to_signed(b, bits))
    BINOPS[f"{prefix}.le_u"] = lambda a, b: _bool(a <= b)
    BINOPS[f"{prefix}.ge_s"] = lambda a, b: _bool(to_signed(a, bits) >= to_signed(b, bits))
    BINOPS[f"{prefix}.ge_u"] = lambda a, b: _bool(a >= b)


_register_int_ops("i32", 32)
_register_int_ops("i64", 64)


def _register_float_ops(prefix: str, narrow: bool) -> None:
    rnd = f32_round if narrow else (lambda x: x)
    UNOPS[f"{prefix}.abs"] = operator.abs
    UNOPS[f"{prefix}.neg"] = operator.neg
    UNOPS[f"{prefix}.ceil"] = _fceil
    UNOPS[f"{prefix}.floor"] = _ffloor
    UNOPS[f"{prefix}.trunc"] = _ftrunc
    UNOPS[f"{prefix}.nearest"] = _fnearest
    if narrow:
        UNOPS[f"{prefix}.sqrt"] = lambda x: rnd(_fsqrt(x))
        BINOPS[f"{prefix}.add"] = lambda a, b: rnd(a + b)
        BINOPS[f"{prefix}.sub"] = lambda a, b: rnd(a - b)
        BINOPS[f"{prefix}.mul"] = lambda a, b: rnd(a * b)
        BINOPS[f"{prefix}.div"] = lambda a, b: rnd(_fdiv(a, b))
    else:
        # f64 results need no narrowing: Python floats *are* IEEE
        # doubles, so +/-/* are exact and the C-level operators apply
        UNOPS[f"{prefix}.sqrt"] = _fsqrt
        BINOPS[f"{prefix}.add"] = operator.add
        BINOPS[f"{prefix}.sub"] = operator.sub
        BINOPS[f"{prefix}.mul"] = operator.mul
        BINOPS[f"{prefix}.div"] = _fdiv
    BINOPS[f"{prefix}.min"] = _fmin
    BINOPS[f"{prefix}.max"] = _fmax
    BINOPS[f"{prefix}.copysign"] = _fcopysign
    BINOPS[f"{prefix}.eq"] = lambda a, b: _bool(a == b)
    BINOPS[f"{prefix}.ne"] = lambda a, b: _bool(a != b or math.isnan(a) or math.isnan(b))
    BINOPS[f"{prefix}.lt"] = lambda a, b: _bool(a < b)
    BINOPS[f"{prefix}.gt"] = lambda a, b: _bool(a > b)
    BINOPS[f"{prefix}.le"] = lambda a, b: _bool(a <= b)
    BINOPS[f"{prefix}.ge"] = lambda a, b: _bool(a >= b)


_register_float_ops("f32", narrow=True)
_register_float_ops("f64", narrow=False)

# -- conversions -------------------------------------------------------------------

UNOPS.update({
    "i32.wrap/i64": lambda x: x & MASK32,
    "i32.trunc_s/f32": lambda x: _trunc_to_int(x, 32, True, "i32.trunc_s"),
    "i32.trunc_u/f32": lambda x: _trunc_to_int(x, 32, False, "i32.trunc_u"),
    "i32.trunc_s/f64": lambda x: _trunc_to_int(x, 32, True, "i32.trunc_s"),
    "i32.trunc_u/f64": lambda x: _trunc_to_int(x, 32, False, "i32.trunc_u"),
    "i64.extend_s/i32": lambda x: to_unsigned(to_signed(x, 32), 64),
    "i64.extend_u/i32": lambda x: x,
    "i64.trunc_s/f32": lambda x: _trunc_to_int(x, 64, True, "i64.trunc_s"),
    "i64.trunc_u/f32": lambda x: _trunc_to_int(x, 64, False, "i64.trunc_u"),
    "i64.trunc_s/f64": lambda x: _trunc_to_int(x, 64, True, "i64.trunc_s"),
    "i64.trunc_u/f64": lambda x: _trunc_to_int(x, 64, False, "i64.trunc_u"),
    "f32.convert_s/i32": lambda x: f32_round(float(to_signed(x, 32))),
    "f32.convert_u/i32": lambda x: f32_round(float(x)),
    "f32.convert_s/i64": lambda x: _int_to_f32(to_signed(x, 64)),
    "f32.convert_u/i64": _int_to_f32,
    "f32.demote/f64": f32_round,
    "f64.convert_s/i32": lambda x: float(to_signed(x, 32)),
    "f64.convert_u/i32": lambda x: float(x),
    "f64.convert_s/i64": lambda x: float(to_signed(x, 64)),
    "f64.convert_u/i64": _convert_u64_to_float,
    "f64.promote/f32": lambda x: x,
    "i32.reinterpret/f32": f32_bits,
    "i64.reinterpret/f64": f64_bits,
    "f32.reinterpret/i32": f32_from_bits,
    "f64.reinterpret/i64": f64_from_bits,
})


# -- combined handler table ----------------------------------------------------
# The pre-decoder resolves every arithmetic mnemonic through this single
# arity-tagged table, so the interpreter's hot loop never probes UNOPS and
# BINOPS separately.

OP_HANDLERS: dict[str, tuple[int, UnOp | BinOp]] = {}
OP_HANDLERS.update({name: (1, fn) for name, fn in UNOPS.items()})
OP_HANDLERS.update({name: (2, fn) for name, fn in BINOPS.items()})
assert len(OP_HANDLERS) == len(UNOPS) + len(BINOPS), "unary/binary mnemonic clash"


def default_value(valtype) -> int | float:
    """The zero value of a value type (used for locals and globals)."""
    return 0.0 if valtype.value.startswith("f") else 0
