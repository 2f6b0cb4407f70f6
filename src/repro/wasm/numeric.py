"""Shared numeric helpers: two's-complement conversions and IEEE-754 bit casts.

Used by the binary encoder/decoder and by the interpreter's value semantics.
"""

from __future__ import annotations

import math
import struct


def to_unsigned(value: int, bits: int) -> int:
    """Map an integer into the unsigned two's-complement range [0, 2**bits)."""
    return value & ((1 << bits) - 1)


def to_signed(value: int, bits: int) -> int:
    """Map an integer into the signed two's-complement range [-2**(bits-1), 2**(bits-1))."""
    value &= (1 << bits) - 1
    if value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


def f32_round(x: float) -> float:
    """Round a Python float (binary64) to the nearest binary32 value.

    Values beyond the binary32 range overflow to ±infinity, as IEEE-754
    round-to-nearest prescribes (struct.pack raises instead of rounding).
    """
    try:
        return struct.unpack("<f", struct.pack("<f", x))[0]
    except OverflowError:
        return math.copysign(math.inf, x)


def f32_bits(x: float) -> int:
    """The IEEE-754 binary32 bit pattern of ``x`` as an unsigned 32-bit int."""
    return struct.unpack("<I", struct.pack("<f", x))[0]


def f32_from_bits(bits: int) -> float:
    return struct.unpack("<f", struct.pack("<I", bits & 0xFFFFFFFF))[0]


def f64_bits(x: float) -> int:
    """The IEEE-754 binary64 bit pattern of ``x`` as an unsigned 64-bit int."""
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def f64_from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits & 0xFFFFFFFFFFFFFFFF))[0]
