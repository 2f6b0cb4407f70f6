"""Type system primitives of WebAssembly (MVP).

WebAssembly knows four primitive *value types* (i32, i64, f32, f64),
*function types* mapping parameter lists to result lists, *limits* for
memories and tables, *global types* (value type + mutability), and
*external types* classifying imports/exports.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class ValType(enum.Enum):
    """A primitive WebAssembly value type."""

    I32 = "i32"
    I64 = "i64"
    F32 = "f32"
    F64 = "f64"

    # Members are singletons compared by identity, so the identity hash is
    # consistent with equality; Enum's own hashes the name in Python code,
    # which dominates dict lookups keyed by value type.
    __hash__ = object.__hash__

    @property
    def is_int(self) -> bool:
        return self in (ValType.I32, ValType.I64)

    @property
    def is_float(self) -> bool:
        return self in (ValType.F32, ValType.F64)

    @property
    def bit_width(self) -> int:
        return {ValType.I32: 32, ValType.I64: 64, ValType.F32: 32, ValType.F64: 64}[self]

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    @staticmethod
    def from_str(name: str) -> "ValType":
        try:
            return _VALTYPE_BY_NAME[name]
        except KeyError:
            raise ValueError(f"unknown value type {name!r}") from None


_VALTYPE_BY_NAME = {t.value: t for t in ValType}

I32 = ValType.I32
I64 = ValType.I64
F32 = ValType.F32
F64 = ValType.F64

#: Binary-format encodings of value types (and the empty block type).
VALTYPE_TO_BYTE = {I32: 0x7F, I64: 0x7E, F32: 0x7D, F64: 0x7C}
BYTE_TO_VALTYPE = {v: k for k, v in VALTYPE_TO_BYTE.items()}
EMPTY_BLOCKTYPE_BYTE = 0x40


@dataclass(frozen=True)
class FuncType:
    """A function type ``[params] -> [results]``.

    The MVP binary format restricts results to at most one value; the
    encoder enforces this, while the in-memory representation already
    supports multiple results (as the paper notes the formal semantics do).
    """

    params: tuple[ValType, ...] = ()
    results: tuple[ValType, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(self.params))
        object.__setattr__(self, "results", tuple(self.results))

    def __str__(self) -> str:
        ps = " ".join(map(str, self.params)) or "ε"
        rs = " ".join(map(str, self.results)) or "ε"
        return f"[{ps}] -> [{rs}]"


@dataclass(frozen=True)
class Limits:
    """Size limits of a memory (in 64 KiB pages) or table (in entries)."""

    minimum: int
    maximum: int | None = None

    def __post_init__(self):
        if self.minimum < 0:
            raise ValueError("limits minimum must be non-negative")
        if self.maximum is not None and self.maximum < self.minimum:
            raise ValueError("limits maximum must be >= minimum")

    def contains(self, size: int) -> bool:
        if size < self.minimum:
            return False
        return self.maximum is None or size <= self.maximum


@dataclass(frozen=True)
class GlobalType:
    """Type of a global variable: a value type plus mutability."""

    valtype: ValType
    mutable: bool = False


@dataclass(frozen=True)
class TableType:
    """Type of a table. The MVP only supports ``funcref`` elements."""

    limits: Limits = field(default_factory=lambda: Limits(0))


@dataclass(frozen=True)
class MemoryType:
    """Type of a linear memory, sized in 64 KiB pages."""

    limits: Limits = field(default_factory=lambda: Limits(0))


#: Size of one linear-memory page in bytes.
PAGE_SIZE = 65536

#: Hard upper bound of pages addressable with 32-bit addresses.
MAX_PAGES = 65536
