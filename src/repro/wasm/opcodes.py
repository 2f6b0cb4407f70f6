"""The complete WebAssembly MVP opcode table.

Every instruction of the MVP binary format (spec 1.0) is described by an
:class:`OpInfo` record giving its encoding byte, mnemonic, immediate kind,
static type signature (where the instruction is monomorphic), and the
Wasabi *hook group* it belongs to (paper, Table 2).

Mnemonics follow the paper-era (2018) naming — ``get_local``,
``i32.trunc_s/f32`` — because Wasabi's analysis API passes exactly these
strings to the ``local``/``unary``/``binary`` hooks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .types import F32, F64, I32, I64, ValType


class Imm(enum.Enum):
    """Kinds of immediate operands an instruction carries in the binary."""

    NONE = "none"
    BLOCKTYPE = "blocktype"      # block / loop / if
    LABEL = "label"              # br / br_if
    BR_TABLE = "br_table"        # vector of labels + default
    FUNC_IDX = "func_idx"        # call
    TYPE_IDX = "type_idx"        # call_indirect (+ reserved 0x00 byte)
    LOCAL_IDX = "local_idx"      # get/set/tee_local
    GLOBAL_IDX = "global_idx"    # get/set_global
    MEMARG = "memarg"            # loads / stores (align, offset)
    MEM_IDX = "mem_idx"          # memory.size / memory.grow (reserved 0x00)
    CONST_I32 = "const_i32"
    CONST_I64 = "const_i64"
    CONST_F32 = "const_f32"
    CONST_F64 = "const_f64"


class HookGroup(enum.Enum):
    """Wasabi's grouping of instructions into analysis hooks (Table 2).

    ``BEGIN``/``END`` are not listed here because block begins and ends are
    derived from the control instructions during instrumentation; ``IF``
    covers the conditional part of ``if``.
    """

    NOP = "nop"
    UNREACHABLE = "unreachable"
    CONST = "const"
    UNARY = "unary"
    BINARY = "binary"
    DROP = "drop"
    SELECT = "select"
    LOCAL = "local"
    GLOBAL = "global"
    LOAD = "load"
    STORE = "store"
    MEMORY_SIZE = "memory_size"
    MEMORY_GROW = "memory_grow"
    CALL = "call"
    RETURN = "return"
    BR = "br"
    BR_IF = "br_if"
    BR_TABLE = "br_table"
    BEGIN = "begin"
    END = "end"
    IF = "if"


@dataclass(frozen=True)
class OpInfo:
    """Static description of one instruction."""

    byte: int
    mnemonic: str
    imm: Imm
    #: ``(params, results)`` for monomorphic instructions, ``None`` where the
    #: type depends on context (control flow, calls, parametrics, variables).
    signature: tuple[tuple[ValType, ...], tuple[ValType, ...]] | None
    group: HookGroup | None

    @property
    def is_block_start(self) -> bool:
        return self.mnemonic in ("block", "loop", "if")


_T = {"i32": I32, "i64": I64, "f32": F32, "f64": F64}

_TABLE: list[OpInfo] = []


def _op(byte: int, mnemonic: str, imm: Imm = Imm.NONE,
        signature: tuple[tuple[ValType, ...], tuple[ValType, ...]] | None = None,
        group: HookGroup | None = None) -> None:
    _TABLE.append(OpInfo(byte, mnemonic, imm, signature, group))


def _unop(byte: int, mnemonic: str, in_t: ValType, out_t: ValType) -> None:
    _op(byte, mnemonic, Imm.NONE, ((in_t,), (out_t,)), HookGroup.UNARY)


def _binop(byte: int, mnemonic: str, in_t: ValType, out_t: ValType) -> None:
    _op(byte, mnemonic, Imm.NONE, ((in_t, in_t), (out_t,)), HookGroup.BINARY)


# -- Control instructions ----------------------------------------------------
_op(0x00, "unreachable", group=HookGroup.UNREACHABLE)
_op(0x01, "nop", signature=((), ()), group=HookGroup.NOP)
_op(0x02, "block", Imm.BLOCKTYPE, group=HookGroup.BEGIN)
_op(0x03, "loop", Imm.BLOCKTYPE, group=HookGroup.BEGIN)
_op(0x04, "if", Imm.BLOCKTYPE, group=HookGroup.IF)
_op(0x05, "else", group=HookGroup.BEGIN)
_op(0x0B, "end", group=HookGroup.END)
_op(0x0C, "br", Imm.LABEL, group=HookGroup.BR)
_op(0x0D, "br_if", Imm.LABEL, group=HookGroup.BR_IF)
_op(0x0E, "br_table", Imm.BR_TABLE, group=HookGroup.BR_TABLE)
_op(0x0F, "return", group=HookGroup.RETURN)
_op(0x10, "call", Imm.FUNC_IDX, group=HookGroup.CALL)
_op(0x11, "call_indirect", Imm.TYPE_IDX, group=HookGroup.CALL)

# -- Parametric instructions -------------------------------------------------
_op(0x1A, "drop", group=HookGroup.DROP)
_op(0x1B, "select", group=HookGroup.SELECT)

# -- Variable instructions ---------------------------------------------------
_op(0x20, "get_local", Imm.LOCAL_IDX, group=HookGroup.LOCAL)
_op(0x21, "set_local", Imm.LOCAL_IDX, group=HookGroup.LOCAL)
_op(0x22, "tee_local", Imm.LOCAL_IDX, group=HookGroup.LOCAL)
_op(0x23, "get_global", Imm.GLOBAL_IDX, group=HookGroup.GLOBAL)
_op(0x24, "set_global", Imm.GLOBAL_IDX, group=HookGroup.GLOBAL)

# -- Memory instructions -----------------------------------------------------
for _byte, _name, _vt in [
    (0x28, "i32.load", I32), (0x29, "i64.load", I64),
    (0x2A, "f32.load", F32), (0x2B, "f64.load", F64),
    (0x2C, "i32.load8_s", I32), (0x2D, "i32.load8_u", I32),
    (0x2E, "i32.load16_s", I32), (0x2F, "i32.load16_u", I32),
    (0x30, "i64.load8_s", I64), (0x31, "i64.load8_u", I64),
    (0x32, "i64.load16_s", I64), (0x33, "i64.load16_u", I64),
    (0x34, "i64.load32_s", I64), (0x35, "i64.load32_u", I64),
]:
    _op(_byte, _name, Imm.MEMARG, ((I32,), (_vt,)), HookGroup.LOAD)

for _byte, _name, _vt in [
    (0x36, "i32.store", I32), (0x37, "i64.store", I64),
    (0x38, "f32.store", F32), (0x39, "f64.store", F64),
    (0x3A, "i32.store8", I32), (0x3B, "i32.store16", I32),
    (0x3C, "i64.store8", I64), (0x3D, "i64.store16", I64),
    (0x3E, "i64.store32", I64),
]:
    _op(_byte, _name, Imm.MEMARG, ((I32, _vt), ()), HookGroup.STORE)

_op(0x3F, "memory.size", Imm.MEM_IDX, ((), (I32,)), HookGroup.MEMORY_SIZE)
_op(0x40, "memory.grow", Imm.MEM_IDX, ((I32,), (I32,)), HookGroup.MEMORY_GROW)

# -- Constants ---------------------------------------------------------------
_op(0x41, "i32.const", Imm.CONST_I32, ((), (I32,)), HookGroup.CONST)
_op(0x42, "i64.const", Imm.CONST_I64, ((), (I64,)), HookGroup.CONST)
_op(0x43, "f32.const", Imm.CONST_F32, ((), (F32,)), HookGroup.CONST)
_op(0x44, "f64.const", Imm.CONST_F64, ((), (F64,)), HookGroup.CONST)

# -- Integer comparison operators (binary, result i32) ------------------------
_unop(0x45, "i32.eqz", I32, I32)
for _i, _name in enumerate(["eq", "ne", "lt_s", "lt_u", "gt_s", "gt_u",
                            "le_s", "le_u", "ge_s", "ge_u"]):
    _binop(0x46 + _i, f"i32.{_name}", I32, I32)
_unop(0x50, "i64.eqz", I64, I32)
for _i, _name in enumerate(["eq", "ne", "lt_s", "lt_u", "gt_s", "gt_u",
                            "le_s", "le_u", "ge_s", "ge_u"]):
    _binop(0x51 + _i, f"i64.{_name}", I64, I32)

# -- Float comparison operators ------------------------------------------------
for _i, _name in enumerate(["eq", "ne", "lt", "gt", "le", "ge"]):
    _binop(0x5B + _i, f"f32.{_name}", F32, I32)
for _i, _name in enumerate(["eq", "ne", "lt", "gt", "le", "ge"]):
    _binop(0x61 + _i, f"f64.{_name}", F64, I32)

# -- Integer arithmetic --------------------------------------------------------
for _i, _name in enumerate(["clz", "ctz", "popcnt"]):
    _unop(0x67 + _i, f"i32.{_name}", I32, I32)
for _i, _name in enumerate(["add", "sub", "mul", "div_s", "div_u", "rem_s",
                            "rem_u", "and", "or", "xor", "shl", "shr_s",
                            "shr_u", "rotl", "rotr"]):
    _binop(0x6A + _i, f"i32.{_name}", I32, I32)
for _i, _name in enumerate(["clz", "ctz", "popcnt"]):
    _unop(0x79 + _i, f"i64.{_name}", I64, I64)
for _i, _name in enumerate(["add", "sub", "mul", "div_s", "div_u", "rem_s",
                            "rem_u", "and", "or", "xor", "shl", "shr_s",
                            "shr_u", "rotl", "rotr"]):
    _binop(0x7C + _i, f"i64.{_name}", I64, I64)

# -- Float arithmetic ----------------------------------------------------------
for _i, _name in enumerate(["abs", "neg", "ceil", "floor", "trunc",
                            "nearest", "sqrt"]):
    _unop(0x8B + _i, f"f32.{_name}", F32, F32)
for _i, _name in enumerate(["add", "sub", "mul", "div", "min", "max",
                            "copysign"]):
    _binop(0x92 + _i, f"f32.{_name}", F32, F32)
for _i, _name in enumerate(["abs", "neg", "ceil", "floor", "trunc",
                            "nearest", "sqrt"]):
    _unop(0x99 + _i, f"f64.{_name}", F64, F64)
for _i, _name in enumerate(["add", "sub", "mul", "div", "min", "max",
                            "copysign"]):
    _binop(0xA0 + _i, f"f64.{_name}", F64, F64)

# -- Conversions (all unary) ---------------------------------------------------
for _byte, _name, _in, _out in [
    (0xA7, "i32.wrap/i64", I64, I32),
    (0xA8, "i32.trunc_s/f32", F32, I32),
    (0xA9, "i32.trunc_u/f32", F32, I32),
    (0xAA, "i32.trunc_s/f64", F64, I32),
    (0xAB, "i32.trunc_u/f64", F64, I32),
    (0xAC, "i64.extend_s/i32", I32, I64),
    (0xAD, "i64.extend_u/i32", I32, I64),
    (0xAE, "i64.trunc_s/f32", F32, I64),
    (0xAF, "i64.trunc_u/f32", F32, I64),
    (0xB0, "i64.trunc_s/f64", F64, I64),
    (0xB1, "i64.trunc_u/f64", F64, I64),
    (0xB2, "f32.convert_s/i32", I32, F32),
    (0xB3, "f32.convert_u/i32", I32, F32),
    (0xB4, "f32.convert_s/i64", I64, F32),
    (0xB5, "f32.convert_u/i64", I64, F32),
    (0xB6, "f32.demote/f64", F64, F32),
    (0xB7, "f64.convert_s/i32", I32, F64),
    (0xB8, "f64.convert_u/i32", I32, F64),
    (0xB9, "f64.convert_s/i64", I64, F64),
    (0xBA, "f64.convert_u/i64", I64, F64),
    (0xBB, "f64.promote/f32", F32, F64),
    (0xBC, "i32.reinterpret/f32", F32, I32),
    (0xBD, "i64.reinterpret/f64", F64, I64),
    (0xBE, "f32.reinterpret/i32", I32, F32),
    (0xBF, "f64.reinterpret/i64", I64, F64),
]:
    _unop(_byte, _name, _in, _out)


#: Lookup by encoding byte and by mnemonic.
BY_BYTE: dict[int, OpInfo] = {op.byte: op for op in _TABLE}
BY_NAME: dict[str, OpInfo] = {op.mnemonic: op for op in _TABLE}

assert len(BY_BYTE) == len(_TABLE), "duplicate opcode byte"
assert len(BY_NAME) == len(_TABLE), "duplicate mnemonic"

#: Number of numeric instructions, as a sanity check against the spec
#: (the paper mentions "123 numeric instructions alone").
NUMERIC_OPS = [op for op in _TABLE
               if op.group in (HookGroup.UNARY, HookGroup.BINARY, HookGroup.CONST)]


def info(mnemonic: str) -> OpInfo:
    """Return the :class:`OpInfo` for a mnemonic, raising ``KeyError`` if unknown."""
    return BY_NAME[mnemonic]
