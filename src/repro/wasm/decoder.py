"""Decoder for the WebAssembly binary format (spec 1.0 / MVP).

Parses complete ``.wasm`` binaries into :class:`repro.wasm.module.Module`,
including the function-name subsection of the name section. Unknown custom
sections are preserved verbatim so that re-encoding keeps them.

Code is decoded by one table-driven loop per expression (the mirror of the
encoder's): a per-opcode-byte plan gives the mnemonic, the kind of
immediate that follows, and a shared :class:`Instr` for opcodes without
one. Instructions with immediates are interned per :func:`decode_module`
call, so every ``get_local 0`` of a module is the same object.
"""

from __future__ import annotations

import struct

from . import leb128, opcodes
from .errors import DecodeError
from .module import (BrTable, CustomSection, DataSegment, ElemSegment, Export,
                     Function, Global, Import, Instr, MemArg, Module)
from .encoder import MAGIC, VERSION
from .types import (BYTE_TO_VALTYPE, EMPTY_BLOCKTYPE_BYTE, FuncType,
                    GlobalType, Limits, MemoryType, TableType, ValType)

_decode_unsigned = leb128.decode_unsigned
_decode_signed = leb128.decode_signed


class _Reader:
    """Cursor over ``data[pos:end]`` with the readers section framing needs.

    No read goes past ``end``: a byte, a run of bytes or a LEB128 integer
    that would is malformed input.
    """

    def __init__(self, data: bytes, pos: int = 0, end: int | None = None):
        self.data = data
        self.pos = pos
        self.end = len(data) if end is None else end

    def eof(self) -> bool:
        return self.pos >= self.end

    def byte(self) -> int:
        if self.pos >= self.end:
            raise DecodeError("unexpected end of input", offset=self.pos)
        value = self.data[self.pos]
        self.pos += 1
        return value

    def raw(self, count: int) -> bytes:
        if self.pos + count > self.end:
            raise DecodeError("unexpected end of input", offset=self.pos)
        chunk = self.data[self.pos:self.pos + count]
        self.pos += count
        return chunk

    def u32(self) -> int:
        data, pos, end = self.data, self.pos, self.end
        if pos < end and data[pos] < 0x80:
            self.pos = pos + 1
            return data[pos]
        value, self.pos = _decode_unsigned(data, pos, 32, end)
        return value

    def name(self) -> str:
        length = self.u32()
        try:
            return self.raw(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError(f"malformed UTF-8 name: {exc}", offset=self.pos) from None

    def valtype(self) -> ValType:
        byte = self.byte()
        try:
            return BYTE_TO_VALTYPE[byte]
        except KeyError:
            raise DecodeError(f"invalid value type byte {byte:#x}",
                              offset=self.pos - 1) from None

    def limits(self) -> Limits:
        offset = self.pos
        flag = self.byte()
        if flag == 0x00:
            return Limits(self.u32())
        if flag == 0x01:
            minimum = self.u32()
            maximum = self.u32()
            try:
                return Limits(minimum, maximum)
            except ValueError as exc:
                # Limits' own sanity check (max < min) is a ValueError for
                # programmatic construction; from binary input it must
                # surface as a malformed-module error
                raise DecodeError(str(exc), offset=offset) from None
        raise DecodeError(f"invalid limits flag {flag:#x}", offset=self.pos - 1)

    def expr(self, interned: dict) -> list[Instr]:
        instrs, self.pos = _decode_expr(self.data, self.pos, self.end, interned)
        return instrs


# -- code ---------------------------------------------------------------------
# One plan per opcode byte, built once from the opcode table. The immediate
# kinds are small ints, tested roughly in order of frequency in real code
# (immediate-free ops, then local indices and i32 constants).

_NONE, _IDX, _I32, _END, _BLOCK, _MEMARG, _LABEL, _F64, _F32, _I64, \
    _BR_TABLE, _TYPE_IDX, _MEM_IDX, _UNKNOWN = range(14)

_KIND_OF_IMM = {
    opcodes.Imm.NONE: _NONE,
    opcodes.Imm.FUNC_IDX: _IDX,
    opcodes.Imm.LOCAL_IDX: _IDX,
    opcodes.Imm.GLOBAL_IDX: _IDX,
    opcodes.Imm.CONST_I32: _I32,
    opcodes.Imm.BLOCKTYPE: _BLOCK,
    opcodes.Imm.MEMARG: _MEMARG,
    opcodes.Imm.LABEL: _LABEL,
    opcodes.Imm.CONST_F64: _F64,
    opcodes.Imm.CONST_F32: _F32,
    opcodes.Imm.CONST_I64: _I64,
    opcodes.Imm.BR_TABLE: _BR_TABLE,
    opcodes.Imm.TYPE_IDX: _TYPE_IDX,
    opcodes.Imm.MEM_IDX: _MEM_IDX,
}

_END_INSTR = Instr("end")


def _plan(op: opcodes.OpInfo | None) -> tuple:
    """``(kind, mnemonic, shared)``: ``shared`` is the one :class:`Instr` of
    an immediate-free op (``end`` included), and for ``block``/``loop``/
    ``if`` a map from block-type byte to the one :class:`Instr` per type."""
    if op is None:
        return (_UNKNOWN, None, None)
    kind = _KIND_OF_IMM[op.imm]
    if op.byte == 0x0B:
        return (_END, op.mnemonic, _END_INSTR)
    if kind in (_NONE, _MEM_IDX):
        return (kind, op.mnemonic, Instr(op.mnemonic))
    if kind == _BLOCK:
        types = {EMPTY_BLOCKTYPE_BYTE: None, **BYTE_TO_VALTYPE}
        return (kind, op.mnemonic, {byte: Instr(op.mnemonic, blocktype=valtype)
                                    for byte, valtype in types.items()})
    return (kind, op.mnemonic, None)


_PLANS: tuple[tuple, ...] = tuple(_plan(opcodes.BY_BYTE.get(byte)) for byte in range(256))

_unpack_f32 = struct.Struct("<f").unpack
_unpack_f64 = struct.Struct("<d").unpack


def _decode_expr(data: bytes, pos: int, end: int, interned: dict,
                 flat: bool = False) -> tuple[list[Instr], int]:
    """Decode ``data[pos:end]`` up to and including the matching top-level
    ``end``; return the instructions *without* that ``end`` (it is implicit
    for initializer expressions, and function bodies re-append it) and the
    position after it. ``flat`` decodes a bare instruction sequence up to
    ``end`` instead, ``end`` opcodes included. No immediate is read past
    ``end``.

    ``interned`` maps ``immediate << 8 | opcode byte`` (the immediate is an
    index, a label, an integer constant or ``offset << 32 | align``) and a
    float constant's raw bytes, opcode included, to the one :class:`Instr`
    decoded for it. One-byte LEB128 immediates are read inline; longer ones
    go through :mod:`leb128`, which keeps every overlong, out-of-range and
    truncation check and its message.
    """
    instrs: list[Instr] = []
    append = instrs.append
    plans = _PLANS
    lookup = interned.get
    depth = 0
    while True:
        if pos >= end:
            if flat:
                return instrs, pos
            raise DecodeError("unexpected end of input", offset=pos)
        start = pos
        byte = data[pos]
        pos += 1
        kind, name, shared = plans[byte]
        if kind == _NONE:
            append(shared)
            continue
        if kind == _IDX or kind == _LABEL:
            if pos < end and data[pos] < 0x80:
                value = data[pos]
                pos += 1
            else:
                value, pos = _decode_unsigned(data, pos, 32, end)
            key = value << 8 | byte
            instr = lookup(key)
            if instr is None:
                if kind == _IDX:
                    instr = interned[key] = Instr(name, idx=value)
                else:
                    instr = interned[key] = Instr(name, label=value)
        elif kind == _I32 or kind == _I64:
            if pos < end and data[pos] < 0x80:
                value = data[pos]
                if value >= 0x40:
                    value -= 0x80
                pos += 1
            else:
                value, pos = _decode_signed(data, pos, 32 if kind == _I32 else 64, end)
            key = value << 8 | byte
            instr = lookup(key)
            if instr is None:
                instr = interned[key] = Instr(name, value=value)
        elif kind == _END:
            if depth == 0 and not flat:
                return instrs, pos
            depth -= 1
            instr = shared
        elif kind == _BLOCK:
            if pos >= end:
                raise DecodeError("unexpected end of input", offset=pos)
            instr = shared.get(data[pos])
            if instr is None:
                raise DecodeError(f"invalid block type byte {data[pos]:#x}",
                                  offset=pos)
            pos += 1
            depth += 1
        elif kind == _MEMARG:
            if pos < end and data[pos] < 0x80:
                align = data[pos]
                pos += 1
            else:
                align, pos = _decode_unsigned(data, pos, 32, end)
            if pos < end and data[pos] < 0x80:
                offset = data[pos]
                pos += 1
            else:
                offset, pos = _decode_unsigned(data, pos, 32, end)
            key = (offset << 32 | align) << 8 | byte
            instr = lookup(key)
            if instr is None:
                instr = interned[key] = Instr(name, memarg=MemArg(align, offset))
        elif kind == _F64 or kind == _F32:
            width = 8 if kind == _F64 else 4
            if pos + width > end:
                raise DecodeError("unexpected end of input", offset=pos)
            pos += width
            key = data[start:pos]
            instr = lookup(key)
            if instr is None:
                unpack = _unpack_f64 if kind == _F64 else _unpack_f32
                instr = interned[key] = Instr(name, value=unpack(key[1:])[0])
        elif kind == _BR_TABLE:
            count, pos = _decode_unsigned(data, pos, 32, end)
            labels = []
            for _ in range(count):
                label, pos = _decode_unsigned(data, pos, 32, end)
                labels.append(label)
            default, pos = _decode_unsigned(data, pos, 32, end)
            instr = Instr(name, br_table=BrTable(tuple(labels), default))
        elif kind == _TYPE_IDX:
            value, pos = _decode_unsigned(data, pos, 32, end)
            if pos >= end:
                raise DecodeError("unexpected end of input", offset=pos)
            if data[pos] != 0x00:
                raise DecodeError("call_indirect reserved byte must be zero",
                                  offset=start)
            pos += 1
            key = value << 8 | byte
            instr = lookup(key)
            if instr is None:
                instr = interned[key] = Instr(name, idx=value)
        elif kind == _MEM_IDX:
            if pos >= end:
                raise DecodeError("unexpected end of input", offset=pos)
            if data[pos] != 0x00:
                raise DecodeError("memory instruction reserved byte must be zero",
                                  offset=start)
            pos += 1
            instr = shared
        else:
            raise DecodeError(f"unknown opcode byte {byte:#04x}", offset=start)
        append(instr)


def decode_instrs(data: bytes) -> list[Instr]:
    """Decode a bare instruction sequence (``end`` opcodes included), with
    the same loop that decodes function bodies."""
    data = bytes(data)
    return _decode_expr(data, 0, len(data), {}, flat=True)[0]


# -- sections -----------------------------------------------------------------


def _decode_import(reader: _Reader) -> Import:
    module = reader.name()
    name = reader.name()
    kind = reader.byte()
    if kind == 0x00:
        return Import(module, name, reader.u32())
    if kind == 0x01:
        elem = reader.byte()
        if elem != 0x70:
            raise DecodeError(f"invalid table element type {elem:#x}")
        return Import(module, name, TableType(reader.limits()))
    if kind == 0x02:
        return Import(module, name, MemoryType(reader.limits()))
    if kind == 0x03:
        valtype = reader.valtype()
        mutable = reader.byte() == 0x01
        return Import(module, name, GlobalType(valtype, mutable))
    raise DecodeError(f"invalid import kind {kind:#x}")


_EXPORT_KIND = {0: "func", 1: "table", 2: "memory", 3: "global"}


def _decode_code(reader: _Reader, type_idx: int, interned: dict) -> Function:
    size = reader.u32()
    body_end = reader.pos + size
    if body_end > reader.end:
        raise DecodeError(f"function body size {size} extends past its section",
                          offset=reader.pos)
    sub = _Reader(reader.data, reader.pos, body_end)
    locals_: list[ValType] = []
    for _ in range(sub.u32()):
        count = sub.u32()
        valtype = sub.valtype()
        # cap the *total*, not just each entry: many entries of large counts
        # in a tiny body must not balloon into gigabytes of locals
        if count > 1_000_000 or len(locals_) + count > 1_000_000:
            raise DecodeError(f"too many locals ({count})", offset=sub.pos)
        locals_.extend([valtype] * count)
    body = sub.expr(interned)
    body.append(_END_INSTR)
    if not sub.eof():
        raise DecodeError("trailing bytes after function body", offset=sub.pos)
    reader.pos = body_end
    return Function(type_idx=type_idx, locals=locals_, body=body)


def _decode_name_section(module: Module, payload: bytes) -> None:
    reader = _Reader(payload)
    while not reader.eof():
        sub_id = reader.byte()
        size = reader.u32()
        if reader.pos + size > reader.end:
            raise DecodeError("name subsection extends past the section",
                              offset=reader.pos)
        sub = _Reader(reader.data, reader.pos, reader.pos + size)
        reader.pos += size
        if sub_id == 0:  # module name
            module.name = sub.name()
        elif sub_id == 1:  # function names
            n_imported = module.num_imported_functions
            for _ in range(sub.u32()):
                func_idx = sub.u32()
                name = sub.name()
                defined = func_idx - n_imported
                if 0 <= defined < len(module.functions):
                    module.functions[defined].name = name
        # other subsections (locals, …) are ignored


def decode_module(data: bytes) -> Module:
    """Parse a complete ``.wasm`` binary (any bytes-like object) into a
    :class:`Module`."""
    data = bytes(data)
    if data[:4] != MAGIC:
        raise DecodeError("missing \\0asm magic number", offset=0)
    if data[4:8] != VERSION:
        raise DecodeError(f"unsupported version {data[4:8]!r}", offset=4)
    reader = _Reader(data, 8)
    module = Module()
    interned: dict = {}
    func_type_idxs: list[int] = []
    last_section = 0
    while not reader.eof():
        section_id = reader.byte()
        size = reader.u32()
        if reader.pos + size > len(data):
            raise DecodeError(f"section {section_id} extends past end of binary",
                              offset=reader.pos)
        section = _Reader(reader.data, reader.pos, reader.pos + size)
        reader.pos += size
        if section_id != 0:
            if section_id <= last_section:
                raise DecodeError(f"section {section_id} out of order", offset=section.pos)
            if section_id > 11:
                raise DecodeError(f"unknown section id {section_id}", offset=section.pos)
            last_section = section_id
        if section_id == 0:
            name = section.name()
            payload = section.raw(section.end - section.pos)
            if name == "name":
                # Defer: function indices need the import count, which is
                # known by now (imports precede code), so decode immediately.
                # A malformed name section must not reject the module (the
                # spec treats custom-section contents as best-effort): keep
                # it verbatim instead so re-encoding round-trips.
                try:
                    _decode_name_section(module, payload)
                except DecodeError:
                    module.custom_sections.append(CustomSection(name, payload))
            else:
                module.custom_sections.append(CustomSection(name, payload))
        elif section_id == 1:
            for _ in range(section.u32()):
                marker = section.byte()
                if marker != 0x60:
                    raise DecodeError(f"invalid functype marker {marker:#x}")
                params = tuple(section.valtype() for _ in range(section.u32()))
                results = tuple(section.valtype() for _ in range(section.u32()))
                module.types.append(FuncType(params, results))
        elif section_id == 2:
            for _ in range(section.u32()):
                module.imports.append(_decode_import(section))
        elif section_id == 3:
            func_type_idxs = [section.u32() for _ in range(section.u32())]
        elif section_id == 4:
            for _ in range(section.u32()):
                elem = section.byte()
                if elem != 0x70:
                    raise DecodeError(f"invalid table element type {elem:#x}")
                module.tables.append(TableType(section.limits()))
        elif section_id == 5:
            for _ in range(section.u32()):
                module.memories.append(MemoryType(section.limits()))
        elif section_id == 6:
            for _ in range(section.u32()):
                valtype = section.valtype()
                mutable = section.byte() == 0x01
                init = section.expr(interned)
                module.globals.append(Global(GlobalType(valtype, mutable), init))
        elif section_id == 7:
            for _ in range(section.u32()):
                name = section.name()
                kind_byte = section.byte()
                if kind_byte not in _EXPORT_KIND:
                    raise DecodeError(f"invalid export kind {kind_byte:#x}")
                module.exports.append(Export(name, _EXPORT_KIND[kind_byte], section.u32()))
        elif section_id == 8:
            module.start = section.u32()
        elif section_id == 9:
            for _ in range(section.u32()):
                flag = section.byte()
                if flag != 0x00:
                    raise DecodeError(f"unsupported element segment flag {flag:#x}")
                offset = section.expr(interned)
                func_idxs = [section.u32() for _ in range(section.u32())]
                module.elements.append(ElemSegment(offset, func_idxs))
        elif section_id == 10:
            count = section.u32()
            if count != len(func_type_idxs):
                raise DecodeError(
                    f"code section has {count} bodies but function section "
                    f"declares {len(func_type_idxs)}")
            for type_idx in func_type_idxs:
                module.functions.append(_decode_code(section, type_idx, interned))
        elif section_id == 11:
            for _ in range(section.u32()):
                flag = section.byte()
                if flag != 0x00:
                    raise DecodeError(f"unsupported data segment flag {flag:#x}")
                offset = section.expr(interned)
                length = section.u32()
                module.data.append(DataSegment(offset, section.raw(length)))
        if section_id and not section.eof():
            # every read stops at the section end, so parsing either fills
            # the section exactly or leaves unread bytes
            raise DecodeError(f"section {section_id} size mismatch", offset=section.pos)
    if func_type_idxs and not module.functions:
        raise DecodeError("function section without code section")
    return module
