"""In-memory representation of WebAssembly modules.

Function bodies are *flat* instruction sequences with explicit ``block`` /
``loop`` / ``if`` / ``else`` / ``end`` markers, exactly as in the binary
format. This matches how Wasabi's instrumenter works: it walks the flat
stream while maintaining an abstract control stack (paper §2.4.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

from . import opcodes
from .errors import WasmError
from .types import FuncType, GlobalType, MemoryType, TableType, ValType


@dataclass(frozen=True)
class MemArg:
    """Alignment hint and constant offset of a load/store instruction."""

    align: int = 0
    offset: int = 0


@dataclass(frozen=True)
class BrTable:
    """Immediate of a ``br_table``: a vector of labels plus the default."""

    labels: tuple[int, ...]
    default: int

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))


#: Block types in the MVP: either no result or exactly one value type.
BlockType = Union[ValType, None]


@dataclass(frozen=True)
class Instr:
    """A single instruction: mnemonic plus (at most one) immediate.

    Only the field matching the opcode's immediate kind is meaningful; the
    constructor helpers below and :func:`check_instr` keep this consistent.

    Instructions are immutable values and may be shared. Within one
    ``decode_module`` call, decoded instructions are shared immutable
    flyweights: every occurrence of the same instruction (say ``get_local
    0``) in any function or initializer is one object, and immediate-free
    instructions and block starts are one object per opcode and block type
    across all decodes. Compare instructions with ``==``, never by identity,
    and replace an instruction rather than mutate it.
    """

    op: str
    value: int | float | None = None          # const immediates
    idx: int | None = None                    # func/type/local/global index
    label: int | None = None                  # br / br_if
    br_table: BrTable | None = None           # br_table
    memarg: MemArg | None = None              # loads / stores
    blocktype: BlockType = None               # block / loop / if

    @property
    def info(self) -> opcodes.OpInfo:
        return opcodes.BY_NAME[self.op]

    def __str__(self) -> str:
        parts = [self.op]
        if self.value is not None:
            parts.append(repr(self.value))
        if self.idx is not None:
            parts.append(str(self.idx))
        if self.label is not None:
            parts.append(str(self.label))
        if self.br_table is not None:
            parts.append(" ".join(map(str, self.br_table.labels))
                         + f" default={self.br_table.default}")
        if self.memarg is not None and (self.memarg.offset or self.memarg.align):
            parts.append(f"offset={self.memarg.offset} align={self.memarg.align}")
        if self.blocktype is not None:
            parts.append(f"(result {self.blocktype})")
        return " ".join(parts)


#: The :class:`Instr` field that carries each kind of immediate, None for
#: the kinds with nothing an instruction must carry. The validator names
#: the field of an instruction that lacks its immediate from this table.
IMMEDIATE_FIELD: dict[opcodes.Imm, str | None] = {
    opcodes.Imm.NONE: None,
    opcodes.Imm.BLOCKTYPE: None,
    opcodes.Imm.LABEL: "label",
    opcodes.Imm.BR_TABLE: "br_table",
    opcodes.Imm.FUNC_IDX: "idx",
    opcodes.Imm.TYPE_IDX: "idx",
    opcodes.Imm.LOCAL_IDX: "idx",
    opcodes.Imm.GLOBAL_IDX: "idx",
    opcodes.Imm.MEMARG: "memarg",
    opcodes.Imm.MEM_IDX: None,
    opcodes.Imm.CONST_I32: "value",
    opcodes.Imm.CONST_I64: "value",
    opcodes.Imm.CONST_F32: "value",
    opcodes.Imm.CONST_F64: "value",
}


def check_instr(instr: Instr) -> None:
    """Validate that an instruction carries the immediate its opcode needs."""
    op = opcodes.BY_NAME.get(instr.op)
    if op is None:
        raise WasmError(f"unknown instruction mnemonic {instr.op!r}")
    field_name = IMMEDIATE_FIELD[op.imm]
    if field_name is not None and getattr(instr, field_name) is None:
        raise WasmError(f"instruction {instr.op} is missing its {field_name} immediate")


@dataclass
class Import:
    """An import: ``module.name`` with a description of what is imported."""

    module: str
    name: str
    #: One of: an index into ``Module.types`` (function import), or a
    #: :class:`TableType` / :class:`MemoryType` / :class:`GlobalType`.
    desc: int | TableType | MemoryType | GlobalType


@dataclass
class Export:
    """An export, identified by kind ('func' | 'table' | 'memory' | 'global')."""

    name: str
    kind: str
    idx: int


@dataclass
class Function:
    """A function defined in the module (not imported).

    ``type_idx`` indexes ``Module.types``; ``locals`` lists the types of the
    declared (non-parameter) locals; ``body`` is a flat instruction sequence
    *including* the terminating ``end``.
    """

    type_idx: int
    locals: list[ValType] = field(default_factory=list)
    body: list[Instr] = field(default_factory=list)
    name: str | None = None


@dataclass
class Global:
    """A global variable with a constant initializer expression."""

    type: GlobalType
    init: list[Instr] = field(default_factory=list)


@dataclass
class ElemSegment:
    """An (active) element segment initializing the table with function indices."""

    offset: list[Instr] = field(default_factory=list)
    func_idxs: list[int] = field(default_factory=list)


@dataclass
class DataSegment:
    """An (active) data segment initializing linear memory."""

    offset: list[Instr] = field(default_factory=list)
    data: bytes = b""


@dataclass
class CustomSection:
    """An uninterpreted custom section (other than the name section)."""

    name: str
    payload: bytes


@dataclass
class Module:
    """A WebAssembly module, mirroring the section structure of the format."""

    types: list[FuncType] = field(default_factory=list)
    imports: list[Import] = field(default_factory=list)
    functions: list[Function] = field(default_factory=list)
    tables: list[TableType] = field(default_factory=list)
    memories: list[MemoryType] = field(default_factory=list)
    globals: list[Global] = field(default_factory=list)
    exports: list[Export] = field(default_factory=list)
    start: int | None = None
    elements: list[ElemSegment] = field(default_factory=list)
    data: list[DataSegment] = field(default_factory=list)
    custom_sections: list[CustomSection] = field(default_factory=list)
    name: str | None = None

    # -- type management ----------------------------------------------------

    #: First index of every function type in ``types``, kept in step with the
    #: list by :meth:`add_type` (see there); not part of the module's value.
    _type_index: dict[FuncType, int] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    #: The list object ``_type_index`` describes and how much of it is indexed.
    _type_indexed: tuple[list[FuncType] | None, int] = field(
        default=(None, 0), init=False, repr=False, compare=False)

    def add_type(self, functype: FuncType) -> int:
        """Intern a function type, returning the index of the first equal one.

        Types appended to ``types`` directly are indexed on the next call;
        replacing or shrinking the list rebuilds the index.
        """
        types = self.types
        index = self._type_index
        indexed_list, indexed = self._type_indexed
        if indexed_list is not types or indexed > len(types):
            index.clear()
            indexed = 0
        for i in range(indexed, len(types)):
            index.setdefault(types[i], i)
        type_idx = index.get(functype)
        if type_idx is None:
            type_idx = index[functype] = len(types)
            types.append(functype)
        self._type_indexed = (types, len(types))
        return type_idx

    # -- index spaces ---------------------------------------------------------
    # Imported entities come first in each index space, then module-defined
    # ones, as mandated by the spec. Each per-index lookup below lists the
    # imports once; callers that resolve many indices take a whole table in
    # one pass instead (:meth:`function_types`, :meth:`global_types`).

    def imported_functions(self) -> list[Import]:
        return [imp for imp in self.imports if isinstance(imp.desc, int)]

    def imported_globals(self) -> list[Import]:
        return [imp for imp in self.imports if isinstance(imp.desc, GlobalType)]

    def imported_tables(self) -> list[Import]:
        return [imp for imp in self.imports if isinstance(imp.desc, TableType)]

    def imported_memories(self) -> list[Import]:
        return [imp for imp in self.imports if isinstance(imp.desc, MemoryType)]

    @property
    def num_imported_functions(self) -> int:
        return len(self.imported_functions())

    @property
    def num_functions(self) -> int:
        """Size of the function index space (imports + defined)."""
        return self.num_imported_functions + len(self.functions)

    def function_types(self) -> list[FuncType]:
        """Type of every function index (imports first), in one pass."""
        types = self.types
        out = [types[imp.desc] for imp in self.imports if isinstance(imp.desc, int)]
        out += [types[func.type_idx] for func in self.functions]
        return out

    def func_type(self, func_idx: int) -> FuncType:
        """Function type of any function index (imported or defined)."""
        imported = self.imported_functions()
        if func_idx < len(imported):
            type_idx = imported[func_idx].desc
        else:
            defined = func_idx - len(imported)
            if defined >= len(self.functions):
                raise WasmError(f"function index {func_idx} out of range")
            type_idx = self.functions[defined].type_idx
        return self.types[type_idx]

    def function_at(self, func_idx: int) -> Function | None:
        """The defined :class:`Function` at ``func_idx``, or None if imported."""
        n_imported = self.num_imported_functions
        if func_idx < n_imported:
            return None
        return self.functions[func_idx - n_imported]

    def func_name(self, func_idx: int) -> str:
        """Best-effort human-readable name for a function index."""
        imported = self.imported_functions()
        if func_idx < len(imported):
            imp = imported[func_idx]
            return f"{imp.module}.{imp.name}"
        func = self.functions[func_idx - len(imported)]
        if func.name:
            return func.name
        for export in self.exports:
            if export.kind == "func" and export.idx == func_idx:
                return export.name
        return f"func_{func_idx}"

    def global_types(self) -> list[GlobalType]:
        """Type of every global index (imports first), in one pass."""
        out = [imp.desc for imp in self.imports if isinstance(imp.desc, GlobalType)]
        out += [glob.type for glob in self.globals]
        return out

    def global_type(self, global_idx: int) -> GlobalType:
        imported = self.imported_globals()
        if global_idx < len(imported):
            desc = imported[global_idx].desc
            assert isinstance(desc, GlobalType)
            return desc
        defined = global_idx - len(imported)
        if defined >= len(self.globals):
            raise WasmError(f"global index {global_idx} out of range")
        return self.globals[defined].type

    @property
    def num_globals(self) -> int:
        return len(self.imported_globals()) + len(self.globals)

    @property
    def num_tables(self) -> int:
        return len(self.imported_tables()) + len(self.tables)

    @property
    def num_memories(self) -> int:
        return len(self.imported_memories()) + len(self.memories)

    # -- convenience ----------------------------------------------------------

    def export_of(self, kind: str, name: str) -> Export:
        for export in self.exports:
            if export.kind == kind and export.name == name:
                return export
        raise WasmError(f"no {kind} export named {name!r}")

    def iter_instructions(self) -> Iterator[tuple[int, int, Instr]]:
        """Yield ``(func_idx, instr_idx, instr)`` over all defined bodies."""
        n_imported = self.num_imported_functions
        for i, func in enumerate(self.functions):
            for j, instr in enumerate(func.body):
                yield n_imported + i, j, instr

    def instruction_count(self) -> int:
        return sum(len(f.body) for f in self.functions)
