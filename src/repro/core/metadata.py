"""Static information generated alongside the instrumented binary.

The paper's "generate" step (Figure 2) produces, next to the instrumented
binary, (a) the low-level hook definitions and (b) static information the
runtime needs to enrich low-level events into high-level hook calls:
resolved branch targets, memory-access offsets, variable indices, call
targets, block begin/end matching, and general module info
(``Wasabi.module.info``).

All locations and function indices refer to the *original* module, so
analyses are insulated from the index shifts instrumentation introduces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..wasm.module import Module
from ..wasm.types import FuncType, GlobalType
from .analysis import BranchTarget, Location
from .hooks import HookSpec


@dataclass(frozen=True)
class FunctionInfo:
    """Static description of one function (original index space)."""

    idx: int
    name: str
    type: FuncType
    imported: bool
    export_names: tuple[str, ...] = ()
    instr_count: int = 0


@dataclass(frozen=True)
class EndEvent:
    """One block end that fires when a br_table entry is taken (§2.4.5)."""

    kind: str
    begin: Location
    end: Location


@dataclass(frozen=True)
class BrTableInfo:
    """Per-``br_table`` static info: resolved targets and, per entry, the
    blocks whose end hooks must fire; the default entry is last."""

    targets: tuple[BranchTarget, ...]
    default: BranchTarget
    ended: tuple[tuple[EndEvent, ...], ...]  # aligned with targets + (default,)

    def select(self, table_index: int) -> tuple[BranchTarget, tuple[EndEvent, ...]]:
        if table_index < len(self.targets):
            return self.targets[table_index], self.ended[table_index]
        return self.default, self.ended[-1]


@dataclass
class ModuleInfo:
    """The analysis-facing module summary (``Wasabi.module.info``)."""

    functions: list[FunctionInfo] = field(default_factory=list)
    globals: list[GlobalType] = field(default_factory=list)
    start: int | None = None
    has_memory: bool = False
    has_table: bool = False

    def function(self, idx: int) -> FunctionInfo:
        return self.functions[idx]

    def func_name(self, idx: int) -> str:
        return self.functions[idx].name

    @classmethod
    def from_module(cls, module: Module) -> "ModuleInfo":
        info = cls(start=module.start,
                   has_memory=module.num_memories > 0,
                   has_table=module.num_tables > 0)
        exports_by_func: dict[int, list[str]] = {}
        for export in module.exports:
            if export.kind == "func":
                exports_by_func.setdefault(export.idx, []).append(export.name)
        # one pass over the function index space: imports, then definitions
        # (names as Module.func_name gives them)
        for imp in module.imports:
            if isinstance(imp.desc, int):
                idx = len(info.functions)
                info.functions.append(FunctionInfo(
                    idx=idx, name=f"{imp.module}.{imp.name}",
                    type=module.types[imp.desc], imported=True,
                    export_names=tuple(exports_by_func.get(idx, ()))))
        for func in module.functions:
            idx = len(info.functions)
            export_names = tuple(exports_by_func.get(idx, ()))
            name = func.name or (export_names[0] if export_names
                                 else f"func_{idx}")
            info.functions.append(FunctionInfo(
                idx=idx, name=name, type=module.types[func.type_idx],
                imported=False, export_names=export_names,
                instr_count=len(func.body)))
        info.globals = module.global_types()
        return info


@dataclass
class StaticInfo:
    """Everything the Wasabi runtime needs besides the instrumented binary."""

    module_info: ModuleInfo
    hooks: list[HookSpec] = field(default_factory=list)
    #: load/store offset per location
    memarg_offsets: dict[tuple[int, int], int] = field(default_factory=dict)
    #: local/global index per location
    var_indices: dict[tuple[int, int], int] = field(default_factory=dict)
    #: direct call targets (original function indices) per location
    call_targets: dict[tuple[int, int], int] = field(default_factory=dict)
    #: resolved targets of br and br_if per location
    br_targets: dict[tuple[int, int], BranchTarget] = field(default_factory=dict)
    #: per-br_table info per location
    br_tables: dict[tuple[int, int], BrTableInfo] = field(default_factory=dict)
    #: begin location per (func, end-instr, block kind)
    begin_of_end: dict[tuple[int, int, str], Location] = field(default_factory=dict)

    def hook_by_name(self) -> dict[str, HookSpec]:
        return {spec.name: spec for spec in self.hooks}

    # -- per-site accessors --------------------------------------------------------
    # Used by the runtime's site-specialized dispatch: each is resolved once
    # per call site at specialization time, never per event.

    def memarg_offset(self, func: int, instr: int) -> int:
        """Static offset of the load/store at a location (0 if unknown)."""
        return self.memarg_offsets.get((func, instr), 0)

    def var_index(self, func: int, instr: int) -> int:
        """Local/global index touched at a location."""
        return self.var_indices[(func, instr)]

    def call_target(self, func: int, instr: int) -> int:
        """Original callee index of the direct call at a location."""
        return self.call_targets[(func, instr)]

    def br_target(self, func: int, instr: int) -> BranchTarget:
        """Resolved target of the br/br_if at a location."""
        return self.br_targets[(func, instr)]

    def br_table_info(self, func: int, instr: int) -> BrTableInfo:
        """Resolved targets/traversed-ends of the br_table at a location."""
        return self.br_tables[(func, instr)]

    def begin_location(self, func: int, instr: int, kind: str) -> Location:
        """Begin location matching the block end at a location."""
        return self.begin_of_end[(func, instr, kind)]
