"""Wasabi's high-level analysis API (paper §2.3, Table 2).

An analysis subclasses :class:`Analysis` and overrides any of the 23 hooks.
Wasabi inspects which hooks are overridden to drive *selective
instrumentation* (§2.4.2): only instructions with a matching hook are
instrumented.

Faithful type mapping (paper Figure 5): i32/f32/f64 arrive as Python
``int``/``float``; i64 values cross the host boundary as two i32 halves
(§2.4.6) and are re-joined by the runtime into a Python ``int`` in signed
two's-complement range (the analogue of the paper's long.js objects);
conditions arrive as ``bool``.

The per-event value objects, :class:`Location` and :class:`MemArg`, are
named tuples, so building, hashing and comparing one runs in C. Like any
tuple, each equals a plain tuple of its fields:
``Location(1, 2) == (1, 2)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence


class Location(NamedTuple):
    """A code location: function index and *original* instruction index.

    Instruction indices always refer to the uninstrumented binary, so an
    analysis can correlate observations with the original code. Ordered,
    hashed and compared as the tuple ``(func, instr)``.
    """

    func: int
    instr: int

    def __str__(self) -> str:
        return f"{self.func}:{self.instr}"


@dataclass(frozen=True)
class BranchTarget:
    """A statically resolved branch destination (paper §2.4.4).

    ``label`` is the raw relative label from the binary; ``location`` is the
    absolute location of the next instruction executed if the branch is
    taken, resolved at instrumentation time via the abstract control stack.
    """

    label: int
    location: Location


class MemArg(NamedTuple):
    """Effective address and static offset of a memory access.

    ``addr`` is the dynamic base address operand; the accessed address is
    ``addr + offset``. Not the instruction immediate
    (:class:`repro.wasm.module.MemArg`, alignment and offset).
    """

    addr: int
    offset: int


#: The block types reported by the begin/end hooks.
BLOCK_TYPES = ("function", "block", "loop", "if", "else")


class Analysis:
    """Base class for Wasabi analyses: override any subset of the 23 hooks.

    Hook signatures mirror the paper's Table 2; every hook receives the
    :class:`Location` of the original instruction first.
    """

    # -- stack manipulation ----------------------------------------------------

    def const_(self, location: Location, value: int | float) -> None:
        """A ``t.const`` instruction pushed ``value``."""

    def drop(self, location: Location, value: int | float) -> None:
        """A ``drop`` discarded ``value``."""

    def select(self, location: Location, condition: bool,
               first: int | float, second: int | float) -> None:
        """A ``select`` chose between ``first`` and ``second``."""

    # -- operations ------------------------------------------------------------

    def unary(self, location: Location, op: str,
              input: int | float, result: int | float) -> None:
        """A unary operation ``op`` (e.g. ``f32.abs``, ``i32.eqz``) executed."""

    def binary(self, location: Location, op: str, first: int | float,
               second: int | float, result: int | float) -> None:
        """A binary operation ``op`` (e.g. ``i32.add``) executed."""

    # -- register and memory access ----------------------------------------------

    def local(self, location: Location, op: str, index: int,
              value: int | float) -> None:
        """``get_local``/``set_local``/``tee_local`` touched local ``index``."""

    def global_(self, location: Location, op: str, index: int,
                value: int | float) -> None:
        """``get_global``/``set_global`` touched global ``index``."""

    def load(self, location: Location, op: str, memarg: MemArg,
             value: int | float) -> None:
        """A load ``op`` read ``value`` from ``memarg.addr + memarg.offset``."""

    def store(self, location: Location, op: str, memarg: MemArg,
              value: int | float) -> None:
        """A store ``op`` wrote ``value`` to ``memarg.addr + memarg.offset``."""

    def memory_size(self, location: Location, current_size_pages: int) -> None:
        """``memory.size`` returned the current size in pages."""

    def memory_grow(self, location: Location, delta: int,
                    previous_size_pages: int) -> None:
        """``memory.grow`` by ``delta`` pages returned ``previous_size_pages``
        (0xFFFFFFFF means the grow failed)."""

    # -- function calls -------------------------------------------------------------

    def call_pre(self, location: Location, func: int,
                 args: Sequence[int | float],
                 table_index: int | None) -> None:
        """About to call function index ``func`` with ``args``.

        ``table_index`` is None for direct calls; for indirect calls it is
        the dynamic table index, and ``func`` the resolved callee (or -1 if
        the entry would trap).
        """

    def call_post(self, location: Location,
                  results: Sequence[int | float]) -> None:
        """A call returned ``results``."""

    def return_(self, location: Location,
                results: Sequence[int | float]) -> None:
        """The current function returns ``results`` (explicit ``return`` or
        the implicit return at the function's final ``end``)."""

    # -- control flow ------------------------------------------------------------------

    def br(self, location: Location, target: BranchTarget) -> None:
        """An unconditional branch is about to be taken."""

    def br_if(self, location: Location, target: BranchTarget,
              condition: bool) -> None:
        """A conditional branch evaluated ``condition``."""

    def br_table(self, location: Location, table: Sequence[BranchTarget],
                 default_target: BranchTarget, table_index: int) -> None:
        """A multi-way branch selected ``table_index``."""

    def if_(self, location: Location, condition: bool) -> None:
        """An ``if`` evaluated ``condition``."""

    # -- blocks ------------------------------------------------------------------------

    def begin(self, location: Location, block_type: str) -> None:
        """Entered a block; ``block_type`` in :data:`BLOCK_TYPES`."""

    def end(self, location: Location, block_type: str,
            begin_location: Location) -> None:
        """Left a block whose begin is at ``begin_location``."""

    # -- miscellaneous -------------------------------------------------------------------

    def nop(self, location: Location) -> None:
        """A ``nop`` executed."""

    def unreachable(self, location: Location) -> None:
        """An ``unreachable`` is about to trap."""

    def start(self) -> None:
        """The module's start function is about to run."""

    def used_groups(self) -> frozenset[str]:
        """Hook groups this analysis implements (see :func:`used_groups`).

        :class:`~repro.core.session.AnalysisSession` calls this when no
        explicit ``groups`` are given, automating the selective
        instrumentation the paper suggests in §2.4.2.
        """
        return used_groups(self)


#: Maps high-level hook method names to instrumentation hook groups.
HOOK_METHOD_TO_GROUP = {
    "const_": "const",
    "drop": "drop",
    "select": "select",
    "unary": "unary",
    "binary": "binary",
    "local": "local",
    "global_": "global",
    "load": "load",
    "store": "store",
    "memory_size": "memory_size",
    "memory_grow": "memory_grow",
    "call_pre": "call",
    "call_post": "call",
    "return_": "return",
    "br": "br",
    "br_if": "br_if",
    "br_table": "br_table",
    "if_": "if",
    "begin": "begin",
    "end": "end",
    "nop": "nop",
    "unreachable": "unreachable",
}

#: All instrumentable hook groups (the x-axis of the paper's Figures 8/9).
ALL_GROUPS = frozenset(HOOK_METHOD_TO_GROUP.values())


def used_groups(analysis: Analysis) -> frozenset[str]:
    """Hook groups an analysis actually implements (selective instrumentation).

    A hook is "implemented" when the method is overridden relative to
    :class:`Analysis` — either in the subclass or as an instance attribute
    (as :class:`repro.core.composite.CompositeAnalysis` does).
    """
    groups: set[str] = set()
    base_methods = {method: getattr(Analysis, method)
                    for method in HOOK_METHOD_TO_GROUP}
    for method, group in HOOK_METHOD_TO_GROUP.items():
        impl = getattr(analysis, method)
        if getattr(impl, "__func__", impl) is not base_methods[method]:
            groups.add(group)
    return frozenset(groups)
