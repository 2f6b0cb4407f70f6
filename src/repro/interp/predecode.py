"""Pre-decoded, direct-threaded instruction streams for the interpreter.

The legacy interpreter loop in :mod:`repro.interp.machine` dispatches every
instruction by string comparison and looks block targets up in per-function
dicts. This module translates each function body *once* into a flat array of
``(opcode-id, operand, ...)`` tuples:

* mnemonics become small integer opcode ids (compared with ``==`` on ints in
  the hot loop, ordered by dynamic frequency),
* every ``i32.const``/``i64.const`` immediate is pre-masked to its canonical
  unsigned form and ``f32.const`` pre-rounded through binary32,
* unary/binary arithmetic resolves straight to the Python handler from
  :data:`repro.interp.values.OP_HANDLERS` (no per-step dict probes),
* loads/stores resolve to their typed accessor with the static memarg offset
  extracted into the tuple,
* branches are resolved into a side table at decode, from the body's
  :class:`~repro.wasm.validation.BodyRecord`: the validator's walk gives
  every ``br``/``br_if``/``br_table``/``if``/``else`` an absolute target
  pc, and a stack height and arity only where the branch must discard
  values below the ones it carries, so the engine keeps no label stack
  and ``block``/``loop``/``end`` are no-ops that targets skip. Decoding
  fetches the record, so a body the validator rejects is refused with
  its :class:`~repro.wasm.errors.ValidationError` and never runs, and
* ``call``/``call_indirect`` carry their callee's parameter count (and, for
  indirect calls, the expected :class:`FuncType`) so the call sequence does
  no type-table lookups at run time,
* calls into the Wasabi hook namespace (:data:`HOOK_IMPORT_MODULE`,
  identified via the module's import section) are recorded as *hook call
  sites*, numbered in stream order. Each
  ``i32.const func / i32.const instr / call <hook>`` site decodes into one
  :data:`OP_HOOK` slot that calls entry ``site`` of the executing
  instance's dispatcher table, which the machine fills at instantiation
  with per-site closures (see ``repro.interp.machine.bind_hook_sites``),
  so an executed hook does no location marshalling and no static-info
  lookups, and
* straight-line runs, hook sites included, compile into one Python
  function each (a *segment*), the stream's only superinstruction, with
  one slot layout and one signature. A segment returns the pc it
  continues at, so a run followed by a plain ``br_if``, ``br`` or ``if``
  takes that branch too (see :data:`OP_SEGMENT`). A shorter run without
  such a branch executes slot by slot. Inside a segment, integer
  add/sub/mul/shl and bitwise ops, f64 add/sub/mul, every compare,
  ``eqz`` and the i32→f64 conversions are inline expressions
  (:data:`_INLINE_BINOPS`, :data:`_INLINE_UNOPS`); slot by slot, every
  op calls its handler.

Each :class:`~repro.wasm.module.Function` caches exactly one decoded
stream *on the object itself* (``func._decoded``), so re-instantiating the
same module — which the benchmark harness does constantly — pays the decode
cost once, and every instance executes that one stream: an instance's only
engine state is its hook dispatcher table. The cache is validated against
the identity and length of ``func.body``, like the body's record; a
function whose body list is replaced is transparently re-validated and
re-decoded. In-place mutation of a body that already executed is not
supported (the legacy loop has the same limitation through the record's
block matching).

A decoded module's functions are fresh objects, so decoding the same bytes
again misses that cache; what it shares is compiled-segment code. Each
segment's Python source is compiled once per process into a bounded cache
keyed by the source text (:func:`_segment_code`), and every segment execs
the shared code object into its own namespace.

Decoded pcs map 1:1 onto body indices: instruction ``i`` of the source body
is entry ``i`` of the decoded stream, which keeps branch resolution and
debugging straightforward. ``decode_function(fuse=False)`` stops before
branch resolution: its control slots keep their label depths.
"""

from __future__ import annotations

import math
from functools import lru_cache
from struct import Struct
from struct import error as _struct_error
from typing import Callable

from ..wasm.errors import Trap, WasmError
from ..wasm.module import Function, Instr, Module
from ..wasm.numeric import f32_round
from ..wasm.types import FuncType
from ..wasm.validation import BodyRecord, body_record
from .values import BINOPS, MASK32, MASK64, OP_HANDLERS, UNOPS

# Opcode ids, ordered roughly by dynamic frequency on numeric workloads so
# the interpreter's if/elif chain resolves hot instructions first.
OP_GET_LOCAL = 0
OP_BINARY = 1
OP_CONST = 2
OP_SET_LOCAL = 3
OP_LOAD_INT = 4
OP_LOAD_FLOAT = 5
OP_STORE_INT = 6
OP_STORE_FLOAT = 7
OP_BR_IF = 8
OP_UNARY = 9
OP_TEE_LOCAL = 10
OP_BR = 11
OP_END = 12
OP_LOOP = 13
OP_IF = 14
OP_BLOCK = 15
OP_JUMP = 16
OP_CALL = 17
OP_RETURN = 18
OP_GET_GLOBAL = 19
OP_SET_GLOBAL = 20
OP_SELECT = 21
OP_DROP = 22
OP_CALL_INDIRECT = 23
OP_BR_TABLE = 24
OP_MEMORY_SIZE = 25
OP_MEMORY_GROW = 26
OP_NOP = 27
OP_UNREACHABLE = 28
# ids 29-33 are unassigned: ids are never renumbered

# Per-call-site hook dispatch. Decoding records every call into the Wasabi
# hook import namespace (``DecodedFunction.hook_sites``) and installs
# ``(OP_HOOK, site, n_value_args, skip)`` at the site's first slot: pop the
# value args, call ``table[site]`` of the executing instance's dispatcher
# table (``WasmFunction.hooks``), advance ``skip`` pcs (3 when the two
# location constants are folded in, 1 for a bare call). The const/call
# slots keep their ordinary decoding so branches into the middle of a
# (never-branched-into, in practice) hook sequence still behave like the
# source program.
OP_HOOK = 34

# Quickening. The machine's stream (``decode_function(fuse=True)``)
# replaces every bare memory op, segment-covered slots included, with its
# pre-resolved twin: the twin holds a bound
# ``struct.Struct.unpack_from``/``pack_into`` method (no per-access
# format-cache probe) and drops the canonicalization mask where the format
# already guarantees canonical values. The base ids 4-7 therefore never
# reach the interpreter loop; they stay the vocabulary of the base stream
# and the segment compiler.
OP_QLOAD = 52              # (_, unpack, off, width) — no mask needed
OP_QLOAD_MASK = 53         # (_, unpack, off, mask, width)
OP_QSTORE = 54             # (_, pack, off, width)   — full-width store
OP_QSTORE_MASK = 55        # (_, pack, off, mask, width)

# id 56 is unassigned: ids are never renumbered

# The decoded stream's one superinstruction: a *compiled straight-line
# segment*. At decode time, maximal runs of stack-machine ops (consts,
# locals, arithmetic, loads/stores, select, drop and hook sites — no
# control flow, no other calls) are translated once into a small Python
# function ``fn(stack, locals_, memdata, tab)`` with every constant, mask,
# and bound struct method baked in, and the run's first slot becomes
# ``(OP_SEGMENT, fn, target, exits, span)``. One dispatch executes the whole
# run, and ``fn`` returns the pc to continue at: the first slot after the
# run that is not a ``block``/``loop``/``end`` (through an ``else`` to its
# jump target). A run whose successor is a plain ``br_if``, ``br`` or ``if``
# takes that branch too: ``fn`` returns the ``if`` arm's pc, or -1 for a
# taken ``br``/``br_if``, and then the slot charges the meter and telemetry
# where the ``br``/``br_if`` arms do and continues at ``target`` (None for
# a segment that cannot branch). ``exits`` is every pc the slot may
# continue at: ``(next,)``, ``(next, target)`` for ``br_if``, ``(then_pc,
# else_pc)`` for ``if``, ``(target,)`` for ``br``. ``span`` is the number
# of slots the run covers; the loop reads neither. ``tab`` is the
# executing instance's dispatcher table: the run's j-th hook site calls
# ``tab[_site + j]``, ``_site`` being its first, reading the table at every
# event. The exits and ``_site`` are bound in the segment's namespace, not
# printed in its source, so equal runs share one code object. The covered
# slots keep their ordinary (quickened) decoding, so a branch landing
# inside the segment executes the original instructions one slot at a
# time.
OP_SEGMENT = 57
# ids 58-64 are unassigned: ids are never renumbered

# Branches resolved at decode. A plain branch, whose operand stack holds
# exactly the values its label carries (or whose label is the function's),
# is ``(OP_BR, target)`` / ``(OP_BR_IF, target)``; any other is
# ``(OP_BR_ADJUST, target, height, arity)`` / ``(OP_BR_IF_ADJUST, ...)``,
# which cuts the stack to ``height`` and re-pushes the ``arity`` carried
# values. ``br_table`` holds ``(target, height, arity)`` per entry.
OP_BR_ADJUST = 65
OP_BR_IF_ADJUST = 66

#: Import namespace of Wasabi's generated low-level hooks. The instrumenter
#: (``repro.core.hooks.HOOK_MODULE``) aliases this constant, so the engine
#: and the instrumenter cannot drift apart.
HOOK_IMPORT_MODULE = "__wasabi_hooks"

#: Opcode id → display name, used by the self-profiler's hot-opcode ranking
#: and anything else that renders decoded streams for humans. ``OP_JUMP`` is
#: the decoded ``else``.
OP_NAMES: dict[int, str] = {
    OP_GET_LOCAL: "get_local",
    OP_BINARY: "binary",
    OP_CONST: "const",
    OP_SET_LOCAL: "set_local",
    OP_LOAD_INT: "load.int",
    OP_LOAD_FLOAT: "load.float",
    OP_STORE_INT: "store.int",
    OP_STORE_FLOAT: "store.float",
    OP_BR_IF: "br_if",
    OP_UNARY: "unary",
    OP_TEE_LOCAL: "tee_local",
    OP_BR: "br",
    OP_END: "end",
    OP_LOOP: "loop",
    OP_IF: "if",
    OP_BLOCK: "block",
    OP_JUMP: "else",
    OP_CALL: "call",
    OP_RETURN: "return",
    OP_GET_GLOBAL: "get_global",
    OP_SET_GLOBAL: "set_global",
    OP_SELECT: "select",
    OP_DROP: "drop",
    OP_CALL_INDIRECT: "call_indirect",
    OP_BR_TABLE: "br_table",
    OP_MEMORY_SIZE: "memory.size",
    OP_MEMORY_GROW: "memory.grow",
    OP_NOP: "nop",
    OP_UNREACHABLE: "unreachable",
    OP_HOOK: "hook",
    OP_QLOAD: "load.quick",
    OP_QLOAD_MASK: "load.quick.mask",
    OP_QSTORE: "store.quick",
    OP_QSTORE_MASK: "store.quick.mask",
    OP_SEGMENT: "segment",
    OP_BR_ADJUST: "br.adjust",
    OP_BR_IF_ADJUST: "br_if.adjust",
}

#: Size of a dense per-opcode counter array covering every opcode id.
N_OPCODES = max(OP_NAMES) + 1

# Loads decode to a struct format executed directly against the memory
# bytearray with ``struct.unpack_from`` (one C call instead of a chain of
# Python-level accessor calls); integer results are masked back to the
# canonical unsigned representation. Stores mirror this with ``pack_into``,
# masking the value to the store width first.
INT_LOADS: dict[str, tuple[str, int]] = {
    "i32.load": ("<I", MASK32),
    "i64.load": ("<Q", MASK64),
    "i32.load8_s": ("<b", MASK32),
    "i32.load8_u": ("<B", MASK32),
    "i32.load16_s": ("<h", MASK32),
    "i32.load16_u": ("<H", MASK32),
    "i64.load8_s": ("<b", MASK64),
    "i64.load8_u": ("<B", MASK64),
    "i64.load16_s": ("<h", MASK64),
    "i64.load16_u": ("<H", MASK64),
    "i64.load32_s": ("<i", MASK64),
    "i64.load32_u": ("<I", MASK64),
}
FLOAT_LOADS: dict[str, str] = {"f32.load": "<f", "f64.load": "<d"}
INT_STORES: dict[str, tuple[str, int]] = {
    "i32.store": ("<I", MASK32),
    "i64.store": ("<Q", MASK64),
    "i32.store8": ("<B", 0xFF),
    "i32.store16": ("<H", 0xFFFF),
    "i64.store8": ("<B", 0xFF),
    "i64.store16": ("<H", 0xFFFF),
    "i64.store32": ("<I", MASK32),
}
FLOAT_STORES: dict[str, str] = {"f32.store": "<f", "f64.store": "<d"}


def _bind_structs() -> dict[str, tuple]:
    """``fmt -> (unpack_from, pack_into, size)`` for every load/store format."""
    formats = {fmt for fmt, _ in (*INT_LOADS.values(), *INT_STORES.values())}
    formats.update(FLOAT_LOADS.values(), FLOAT_STORES.values())
    return {s.format: (s.unpack_from, s.pack_into, s.size) for s in map(Struct, formats)}


#: Every load/store format, bound once per process. The quickened twins and
#: compiled segments share these method objects, so a segment's source,
#: which names each helper by ``id``, is the same text every time the same
#: run compiles.
_STRUCTS = _bind_structs()


class DecodedFunction:
    """The pre-decoded form of one function body.

    ``code`` is a flat list of tuples, one per source instruction (1:1 with
    ``source_body``). ``source_body`` keeps a strong reference to the body
    list the stream was decoded from, which both prevents ``id`` recycling
    and lets the cache detect body replacement. ``hook_sites`` holds one
    ``(call_pc, import_idx, location_consts)`` record per call targeting a
    Wasabi hook import, in stream order, so site ``k`` of an ``OP_HOOK``
    slot is ``hook_sites[k]``; ``location_consts`` is the ``(func, instr)``
    pair of the ``const/const/call`` idiom, or ``()`` for a bare call. It
    is empty for uninstrumented modules, whose decode is entirely
    unaffected. Nothing in it is bound to an instance, so every instance
    of the module executes the same object.
    """

    __slots__ = ("code", "source_body", "hook_sites")

    def __init__(
        self,
        code: list[tuple],
        source_body: list[Instr],
        hook_sites: tuple[tuple[int, int, tuple], ...] = (),
    ):
        self.code = code
        self.source_body = source_body
        self.hook_sites = hook_sites

    def __len__(self) -> int:
        return len(self.code)


def _decode_instr(
    instr: Instr,
    pc: int,
    module: Module,
    callee_type: Callable[[int], FuncType],
    end_of: dict[int, int],
) -> tuple:
    op = instr.op
    handler = OP_HANDLERS.get(op)
    if handler is not None:
        arity, fn = handler
        return (OP_BINARY, fn) if arity == 2 else (OP_UNARY, fn)
    if op == "get_local":
        return (OP_GET_LOCAL, instr.idx)
    if op == "set_local":
        return (OP_SET_LOCAL, instr.idx)
    if op == "tee_local":
        return (OP_TEE_LOCAL, instr.idx)
    if op == "i32.const":
        return (OP_CONST, instr.value & MASK32)
    if op == "i64.const":
        return (OP_CONST, instr.value & MASK64)
    if op == "f32.const":
        return (OP_CONST, f32_round(instr.value))
    if op == "f64.const":
        return (OP_CONST, float(instr.value))
    int_load = INT_LOADS.get(op)
    if int_load is not None:
        fmt, mask = int_load
        return (OP_LOAD_INT, fmt, instr.memarg.offset, mask)
    float_load = FLOAT_LOADS.get(op)
    if float_load is not None:
        return (OP_LOAD_FLOAT, float_load, instr.memarg.offset)
    int_store = INT_STORES.get(op)
    if int_store is not None:
        fmt, mask = int_store
        return (OP_STORE_INT, fmt, instr.memarg.offset, mask)
    float_store = FLOAT_STORES.get(op)
    if float_store is not None:
        return (OP_STORE_FLOAT, float_store, instr.memarg.offset)
    if op == "block":
        return (OP_BLOCK,)
    if op == "loop":
        return (OP_LOOP,)
    if op == "if":
        return (OP_IF,)
    if op == "else":
        # reached from the then-arm: jump onto the matching end
        return (OP_JUMP, end_of[pc])
    if op == "end":
        return (OP_END,)
    if op == "br":
        return (OP_BR, instr.label)
    if op == "br_if":
        return (OP_BR_IF, instr.label)
    if op == "br_table":
        table = instr.br_table
        return (OP_BR_TABLE, table.labels, table.default)
    if op == "return":
        return (OP_RETURN,)
    if op == "call":
        return (OP_CALL, instr.idx, len(callee_type(instr.idx).params))
    if op == "call_indirect":
        expected = module.types[instr.idx]
        return (OP_CALL_INDIRECT, expected, len(expected.params))
    if op == "get_global":
        return (OP_GET_GLOBAL, instr.idx)
    if op == "set_global":
        return (OP_SET_GLOBAL, instr.idx)
    if op == "select":
        return (OP_SELECT,)
    if op == "drop":
        return (OP_DROP,)
    if op == "memory.size":
        return (OP_MEMORY_SIZE,)
    if op == "memory.grow":
        return (OP_MEMORY_GROW,)
    if op == "nop":
        return (OP_NOP,)
    if op == "unreachable":
        return (OP_UNREACHABLE,)
    raise WasmError(f"cannot pre-decode {op}")


def _land(code: list[tuple], pc: int) -> int:
    """The first pc at or after ``pc`` that does work.

    Skips ``block``/``loop``/``end`` slots, which do nothing once branches
    are resolved, and follows an ``else`` to its jump target (an ``else``
    is only ever reached from the end of its then-arm). Reads the slots'
    op ids and the ``else`` slot's target, which point forward both before
    and after :func:`_resolve_branches` rewrites them, so it may run at
    any point of that walk.
    """
    n = len(code)
    while pc < n:
        op = code[pc][0]
        if op == OP_BLOCK or op == OP_LOOP or op == OP_END:
            pc += 1
        elif op == OP_JUMP:
            pc = code[pc][1]
        else:
            break
    return pc


def _resolve_branches(code: list[tuple], record: BodyRecord) -> None:
    """Rewrite a base stream's control slots into resolved form, in place,
    from the body's :class:`~repro.wasm.validation.BodyRecord`:

    * ``if`` becomes ``(OP_IF, then_pc, else_pc)`` and ``else``
      ``(OP_JUMP, target)``;
    * ``br``/``br_if`` become plain or stack-adjusting (see
      :data:`OP_BR_ADJUST`), as the record's entry says, ``br_table`` one
      ``(target, height, arity)`` per entry.

    A loop label targets the loop's first slot, a block, if or else label
    the slot after its ``end``, the function label ``len(code)`` (the
    loop's exit); every target goes through :func:`_land`, which the base
    stream's ``else`` slots already support.
    """
    n = len(code)
    end_of, else_of = record.end_of, record.else_of

    def target(label_pc: int) -> int:
        if label_pc < 0:
            return n
        if code[label_pc][0] == OP_LOOP:
            return _land(code, label_pc + 1)
        return _land(code, end_of[label_pc] + 1)

    for pc, end in end_of.items():
        op = code[pc][0] if pc >= 0 else None
        if op == OP_IF:
            else_pc = else_of.get(pc)
            false_pc = end if else_pc is None else else_pc + 1
            code[pc] = (OP_IF, _land(code, pc + 1), _land(code, false_pc))
        elif op == OP_JUMP:
            code[pc] = (OP_JUMP, _land(code, end + 1))
    for pc, entry in record.branches.items():
        op = code[pc][0]
        if op == OP_BR_TABLE:
            entries, default = entry
            code[pc] = (
                OP_BR_TABLE,
                tuple((target(label_pc), height, arity) for label_pc, height, arity, _ in entries),
                (target(default[0]), default[1], default[2]),
            )
            continue
        label_pc, height, arity, plain = entry
        if plain:
            code[pc] = (op, target(label_pc))
        else:
            adjust = OP_BR_ADJUST if op == OP_BR else OP_BR_IF_ADJUST
            code[pc] = (adjust, target(label_pc), height, arity)


def _hook_import_indices(module: Module) -> frozenset[int]:
    """Function indices of imports in the Wasabi hook namespace.

    Only void imports qualify: generated low-level hooks never return
    values, and restricting the match keeps arbitrary same-named imports
    with results on the fully generic call path.
    """
    indices: list[int] = []
    func_idx = 0
    for imp in module.imports:
        if isinstance(imp.desc, int):  # function import
            if imp.module == HOOK_IMPORT_MODULE and not module.types[imp.desc].results:
                indices.append(func_idx)
            func_idx += 1
    return frozenset(indices)


#: Stores whose mask is redundant: the operand stack only holds canonical
#: values, so a store as wide as its value type can never overflow its pack
#: format. Narrow stores (store8/16, and ``i64.store32``, whose ``(fmt,
#: mask)`` equals ``i32.store``'s) still need the mask.
_FULL_WIDTH_STORES = frozenset({"i32.store", "i64.store"})


def _quicken_slots(code: list[tuple], body: list[Instr]) -> None:
    """Replace bare memory ops with their pre-resolved twins, in place.

    Each twin pre-resolves what a base slot would re-derive on every
    execution: the ``struct`` format string becomes a bound
    ``Struct.unpack_from``/``pack_into`` method (no format-cache probe per
    access), and the canonicalization mask is dropped when the format
    already yields canonical values (unsigned loads; full-width stores).
    Signed loads and narrow stores keep their masks. The twin's last field
    is the access width in bytes, used only on the trap path so
    out-of-bounds messages stay bit-identical with the legacy loop.
    """
    for pc, ins in enumerate(code):
        op = ins[0]
        if op == OP_LOAD_INT:
            fmt = ins[1]
            unpack, _, size = _STRUCTS[fmt]
            if fmt[1].isupper():  # unsigned: unpack is already canonical
                code[pc] = (OP_QLOAD, unpack, ins[2], size)
            else:
                code[pc] = (OP_QLOAD_MASK, unpack, ins[2], ins[3], size)
        elif op == OP_LOAD_FLOAT:
            unpack, _, size = _STRUCTS[ins[1]]
            code[pc] = (OP_QLOAD, unpack, ins[2], size)
        elif op == OP_STORE_INT:
            _, pack, size = _STRUCTS[ins[1]]
            if body[pc].op in _FULL_WIDTH_STORES:
                code[pc] = (OP_QSTORE, pack, ins[2], size)
            else:
                code[pc] = (OP_QSTORE_MASK, pack, ins[2], ins[3], size)
        elif op == OP_STORE_FLOAT:
            _, pack, size = _STRUCTS[ins[1]]
            code[pc] = (OP_QSTORE, pack, ins[2], size)


def oob_message(width: int, addr: int, memdata, what: str) -> str:
    """The canonical out-of-bounds trap message.

    Compiled segments, quickened twins, and the generic machine handlers
    all funnel through this one formatter so the trap text is bit-identical
    across every engine configuration.
    """
    size = len(memdata) if memdata is not None else 0
    return (f"out of bounds memory access ({what} of {width} bytes "
            f"at address {addr}, memory is {size} bytes)")


#: Shortest run worth compiling: below this, one CALL_FUNCTION into the
#: compiled segment costs about as much as the dispatches it saves.
_SEGMENT_MIN = 4

#: Ops a compiled segment may contain: operand-stack work with no control
#: flow and no observable effects besides locals, linear memory and hook
#: dispatch — exactly the part of the stream where dispatch overhead is
#: pure loss. A hook site is a call into the analysis, which can neither
#: read nor write a Wasm local of the running frame.
_SEGMENT_VOCAB = frozenset({
    OP_GET_LOCAL, OP_BINARY, OP_CONST, OP_SET_LOCAL, OP_LOAD_INT,
    OP_LOAD_FLOAT, OP_STORE_INT, OP_STORE_FLOAT, OP_UNARY, OP_TEE_LOCAL,
    OP_SELECT, OP_DROP, OP_HOOK,
})

_COMPARES = {"eq": "==", "ne": "!=", "lt": "<", "gt": ">", "le": "<=", "ge": ">="}


def _compare_templates() -> dict[str, str]:
    """Inline templates of every compare, each yielding the int 0 or 1.

    One rule per integer width: ``eq``, ``ne`` and the unsigned compares
    compare the canonical values as they are. A signed compare does the
    same when both operands have the same sign bit, that is when ``a ^ b``
    is below it; otherwise the operand with the sign bit set is the
    negative one, so the compare with the operands swapped decides. Python's
    float comparisons are IEEE's, NaN included, so each float compare is
    its bare operator.
    """
    templates: dict[str, str] = {}
    for prefix, bits in (("i32", 32), ("i64", 64)):
        sign = hex(1 << (bits - 1))
        for name, cmp in _COMPARES.items():
            plain = f"(1 if {{a}} {cmp} {{b}} else 0)"
            if name == "eq" or name == "ne":
                templates[f"{prefix}.{name}"] = plain
                continue
            signed = f"({{a}} {cmp} {{b}} if ({{a}} ^ {{b}}) < {sign} else {{b}} {cmp} {{a}})"
            templates[f"{prefix}.{name}_u"] = plain
            templates[f"{prefix}.{name}_s"] = f"(1 if {signed} else 0)"
    for prefix in ("f32", "f64"):
        for name, cmp in _COMPARES.items():
            templates[f"{prefix}.{name}"] = f"(1 if {{a}} {cmp} {{b}} else 0)"
    return templates


#: Binary handlers with an exact inline expression template, keyed by the
#: *identity* of the table function — matching by identity means a template
#: can never drift from the semantics it replaces (anything unrecognized is
#: called through the table function instead of inlined).
_INLINE_BINOPS: dict[int, str] = {
    id(BINOPS[name]): template
    for name, template in {
        "i32.add": "(({a} + {b}) & 0xffffffff)",
        "i32.sub": "(({a} - {b}) & 0xffffffff)",
        "i32.mul": "(({a} * {b}) & 0xffffffff)",
        "i32.shl": "(({a} << ({b} % 32)) & 0xffffffff)",
        "i64.add": "(({a} + {b}) & 0xffffffffffffffff)",
        "i64.sub": "(({a} - {b}) & 0xffffffffffffffff)",
        "i64.mul": "(({a} * {b}) & 0xffffffffffffffff)",
        "i64.shl": "(({a} << ({b} % 64)) & 0xffffffffffffffff)",
        "i32.and": "({a} & {b})",
        "i32.or": "({a} | {b})",
        "i32.xor": "({a} ^ {b})",
        "f64.add": "({a} + {b})",
        "f64.sub": "({a} - {b})",
        "f64.mul": "({a} * {b})",
        **_compare_templates(),
    }.items()
}

#: The unary twin of :data:`_INLINE_BINOPS`, keyed the same way. An i32
#: converts to f64 exactly, so ``float`` of its (signed) value is the
#: conversion.
_INLINE_UNOPS: dict[int, str] = {
    id(UNOPS[name]): template
    for name, template in {
        "i32.eqz": "(0 if {a} else 1)",
        "i64.eqz": "(0 if {a} else 1)",
        "f64.convert_s/i32": "float({a} if {a} < 0x80000000 else {a} - 0x100000000)",
        "f64.convert_u/i32": "float({a})",
    }.items()
}

#: Capacity of the segment code cache. One ``analyze`` block (30 PolyBench
#: kernels under each of the seven analyses) compiles 1,817 distinct
#: segment sources (1.35 MB of text), so a whole block fits with room to
#: spare, and a long-lived process such as a serve worker cannot grow it
#: without bound.
_SEGMENT_CACHE_SIZE = 4096


@lru_cache(maxsize=_SEGMENT_CACHE_SIZE)
def _segment_code(src: str):
    """The code object of one segment source, compiled once per process.

    Equal straight-line runs print equal source, both within one module
    and across the modules one process decodes. The cache holds code
    objects, never functions: each segment execs the shared code into its
    own env, so its non-finite constants and handler refs stay private.
    ``lru_cache`` is safe to call from several threads: two that miss on
    one source at once both compile it, and either code object serves.
    """
    return compile(src, "<quickened-segment>", "exec")


#: The return statement that ends a segment, by the branch it takes (None
#: for a run that only falls through); ``_x0``/``_x1`` are its exits.
_RETURNS = {
    None: "return _x0",
    OP_BR_IF: "return -1 if {c} else _x0",
    OP_IF: "return _x0 if {c} else _x1",
    OP_BR: "return -1",
}


def _compile_segment(slots: list[tuple], term: int | None, exits: tuple[int, ...]):
    """Translate a straight-line run of decoded slots into one function.

    Symbolically executes the run against a virtual operand stack of
    Python expressions, emitting one statement per produced value (so
    evaluation order, every i32/i64 wrap mask, and the order of memory
    effects match the interpreted stream exactly). Values the run consumes
    from below its own pushes become leading ``stack`` reads; whatever the
    virtual stack holds at the end is appended back. Loads and stores keep
    their individual try/except so a trapping access raises the same
    message after the same prefix of memory effects as the generic
    handlers. An op with a template in :data:`_INLINE_BINOPS` or
    :data:`_INLINE_UNOPS` is computed inline; non-finite constants, the
    table functions of the other ops, the run's first hook site and its
    ``exits`` are referenced by name and bound in the
    segment's own ``env``; the source text alone picks the shared code
    object (:func:`_segment_code`), so equal runs share it wherever they
    sit.

    Locals are forwarded: a ``get_local`` of an index the run already read
    or wrote reuses that value instead of reading ``locals_`` again, which
    is exact because nothing a segment calls can write a Wasm local. Each
    local the run sets is written back once, with its final value, at the
    run's exit, before the stack epilogue: nothing a segment calls can
    read a Wasm local either, and an exception out of the run (a trap, an
    escaping hook fault) discards the frame. A hook site becomes
    ``tab[_site + j](operands)``, a call through the instance's dispatcher
    table at every event with the popped values as positional arguments,
    ``j`` counted from the run's first site ``_site``. ``term`` is the op
    of the branch the run takes (see :data:`OP_SEGMENT`), whose condition,
    for ``br_if`` and ``if``, is the run's top value: it is popped and
    tested in the return statement (:data:`_RETURNS`).
    """
    env: dict = {"_se": _struct_error, "_Trap": Trap, "_oob": oob_message}
    lines: list[str] = []
    vstack: list[str] = []
    local_values: dict[int, str] = {}
    written: dict[int, str] = {}
    counters = {"args": 0, "tmp": 0}

    def vpop() -> str:
        if vstack:
            return vstack.pop()
        name = f"a{counters['args']}"
        counters["args"] += 1
        return name

    def vpeek() -> str:
        if not vstack:
            # borrow the entry stack's top: it is consumed by the prologue
            # and re-pushed by the epilogue, preserving net stack effect
            name = f"a{counters['args']}"
            counters["args"] += 1
            vstack.append(name)
        return vstack[-1]

    def tmp() -> str:
        counters["tmp"] += 1
        return f"t{counters['tmp']}"

    def lit(value) -> str:
        if isinstance(value, float) and not math.isfinite(value):
            name = f"k{len(env)}"
            env[name] = value
            return name
        return repr(value)

    def ref(obj) -> str:
        name = f"f{id(obj)}"
        env[name] = obj
        return name

    def addr_of(base: str, offset: int) -> str:
        if not offset:
            return base
        name = tmp()
        lines.append(f"{name} = {base} + {offset}")
        return name

    def emit_load(ins, masked: bool) -> None:
        addr = addr_of(vpop(), ins[2])
        unpack, _, size = _STRUCTS[ins[1]]
        out = tmp()
        mask = f" & {ins[3]}" if masked else ""
        lines.extend([
            "try:",
            f"    {out} = {ref(unpack)}(memdata, {addr})[0]{mask}",
            "except _se:",
            f"    raise _Trap(_oob({size}, {addr}, memdata, 'load')) from None",
        ])
        vstack.append(out)

    def emit_store(ins, masked: bool) -> None:
        value = vpop()
        addr = addr_of(vpop(), ins[2])
        _, pack, size = _STRUCTS[ins[1]]
        mask = f" & {ins[3]}" if masked else ""
        lines.extend([
            "try:",
            f"    {ref(pack)}(memdata, {addr}, {value}{mask})",
            "except _se:",
            f"    raise _Trap(_oob({size}, {addr}, memdata, 'store')) from None",
        ])

    for ins in slots:
        op = ins[0]
        if op == OP_GET_LOCAL:
            value = local_values.get(ins[1])
            if value is None:
                value = local_values[ins[1]] = tmp()
                lines.append(f"{value} = locals_[{ins[1]}]")
            vstack.append(value)
        elif op == OP_CONST:
            vstack.append(lit(ins[1]))
        elif op == OP_BINARY:
            b = vpop()
            a = vpop()
            out = tmp()
            template = _INLINE_BINOPS.get(id(ins[1]))
            if template is not None:
                lines.append(f"{out} = " + template.format(a=a, b=b))
            else:
                lines.append(f"{out} = {ref(ins[1])}({a}, {b})")
            vstack.append(out)
        elif op == OP_SET_LOCAL:
            local_values[ins[1]] = written[ins[1]] = vpop()
        elif op == OP_TEE_LOCAL:
            local_values[ins[1]] = written[ins[1]] = vpeek()
        elif op == OP_SELECT:
            condition, second, first = vpop(), vpop(), vpop()
            out = tmp()
            lines.append(f"{out} = {first} if {condition} else {second}")
            vstack.append(out)
        elif op == OP_HOOK:  # (_, site, n_value_args, skip)
            operands = [vpop() for _ in range(ins[2])]
            j = ins[1] - env.setdefault("_site", ins[1])
            index = f"_site + {j}" if j else "_site"
            lines.append(f"tab[{index}]({', '.join(reversed(operands))})")
        elif op == OP_UNARY:
            a = vpop()
            out = tmp()
            template = _INLINE_UNOPS.get(id(ins[1]))
            if template is not None:
                lines.append(f"{out} = " + template.format(a=a))
            else:
                lines.append(f"{out} = {ref(ins[1])}({a})")
            vstack.append(out)
        elif op == OP_LOAD_INT:
            emit_load(ins, masked=True)
        elif op == OP_LOAD_FLOAT:
            emit_load(ins, masked=False)
        elif op == OP_STORE_INT:
            emit_store(ins, masked=True)
        elif op == OP_STORE_FLOAT:
            emit_store(ins, masked=False)
        else:  # OP_DROP
            vpop()

    condition = vpop() if term == OP_BR_IF or term == OP_IF else None
    n_args = counters["args"]
    prologue = [f"a{k} = stack[-{k + 1}]" for k in range(n_args)]
    if n_args:
        prologue.append(f"del stack[-{n_args}:]")
    body = prologue + lines
    body += [f"locals_[{index}] = {value}" for index, value in written.items()]
    body += [f"stack.append({v})" for v in vstack]
    body.append(_RETURNS[term].format(c=condition))
    env.update(zip(("_x0", "_x1"), exits))
    src = "\n    ".join(["def _segment(stack, locals_, memdata, tab):", *body])
    exec(_segment_code(src), env)
    return env["_segment"]


def _compile_segments(code: list[tuple]) -> None:
    """Replace straight-line runs with compiled-segment slots, in place.

    Runs on a resolved stream (:func:`_resolve_branches`). The segment
    takes the run's first slot, while the covered slots keep their
    ordinary decoding as the branch-target fallback (memory-op quickening
    still applies to them). Its successor is :func:`_land` of the slot
    after the run. When that successor is a plain ``br_if``, ``br`` or
    ``if``, the segment takes the branch (see :data:`OP_SEGMENT`);
    otherwise a run shorter than :data:`_SEGMENT_MIN` stays as it is and
    executes slot by slot. A hook site's ``OP_HOOK`` slot joins a run
    together with the location constants and call it skips.
    """
    n = len(code)
    pc = 0
    while pc < n:
        if code[pc][0] not in _SEGMENT_VOCAB:
            pc += 1
            continue
        start = pc
        slots = []
        while pc < n and code[pc][0] in _SEGMENT_VOCAB:
            ins = code[pc]
            slots.append(ins)
            pc += ins[3] if ins[0] == OP_HOOK else 1
        span = pc - start
        succ = _land(code, pc)
        term = code[succ][0] if succ < n else None
        target = None
        if term == OP_BR_IF:
            target = code[succ][1]
            exits = (_land(code, succ + 1), target)
        elif term == OP_IF:
            exits = code[succ][1:]
        elif term == OP_BR:
            target = code[succ][1]
            exits = (target,)
        elif span < _SEGMENT_MIN:
            continue
        else:
            term, exits = None, (succ,)
        code[start] = (OP_SEGMENT, _compile_segment(slots, term, exits), target, exits, span)


def _hook_sites(code: list[tuple], hook_imports: frozenset[int]) -> tuple:
    """The ``DecodedFunction.hook_sites`` records of a base-decoded stream."""
    sites = []
    for pc, ins in enumerate(code):
        if ins[0] != OP_CALL or ins[1] not in hook_imports:
            continue
        # the instrumentation idiom: two i32.const location operands
        # directly before the hook call fold into the site
        if pc >= 2 and ins[2] >= 2 and code[pc - 1][0] == OP_CONST and code[pc - 2][0] == OP_CONST:
            sites.append((pc, ins[1], (code[pc - 2][1], code[pc - 1][1])))
        else:
            sites.append((pc, ins[1], ()))
    return tuple(sites)


def _callee_types(module: Module) -> Callable[[int], FuncType]:
    """The type of a function index, for the ``call`` slots of one body.

    Like :meth:`Module.func_type`, but it lists the imports once per
    body, not once per ``call`` (an instrumented module has one import
    per generated hook), and, unlike :meth:`Module.function_types`, it
    does not list the module's defined functions for every body.
    """
    types, functions = module.types, module.functions
    imported = [types[imp.desc] for imp in module.imports if isinstance(imp.desc, int)]
    n_imported = len(imported)

    def callee_type(func_idx: int) -> FuncType:
        if func_idx < n_imported:
            return imported[func_idx]
        return types[functions[func_idx - n_imported].type_idx]

    return callee_type


def _base_stream(
    func: Function, module: Module, callee_type: Callable[[int], FuncType], end_of: dict[int, int]
) -> list[tuple]:
    """The base-decoded stream of ``func``, its ``else`` slots taking their
    ``end`` from the record's block matching."""
    code: list[tuple] = []
    for pc, instr in enumerate(func.body):
        try:
            code.append(_decode_instr(instr, pc, module, callee_type, end_of))
        except Exception as exc:
            # an instruction the decoder has no slot for
            raise WasmError(f"cannot execute {instr}: {exc}") from exc
    return code


def decode_function(func: Function, module: Module,
                    fuse: bool = True) -> DecodedFunction:
    """Decode one function body into its threaded form (uncached).

    ``fuse=True`` (the default) produces the stream the machine executes:
    branches are resolved (:func:`_resolve_branches`), hook sites become
    :data:`OP_HOOK` slots, straight-line runs become compiled segments,
    and bare memory ops become their pre-resolved twins. ``fuse=False``
    stops after the base decode, leaving every slot a base opcode with
    its label depths — the self-profiler takes its per-pc opcode ids from
    such a stream so its counts attribute 1:1 to source instructions.
    Both record the same ``hook_sites``. Both read the body's
    :class:`~repro.wasm.validation.BodyRecord`, so a body the validator
    rejects raises its :class:`~repro.wasm.errors.ValidationError` here.
    """
    record = body_record(module, func)
    callee_type = _callee_types(module)
    code = _base_stream(func, module, callee_type, record.end_of)
    hook_imports = _hook_import_indices(module)
    hook_sites = _hook_sites(code, hook_imports) if hook_imports else ()
    body = func.body
    if not fuse:
        return DecodedFunction(code, body, hook_sites)
    _resolve_branches(code, record)
    for site, (pc, _, consts) in enumerate(hook_sites):
        n_params = code[pc][2]
        if consts:
            code[pc - 2] = (OP_HOOK, site, n_params - 2, 3)
        else:
            code[pc] = (OP_HOOK, site, n_params, 1)
    _compile_segments(code)
    _quicken_slots(code, body)
    return DecodedFunction(code, body, hook_sites)


def cached_decode(func: Function, module: Module) -> tuple[DecodedFunction, bool]:
    """Decode ``func`` for execution, reusing the per-``Function`` cache.

    ``func._decoded`` holds the one stream every instance on every machine
    executes. Nothing writes into it after decode: hook sites dispatch
    through per-instance tables. Replacing ``func.body`` (or changing its
    length) makes the next call decode afresh. Returns
    ``(decoded, was_cache_hit)``.
    """
    decoded: DecodedFunction | None = getattr(func, "_decoded", None)
    if (
        decoded is not None
        and decoded.source_body is func.body
        and len(decoded.code) == len(func.body)
    ):
        return decoded, True
    decoded = decode_function(func, module)
    func._decoded = decoded  # type: ignore[attr-defined]
    return decoded, False


def stream_summary(module: Module) -> dict:
    """Static triage summary of a module's decoded streams.

    Decodes every defined function (through the per-``Function`` cache)
    and aggregates what crash-bundle inspection wants to show at a
    glance: total decoded instructions, Wasabi hook call sites (non-zero
    means the binary was instrumented), and direct host-boundary call
    sites — the slots whose results a replay log must supply. Raises
    :class:`WasmError` on a body that does not validate or decode.
    """
    host_imports = set()
    for idx, imp in enumerate(i for i in module.imports if isinstance(i.desc, int)):
        if imp.module != HOOK_IMPORT_MODULE:
            host_imports.add(idx)
    instructions = hook_sites = host_call_sites = 0
    for func in module.functions:
        decoded, _ = cached_decode(func, module)
        instructions += len(decoded.code)
        hook_sites += len(decoded.hook_sites)
        for ins in decoded.code:
            if ins[0] == OP_CALL and ins[1] in host_imports:
                host_call_sites += 1
    return {
        "instructions": instructions,
        "hook_sites": hook_sites,
        "host_call_sites": host_call_sites,
    }
