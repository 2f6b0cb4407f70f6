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
* ``block``/``if``/``else`` targets are pre-resolved into absolute decoded
  pcs (subsuming the legacy ``BlockMatching`` side tables), and
* ``call``/``call_indirect`` carry their callee's parameter count (and, for
  indirect calls, the expected :class:`FuncType`) so the call sequence does
  no type-table lookups at run time,
* straight-line runs compile into one Python function each (a *segment*),
  and four fixed adjacent pairs (:data:`_PAIR_RULES`) fuse into one
  dispatch where a run is too short for a segment, and
* calls into the Wasabi hook namespace (:data:`HOOK_IMPORT_MODULE`,
  identified via the module's import section) are recorded as *hook call
  sites*. At instantiation time the machine fuses each
  ``i32.const func / i32.const instr / call <hook>`` site into an
  :data:`OP_HOOK` superinstruction bound to a per-site dispatcher closure,
  so an executed hook does no location marshalling and no static-info
  lookups (see ``repro.interp.machine.bind_hook_sites``).

Each :class:`~repro.wasm.module.Function` caches exactly one decoded
stream *on the object itself* (``func._decoded``), so re-instantiating the
same module — which the benchmark harness does constantly — pays the decode
cost once. The cache is validated against the identity and length of
``func.body``; a function whose body list is replaced is transparently
re-decoded. In-place mutation of a body that already executed is not
supported (the legacy loop has the same limitation through its precomputed
matching tables).

Decoded pcs map 1:1 onto body indices: instruction ``i`` of the source body
is entry ``i`` of the decoded stream, which keeps branch resolution and
debugging straightforward.
"""

from __future__ import annotations

import math
from struct import Struct
from struct import error as _struct_error

from ..wasm.errors import Trap, WasmError
from ..wasm.module import Function, Instr, Module
from ..wasm.numeric import f32_round
from .values import BINOPS, MASK32, MASK64, OP_HANDLERS

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
OP_RAISE = 29

# Fused superinstructions. :func:`_fuse_pairs` rewrites slot *i* to execute
# both instruction *i* and *i+1* (then skip ahead two pcs) for the adjacent
# pairs in :data:`_PAIR_RULES` — address arithmetic in compiled expression
# code is almost entirely ``get_local``/``const`` feeding a binary op. Slot
# *i+1* keeps its ordinary decoding, so a branch that lands there still
# executes it solo and the stream stays 1:1 with the source body.
OP_GET_LOCAL_CONST = 30    # (_, local_idx, const) — push local, push const
OP_CONST_BINARY = 31       # (_, fn, const)       — stack[-1] = fn(top, const)
OP_GET_LOCAL_BINARY = 32   # (_, fn, local_idx)   — stack[-1] = fn(top, local)
OP_GET2_LOCAL = 33         # (_, i, j)            — push two locals

# Per-call-site hook dispatch. Decoding records *where* calls into
# the Wasabi hook import namespace happen (``DecodedFunction.hook_sites``);
# the machine rewrites those slots per instance into
# ``(OP_HOOK, bound_dispatcher, n_value_args, skip)``: pop the value args,
# call the pre-bound closure, advance ``skip`` pcs (3 when the two location
# constants were fused in, 1 for a bare call). The const/call slots keep
# their ordinary decoding so branches into the middle of a (never-branched-
# into, in practice) hook sequence still behave like the source program.
OP_HOOK = 34

# Quickening (PR 7). The machine's stream (``decode_function(fuse=True)``)
# replaces every memory op left bare after fusion with its pre-resolved
# twin: the twin holds a bound ``struct.Struct.unpack_from``/``pack_into``
# method (no per-access format-cache probe) and drops the canonicalization
# mask where the format already guarantees canonical values. The base ids
# 4-7 therefore never reach the interpreter loop; they stay the vocabulary
# of the unfused stream and the segment compiler.
OP_QLOAD = 52              # (_, unpack, off, width) — no mask needed
OP_QLOAD_MASK = 53         # (_, unpack, off, mask, width)
OP_QSTORE = 54             # (_, pack, off, width)   — full-width store
OP_QSTORE_MASK = 55        # (_, pack, off, mask, width)

# Monomorphic inline cache for ``call_indirect``, installed per *instance*
# (the cache cell holds that instance's resolved callee) by
# ``repro.interp.machine.bind_indirect_caches`` at every recorded site:
# ``(_, expected_type, n_params, cell)`` with ``cell`` a mutable
# ``[last_table_idx, last_func_addr, last_callee]``. A hit needs the same
# table index *and* the same table entry (tables mutate), so table.set /
# snapshot-restore fall back to the full resolve+type-check path.
OP_CALL_INDIRECT_IC = 56

# The logical endpoint of superinstruction formation (PR 7): a *compiled
# straight-line segment*. At decode time, maximal runs of pure
# stack-machine ops (consts, locals, arithmetic, loads/stores, drop — no
# control flow, no calls, no hook sites) are translated once into a small
# Python function with every constant, mask, and bound struct method baked
# in, and the run's first slot becomes ``(OP_SEGMENT, fn, span)``: one
# dispatch executes the whole run, then skips ``span`` pcs. The covered
# slots keep their ordinary decoding, so a branch landing inside the
# segment executes the original (pair-fusable, quickenable) instructions —
# the same fallback contract fused pairs honour.
OP_SEGMENT = 57

#: Import namespace of Wasabi's generated low-level hooks. The instrumenter
#: (``repro.core.hooks.HOOK_MODULE``) aliases this constant, so the engine
#: and the instrumenter cannot drift apart.
HOOK_IMPORT_MODULE = "__wasabi_hooks"

#: Opcode id → display name, used by the self-profiler's hot-opcode ranking
#: and anything else that renders decoded streams for humans. Fused forms
#: are named after their constituents; ``OP_JUMP`` is the decoded ``else``.
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
    OP_RAISE: "raise",
    OP_GET_LOCAL_CONST: "get_local+const",
    OP_CONST_BINARY: "const+binary",
    OP_GET_LOCAL_BINARY: "get_local+binary",
    OP_GET2_LOCAL: "get_local+get_local",
    OP_HOOK: "hook",
    OP_QLOAD: "load.quick",
    OP_QLOAD_MASK: "load.quick.mask",
    OP_QSTORE: "store.quick",
    OP_QSTORE_MASK: "store.quick.mask",
    OP_CALL_INDIRECT_IC: "call_indirect.ic",
    OP_SEGMENT: "segment",
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


class DecodedFunction:
    """The pre-decoded form of one function body.

    ``code`` is a flat list of tuples, one per source instruction (1:1 with
    ``source_body``). ``source_body`` keeps a strong reference to the body
    list the stream was decoded from, which both prevents ``id`` recycling
    and lets the cache detect body replacement. ``hook_sites`` lists the
    pcs of ``call`` instructions targeting Wasabi hook imports; it is empty
    for uninstrumented modules, whose decode is entirely unaffected.
    ``indirect_sites`` lists the pcs of ``call_indirect`` slots — the
    machine rewrites those per instance into monomorphic inline caches
    (:data:`OP_CALL_INDIRECT_IC`).
    """

    __slots__ = ("code", "source_body", "hook_sites", "indirect_sites")

    def __init__(
        self, code: list[tuple], source_body: list[Instr],
        hook_sites: tuple[int, ...] = (),
        indirect_sites: tuple[int, ...] = (),
    ):
        self.code = code
        self.source_body = source_body
        self.hook_sites = hook_sites
        self.indirect_sites = indirect_sites

    def __len__(self) -> int:
        return len(self.code)


def match_blocks(body: list[Instr]) -> tuple[dict[int, int], dict[int, int | None]]:
    """Map block-start (and ``else``) indices to their matching ``end``.

    Returns ``(end_of, else_of)``. Raises :class:`WasmError` for an ``else``
    outside any block (mirroring the legacy ``BlockMatching`` behaviour);
    unclosed blocks are simply absent from ``end_of`` and are turned into
    runtime errors by :func:`decode_function`.
    """
    end_of: dict[int, int] = {}
    else_of: dict[int, int | None] = {}
    open_blocks: list[int] = []
    for idx, instr in enumerate(body):
        op = instr.op
        if op in ("block", "loop", "if"):
            open_blocks.append(idx)
            else_of[idx] = None
        elif op == "else":
            if not open_blocks:
                raise WasmError("else outside any block")
            else_of[open_blocks[-1]] = idx
        elif op == "end":
            if open_blocks:
                start = open_blocks.pop()
                end_of[start] = idx
                else_idx = else_of.get(start)
                if else_idx is not None:
                    end_of[else_idx] = idx
            # an end with no open block is the function's final end
    return end_of, else_of


def _decode_instr(
    instr: Instr,
    pc: int,
    module: Module,
    end_of: dict[int, int],
    else_of: dict[int, int | None],
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
        arity = 0 if instr.blocktype is None else 1
        return (OP_BLOCK, end_of[pc] + 1, arity)
    if op == "loop":
        return (OP_LOOP,)
    if op == "if":
        arity = 0 if instr.blocktype is None else 1
        end_idx = end_of[pc]
        else_idx = else_of.get(pc)
        # false path: jump into the else arm (skipping the marker), or onto
        # the end, which pops the label
        false_pc = end_idx if else_idx is None else else_idx + 1
        return (OP_IF, end_idx + 1, arity, false_pc)
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
        return (OP_CALL, instr.idx, len(module.func_type(instr.idx).params))
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


#: The fused pairs: ``(first_op, second_op)`` → a function taking the two
#: decoded tuples and returning the fused tuple. Runs long enough to matter
#: become compiled segments; a fused pair saves one dispatch on a run too
#: short for one, such as a loop condition (``get_local; const; lt;
#: br_if``) or the code between two hook sites.
_PAIR_RULES = {
    (OP_GET_LOCAL, OP_CONST): lambda f, s: (OP_GET_LOCAL_CONST, f[1], s[1]),
    (OP_GET_LOCAL, OP_BINARY): lambda f, s: (OP_GET_LOCAL_BINARY, s[1], f[1]),
    (OP_GET_LOCAL, OP_GET_LOCAL): lambda f, s: (OP_GET2_LOCAL, f[1], s[1]),
    (OP_CONST, OP_BINARY): lambda f, s: (OP_CONST_BINARY, s[1], f[1]),
}


def _fuse_pairs(code: list[tuple],
                blocked: frozenset[int] | set[int] = frozenset()) -> None:
    """Rewrite the :data:`_PAIR_RULES` pairs into superinstructions, in place.

    Overlapping fusions are fine: a fused slot is only *entered* at its own
    pc, and it always skips exactly one slot, whose unfused decoding is kept
    for branches that target it directly. Slots in ``blocked`` (the leading
    location constant of a hook call site) are never fused in either
    position, so the machine's hook-site rewrite stays reachable.
    """
    get = _PAIR_RULES.get
    for pc in range(len(code) - 1):
        if pc in blocked or pc + 1 in blocked:
            continue
        first = code[pc]
        second = code[pc + 1]
        rule = get((first[0], second[0]))
        if rule is not None:
            code[pc] = rule(first, second)


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
    structs: dict[str, Struct] = {}
    for pc, ins in enumerate(code):
        op = ins[0]
        if op == OP_LOAD_INT:
            fmt = ins[1]
            s = structs.get(fmt) or structs.setdefault(fmt, Struct(fmt))
            if fmt[1].isupper():  # unsigned: unpack is already canonical
                code[pc] = (OP_QLOAD, s.unpack_from, ins[2], s.size)
            else:
                code[pc] = (OP_QLOAD_MASK, s.unpack_from, ins[2], ins[3], s.size)
        elif op == OP_LOAD_FLOAT:
            fmt = ins[1]
            s = structs.get(fmt) or structs.setdefault(fmt, Struct(fmt))
            code[pc] = (OP_QLOAD, s.unpack_from, ins[2], s.size)
        elif op == OP_STORE_INT:
            fmt = ins[1]
            s = structs.get(fmt) or structs.setdefault(fmt, Struct(fmt))
            if body[pc].op in _FULL_WIDTH_STORES:
                code[pc] = (OP_QSTORE, s.pack_into, ins[2], s.size)
            else:
                code[pc] = (OP_QSTORE_MASK, s.pack_into, ins[2], ins[3], s.size)
        elif op == OP_STORE_FLOAT:
            fmt = ins[1]
            s = structs.get(fmt) or structs.setdefault(fmt, Struct(fmt))
            code[pc] = (OP_QSTORE, s.pack_into, ins[2], s.size)


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

#: Ops a compiled segment may contain: pure operand-stack work with no
#: control flow, no calls, and no observable effects besides locals and
#: linear memory — exactly the part of the stream where dispatch overhead
#: is pure loss.
_SEGMENT_VOCAB = frozenset({
    OP_GET_LOCAL, OP_BINARY, OP_CONST, OP_SET_LOCAL, OP_LOAD_INT,
    OP_LOAD_FLOAT, OP_STORE_INT, OP_STORE_FLOAT, OP_UNARY, OP_TEE_LOCAL,
    OP_DROP,
})

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
    }.items()
}


def _compile_segment(slots: list[tuple]):
    """Translate a straight-line run of decoded slots into one function.

    Symbolically executes the run against a virtual operand stack of
    Python expressions, emitting one statement per produced value (so
    evaluation order, every i32/i64 wrap mask, and the order of memory
    effects match the interpreted stream exactly). Values the run consumes
    from below its own pushes become leading ``stack`` reads; whatever the
    virtual stack holds at the end is appended back. Loads and stores keep
    their individual try/except so a trapping access raises the same
    message after the same prefix of memory effects as the generic
    handlers.
    """
    env: dict = {"_se": _struct_error, "_Trap": Trap, "_oob": oob_message}
    lines: list[str] = []
    vstack: list[str] = []
    structs: dict[str, Struct] = {}
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

    def bound(fmt: str, attr: str) -> str:
        s = structs.get(fmt) or structs.setdefault(fmt, Struct(fmt))
        return ref(getattr(s, attr))

    def emit_load(ins, masked: bool) -> None:
        addr = addr_of(vpop(), ins[2])
        s = structs.get(ins[1]) or structs.setdefault(ins[1], Struct(ins[1]))
        out = tmp()
        mask = f" & {ins[3]}" if masked else ""
        lines.extend([
            "try:",
            f"    {out} = {bound(ins[1], 'unpack_from')}(memdata, {addr})[0]{mask}",
            "except _se:",
            f"    raise _Trap(_oob({s.size}, {addr}, memdata, 'load')) from None",
        ])
        vstack.append(out)

    def emit_store(ins, masked: bool) -> None:
        value = vpop()
        addr = addr_of(vpop(), ins[2])
        s = structs.get(ins[1]) or structs.setdefault(ins[1], Struct(ins[1]))
        mask = f" & {ins[3]}" if masked else ""
        lines.extend([
            "try:",
            f"    {bound(ins[1], 'pack_into')}(memdata, {addr}, {value}{mask})",
            "except _se:",
            f"    raise _Trap(_oob({s.size}, {addr}, memdata, 'store')) from None",
        ])

    for ins in slots:
        op = ins[0]
        if op == OP_GET_LOCAL:
            out = tmp()
            lines.append(f"{out} = locals_[{ins[1]}]")
            vstack.append(out)
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
            lines.append(f"locals_[{ins[1]}] = {vpop()}")
        elif op == OP_TEE_LOCAL:
            lines.append(f"locals_[{ins[1]}] = {vpeek()}")
        elif op == OP_UNARY:
            out = tmp()
            lines.append(f"{out} = {ref(ins[1])}({vpop()})")
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

    n_args = counters["args"]
    prologue = [f"a{k} = stack[-{k + 1}]" for k in range(n_args)]
    if n_args:
        prologue.append(f"del stack[-{n_args}:]")
    body = prologue + lines + [f"stack.append({v})" for v in vstack]
    if not body:
        return None
    src = "def _segment(stack, locals_, memdata):\n" + "\n".join(
        "    " + line for line in body)
    exec(compile(src, "<quickened-segment>", "exec"), env)
    return env["_segment"]


def _compile_segments(code: list[tuple],
                      blocked: frozenset[int] | set[int] = frozenset()) -> None:
    """Replace straight-line runs with :data:`OP_SEGMENT` slots, in place.

    Runs before pair fusion: the segment takes the run's first slot (so
    fusion can never consume it), while the covered slots keep their
    ordinary decoding as the branch-target fallback — fusion and memory-op
    quickening still apply to them, so a branch into the middle of a
    segment executes at fused-pair speed. Hook sites (``blocked``) never
    join a segment; the machine's per-instance OP_HOOK rewrite stays
    reachable.
    """
    n = len(code)
    pc = 0
    while pc < n:
        if code[pc][0] in _SEGMENT_VOCAB and pc not in blocked:
            start = pc
            while pc < n and code[pc][0] in _SEGMENT_VOCAB and pc not in blocked:
                pc += 1
            if pc - start >= _SEGMENT_MIN:
                fn = _compile_segment(code[start:pc])
                if fn is not None:
                    code[start] = (OP_SEGMENT, fn, pc - start)
        else:
            pc += 1


def decode_function(func: Function, module: Module,
                    fuse: bool = True) -> DecodedFunction:
    """Decode one function body into its threaded form (uncached).

    ``fuse=True`` (the default) produces the stream the machine executes:
    straight-line runs become compiled segments, the :data:`_PAIR_RULES`
    pairs are fused, bare memory ops become their pre-resolved twins, and
    ``call_indirect`` slots are recorded in ``indirect_sites`` for the
    machine's per-instance inline-cache rewrite. ``fuse=False`` stops after
    the base decode, leaving every slot a base opcode — the self-profiler
    takes its per-pc opcode ids from such a stream so its counts attribute
    1:1 to source instructions.
    """
    body = func.body
    end_of, else_of = match_blocks(body)
    hook_imports = _hook_import_indices(module)
    code: list[tuple] = []
    for pc, instr in enumerate(body):
        try:
            code.append(_decode_instr(instr, pc, module, end_of, else_of))
        except Exception as exc:
            # Malformed instructions (missing immediates, unclosed blocks)
            # fail at *execution* time in the legacy loop; mirror that by
            # decoding them to a raising placeholder instead of refusing to
            # instantiate.
            code.append((OP_RAISE, WasmError(f"cannot execute {instr}: {exc}")))
    hook_sites: tuple[int, ...] = ()
    blocked: set[int] = set()
    if hook_imports:
        hook_sites = tuple(
            pc for pc, ins in enumerate(code) if ins[0] == OP_CALL and ins[1] in hook_imports
        )
        for pc in hook_sites:
            # the instrumentation idiom: two i32.const location operands
            # directly before the hook call — reserve the first const slot
            # for the machine's OP_HOOK rewrite
            consts = pc >= 2 and code[pc - 1][0] == OP_CONST and code[pc - 2][0] == OP_CONST
            if consts and code[pc][2] >= 2:
                blocked.add(pc - 2)
    if not fuse:
        return DecodedFunction(code, body, hook_sites)
    # segments first: each claims its run's first slot (so a fusion pair
    # can never swallow it), while the covered slots fall through to
    # fusion + quickening as branch-target fallbacks
    _compile_segments(code, blocked)
    _fuse_pairs(code, blocked)
    _quicken_slots(code, body)
    indirect_sites = tuple(
        pc for pc, ins in enumerate(code) if ins[0] == OP_CALL_INDIRECT)
    return DecodedFunction(code, body, hook_sites, indirect_sites)


def cached_decode(func: Function, module: Module) -> tuple[DecodedFunction, bool]:
    """Decode ``func`` for execution, reusing the per-``Function`` cache.

    ``func._decoded`` holds the one stream every machine executes. Nothing
    writes into it after decode: the machine's per-instance rewrites (hook
    sites, inline caches) run on copies. Replacing ``func.body`` (or
    changing its length) makes the next call decode afresh. Returns
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
    means the binary was instrumented), instructions that decoded to
    raising :data:`OP_RAISE` placeholders (malformed bodies a fuzz mutant
    smuggled past validation), and direct host-boundary call sites —
    the slots whose results a replay log must supply.
    """
    host_imports = set()
    for idx, imp in enumerate(i for i in module.imports if isinstance(i.desc, int)):
        if imp.module != HOOK_IMPORT_MODULE:
            host_imports.add(idx)
    instructions = hook_sites = raising = host_call_sites = 0
    for func in module.functions:
        decoded, _ = cached_decode(func, module)
        instructions += len(decoded.code)
        hook_sites += len(decoded.hook_sites)
        for ins in decoded.code:
            if ins[0] == OP_RAISE:
                raising += 1
            elif ins[0] == OP_CALL and ins[1] in host_imports:
                host_call_sites += 1
    return {
        "instructions": instructions,
        "hook_sites": hook_sites,
        "raising": raising,
        "host_call_sites": host_call_sites,
    }
