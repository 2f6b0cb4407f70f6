"""WebAssembly validation: expression type checking and module validation.

Implements the algorithm of the spec appendix ("Validation Algorithm"):
an abstract operand stack of value types (with an Unknown bottom type for
unreachable code) and a stack of control frames.

Validating a function body is the one walk over its control structure.
As :func:`validate_function` checks a body it keeps a :class:`BodyRecord`
of what that walk finds: every block's ``else`` and ``end``, every
branch's label, label height and arity, and the operand types of the
polymorphic ``drop``/``select`` (the paper's §2.4.3 "full type checking
during instrumentation"). The record is cached on the
:class:`~repro.wasm.module.Function`, keyed by the identity and length of
its body, and :func:`body_record` hands it out: the instrumenter, the
decoder's branch side table and the legacy loop's block matching read
it, and an engine that fetches it runs only a body the validator
accepted.

:func:`load_module` is the one way bytes become a module the engines run:
decode, then validate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from . import opcodes
from .decoder import decode_module
from .errors import ValidationError
from .module import IMMEDIATE_FIELD, Function, Instr, Module
from .types import (I32, MAX_PAGES, FuncType, GlobalType, Limits, MemoryType,
                    TableType, ValType)

if TYPE_CHECKING:  # pragma: no cover - repro.wasm does not import repro.obs
    from ..obs.spans import Tracer
    from ..obs.telemetry import Telemetry


class _Unknown:
    """Bottom type that unifies with every value type (unreachable code)."""

    def __repr__(self) -> str:
        return "unknown"


UNKNOWN = _Unknown()

StackEntry = ValType | _Unknown


@dataclass
class CtrlFrame:
    """A control frame: one entry of the validator's control stack."""

    kind: str                      # 'function' | 'block' | 'loop' | 'if' | 'else'
    start_types: tuple[ValType, ...]
    end_types: tuple[ValType, ...]
    height: int                    # operand stack height at frame entry
    unreachable: bool = False
    instr_idx: int = -1            # index of the opening instruction (-1 = function)

    @property
    def label_types(self) -> tuple[ValType, ...]:
        """Types a branch to this frame's label must provide."""
        return self.start_types if self.kind == "loop" else self.end_types


class BodyRecord:
    """What validating one function body found, for every later walk.

    * ``end_of`` maps every ``block``/``loop``/``if``/``else`` pc to the pc
      of its ``end``, and -1, the function's own label, to the final
      ``end``; ``else_of`` maps every ``if`` that has an ``else`` to it.
    * ``branches`` maps every ``br``/``br_if`` pc to one label entry and
      every ``br_table`` pc to ``(entries, default)``, one entry per
      label. An entry is ``(label_pc, height, arity, plain)``: the pc that
      opens the label (-1 for the function's), the operand-stack height at
      the label's entry, the number of values a branch to it carries, and
      whether the branch leaves exactly those values above that height.
      A branch to the function's label, or one in code that follows a
      ``br``, ``br_table``, ``return`` or ``unreachable`` in its own or an
      enclosing block, counts as plain: the engine never has to cut the
      stack for it.
    * ``dead`` holds the pcs stepped while the current frame was
      unreachable, the code the instrumenter leaves without hooks.
    * ``operand_types`` maps every ``drop`` to the type it drops and every
      ``select`` to the type it selects (:data:`UNKNOWN` in unreachable
      code).

    ``body`` and ``length`` key the record: it describes ``func.body``
    only while that is the same list with the same length.
    """

    __slots__ = ("body", "length", "end_of", "else_of", "branches", "dead",
                 "operand_types")

    def __init__(self, body: list[Instr], validator: "ExprValidator"):
        self.body = body
        self.length = len(body)
        self.end_of = validator.end_of
        self.else_of = validator.else_of
        self.branches = validator.branches
        self.dead = frozenset(validator.dead)
        self.operand_types = validator.operand_types
        for if_pc, else_pc in self.else_of.items():
            self.end_of[if_pc] = self.end_of[else_pc]


class ExprValidator:
    """Type checks one instruction sequence (function body or init expr).

    Stepping it also fills what :class:`BodyRecord` keeps (``end_of``,
    ``else_of``, ``branches``, ``dead``, ``operand_types``).
    """

    def __init__(self, module: Module, func: Function | None,
                 result_types: tuple[ValType, ...], locals_: list[ValType],
                 func_types: list[FuncType] | None = None,
                 global_types: list[GlobalType] | None = None):
        """``func_types``/``global_types`` are the module's index spaces as
        :meth:`Module.function_types`/:meth:`Module.global_types` return
        them; callers checking many bodies of one module pass them in so
        they are computed once."""
        self.module = module
        self.func = func
        self.locals = locals_
        self.func_types = (module.function_types() if func_types is None
                           else func_types)
        self.global_types = (module.global_types() if global_types is None
                             else global_types)
        self.has_memory = module.num_memories > 0
        self.vals: list[StackEntry] = []
        self.ctrls: list[CtrlFrame] = [
            CtrlFrame("function", (), tuple(result_types), 0)
        ]
        self.instr_idx = -1
        self.end_of: dict[int, int] = {}
        self.else_of: dict[int, int] = {}
        self.branches: dict[int, tuple] = {}
        self.dead: list[int] = []
        self.operand_types: dict[int, StackEntry] = {}

    # -- primitive stack operations (spec appendix) ---------------------------

    def _error(self, message: str) -> ValidationError:
        """A :class:`ValidationError` at the current instruction, which the
        message names when it comes from the function's body."""
        func_idx = None
        func = self.func
        if func is not None:
            if 0 <= self.instr_idx < len(func.body):
                message = f"{func.body[self.instr_idx]}: {message}"
            if func in self.module.functions:
                func_idx = (self.module.num_imported_functions
                            + self.module.functions.index(func))
        return ValidationError(message, func_idx=func_idx, instr_idx=self.instr_idx)

    def _missing(self, instr: Instr) -> ValidationError:
        return self._error(f"missing its {IMMEDIATE_FIELD[instr.info.imm]} immediate")

    def push_val(self, valtype: StackEntry) -> None:
        self.vals.append(valtype)

    def pop_val(self, expect: ValType | None = None) -> StackEntry:
        frame = self.ctrls[-1]
        if len(self.vals) == frame.height:
            if frame.unreachable:
                return expect if expect is not None else UNKNOWN
            raise self._error(
                f"operand stack underflow (expected {expect or 'a value'})")
        actual = self.vals.pop()
        if expect is not None and not isinstance(actual, _Unknown) and actual != expect:
            raise self._error(f"type mismatch: expected {expect}, found {actual}")
        return actual

    def pop_vals(self, expects: tuple[ValType, ...]) -> list[StackEntry]:
        vals = self.vals
        base = len(vals) - len(expects)
        if base >= self.ctrls[-1].height and tuple(vals[base:]) == expects:
            # the common case: exactly the expected types are on the stack
            del vals[base:]
            return list(expects)
        return [self.pop_val(t) for t in reversed(expects)][::-1]

    def push_vals(self, types: tuple[ValType, ...]) -> None:
        self.vals.extend(types)

    def push_ctrl(self, kind: str, start: tuple[ValType, ...],
                  end: tuple[ValType, ...]) -> None:
        self.ctrls.append(CtrlFrame(kind, start, end, len(self.vals),
                                    instr_idx=self.instr_idx))
        self.push_vals(start)

    def pop_ctrl(self) -> CtrlFrame:
        if not self.ctrls:
            raise self._error("control stack underflow")
        frame = self.ctrls[-1]
        self.pop_vals(frame.end_types)
        if len(self.vals) != frame.height:
            raise self._error(
                f"{len(self.vals) - frame.height} superfluous value(s) at end of block")
        self.ctrls.pop()
        return frame

    def mark_unreachable(self) -> None:
        frame = self.ctrls[-1]
        del self.vals[frame.height:]
        frame.unreachable = True

    def label(self, depth: int) -> CtrlFrame:
        if depth >= len(self.ctrls):
            raise self._error(f"branch label {depth} exceeds block nesting "
                              f"{len(self.ctrls) - 1}")
        return self.ctrls[-1 - depth]

    def _label_entry(self, frame: CtrlFrame) -> tuple[int, int, int, bool]:
        """The :class:`BodyRecord` entry of a branch to ``frame``, taken
        with the operand stack holding what the branch sees (its
        condition or index already popped)."""
        arity = len(frame.label_types)
        plain = (len(self.vals) == frame.height + arity
                 or frame is self.ctrls[0]
                 or any(ctrl.unreachable for ctrl in self.ctrls))
        return frame.instr_idx, frame.height, arity, plain

    # -- per-instruction typing ------------------------------------------------

    def local_type(self, idx: int) -> ValType:
        if idx >= len(self.locals):
            raise self._error(f"local index {idx} out of range ({len(self.locals)} locals)")
        return self.locals[idx]

    def step(self, instr: Instr) -> None:
        """Validate one instruction, updating the abstract stacks."""
        self.instr_idx += 1
        ctrls = self.ctrls
        if not ctrls:
            raise self._error("instruction after the function's final end")
        if ctrls[-1].unreachable:
            self.dead.append(self.instr_idx)
        rule = _RULES.get(instr.op)
        if rule is None:
            raise self._error("unknown instruction")
        if rule.__class__ is tuple:
            params, results, check = rule
            if check is not None:
                check(self, instr)
            if params:
                self.pop_vals(params)
            self.vals.extend(results)
        else:
            rule(self, instr)

    # control ------------------------------------------------------------------

    def _block_types(self, instr: Instr) -> tuple[ValType, ...]:
        return () if instr.blocktype is None else (instr.blocktype,)

    def _step_nop(self, instr: Instr) -> None:
        pass

    def _step_unreachable(self, instr: Instr) -> None:
        self.mark_unreachable()

    def _step_block(self, instr: Instr) -> None:
        self.push_ctrl("block", (), self._block_types(instr))

    def _step_loop(self, instr: Instr) -> None:
        self.push_ctrl("loop", (), self._block_types(instr))

    def _step_if(self, instr: Instr) -> None:
        self.pop_val(I32)
        self.push_ctrl("if", (), self._block_types(instr))

    def _step_else(self, instr: Instr) -> None:
        frame = self.ctrls[-1]
        if frame.kind != "if":
            raise self._error("else without matching if")
        self.pop_ctrl()
        self.else_of[frame.instr_idx] = self.instr_idx
        self.push_ctrl("else", (), frame.end_types)

    def _step_end(self, instr: Instr) -> None:
        frame = self.pop_ctrl()
        if frame.kind == "if" and frame.end_types != frame.start_types:
            raise self._error("if with a result type requires an else branch")
        self.end_of[frame.instr_idx] = self.instr_idx
        self.push_vals(frame.end_types)

    def _step_br(self, instr: Instr) -> None:
        if instr.label is None:
            raise self._missing(instr)
        frame = self.label(instr.label)
        self.branches[self.instr_idx] = self._label_entry(frame)
        self.pop_vals(frame.label_types)
        self.mark_unreachable()

    def _step_br_if(self, instr: Instr) -> None:
        if instr.label is None:
            raise self._missing(instr)
        frame = self.label(instr.label)
        self.pop_val(I32)
        self.branches[self.instr_idx] = self._label_entry(frame)
        self.pop_vals(frame.label_types)
        self.push_vals(frame.label_types)

    def _step_br_table(self, instr: Instr) -> None:
        table = instr.br_table
        if table is None:
            raise self._missing(instr)
        default = self.label(table.default)
        arity = default.label_types
        targets = [self.label(lbl) for lbl in table.labels]
        for target in targets:
            if target.label_types != arity:
                raise self._error("br_table targets have inconsistent types")
        self.pop_val(I32)
        self.branches[self.instr_idx] = (
            tuple(map(self._label_entry, targets)), self._label_entry(default))
        self.pop_vals(arity)
        self.mark_unreachable()

    def _step_return(self, instr: Instr) -> None:
        self.pop_vals(self.ctrls[0].end_types)
        self.mark_unreachable()

    def _step_call(self, instr: Instr) -> None:
        if instr.idx is None:
            raise self._missing(instr)
        if instr.idx >= len(self.func_types):
            raise self._error(f"call to out-of-range function {instr.idx}")
        functype = self.func_types[instr.idx]
        self.pop_vals(functype.params)
        self.push_vals(functype.results)

    def _step_call_indirect(self, instr: Instr) -> None:
        if self.module.num_tables == 0:
            raise self._error("call_indirect requires a table")
        if instr.idx is None:
            raise self._missing(instr)
        if instr.idx >= len(self.module.types):
            raise self._error(f"call_indirect type index {instr.idx} out of range")
        functype = self.module.types[instr.idx]
        self.pop_val(I32)
        self.pop_vals(functype.params)
        self.push_vals(functype.results)

    # parametric -----------------------------------------------------------------

    def _step_drop(self, instr: Instr) -> None:
        self.operand_types[self.instr_idx] = self.pop_val()

    def _step_select(self, instr: Instr) -> None:
        self.pop_val(I32)
        first = self.pop_val()
        second = self.pop_val()
        if isinstance(first, _Unknown):
            selected = second
        elif isinstance(second, _Unknown) or first == second:
            selected = first
        else:
            raise self._error(f"select operands differ: {first} vs {second}")
        self.operand_types[self.instr_idx] = selected
        self.push_val(selected)

    # variables ---------------------------------------------------------------

    def _step_get_local(self, instr: Instr) -> None:
        if instr.idx is None:
            raise self._missing(instr)
        self.push_val(self.local_type(instr.idx))

    def _step_set_local(self, instr: Instr) -> None:
        if instr.idx is None:
            raise self._missing(instr)
        self.pop_val(self.local_type(instr.idx))

    def _step_tee_local(self, instr: Instr) -> None:
        if instr.idx is None:
            raise self._missing(instr)
        valtype = self.local_type(instr.idx)
        self.pop_val(valtype)
        self.push_val(valtype)

    def _step_get_global(self, instr: Instr) -> None:
        if instr.idx is None:
            raise self._missing(instr)
        if instr.idx >= len(self.global_types):
            raise self._error(f"global index {instr.idx} out of range")
        self.push_val(self.global_types[instr.idx].valtype)

    def _step_set_global(self, instr: Instr) -> None:
        if instr.idx is None:
            raise self._missing(instr)
        if instr.idx >= len(self.global_types):
            raise self._error(f"global index {instr.idx} out of range")
        globaltype = self.global_types[instr.idx]
        if not globaltype.mutable:
            raise self._error(f"set_global of immutable global {instr.idx}")
        self.pop_val(globaltype.valtype)

    # immediates of monomorphic instructions ------------------------------------

    def _check_value(self, instr: Instr) -> None:
        if instr.value is None:
            raise self._missing(instr)

    def _check_memarg(self, instr: Instr) -> None:
        self._check_memory_exists(instr)
        if instr.memarg is None:
            raise self._missing(instr)
        self._check_alignment(instr)

    # memory -----------------------------------------------------------------

    def _check_memory_exists(self, instr: Instr) -> None:
        if not self.has_memory:
            raise self._error(f"{instr.op} requires a memory")

    _NATURAL_ALIGN = {
        "8": 0, "16": 1, "32": 2,
    }

    def _check_alignment(self, instr: Instr) -> None:
        mnemonic = instr.op
        if mnemonic.endswith(("8_s", "8_u", "store8")):
            natural = 0
        elif mnemonic.endswith(("16_s", "16_u", "store16")):
            natural = 1
        elif mnemonic.endswith(("32_s", "32_u", "store32")) and mnemonic.startswith("i64"):
            natural = 2
        elif mnemonic.startswith(("i32", "f32")):
            natural = 2
        else:
            natural = 3
        if instr.memarg.align > natural:
            raise self._error(
                f"{mnemonic}: alignment 2**{instr.memarg.align} exceeds natural "
                f"alignment 2**{natural}")

    # -- finishing ----------------------------------------------------------------

    def finish(self) -> None:
        if self.ctrls:
            raise self._error(
                f"{len(self.ctrls)} unclosed block(s) at end of expression")


#: The check :meth:`ExprValidator.step` runs before the stack effect of a
#: monomorphic instruction, by its immediate kind: only memory accesses and
#: constants read an immediate there.
_ROW_CHECKS = {
    opcodes.Imm.MEMARG: ExprValidator._check_memarg,
    opcodes.Imm.MEM_IDX: ExprValidator._check_memory_exists,
    opcodes.Imm.CONST_I32: ExprValidator._check_value,
    opcodes.Imm.CONST_I64: ExprValidator._check_value,
    opcodes.Imm.CONST_F32: ExprValidator._check_value,
    opcodes.Imm.CONST_F64: ExprValidator._check_value,
}

#: How :meth:`ExprValidator.step` checks each mnemonic: monomorphic
#: instructions by ``(params, results, check)``, the rest by their
#: ``_step_*`` method.
_RULES: dict[str, tuple | Callable[[ExprValidator, Instr], None]] = {
    name: (op.signature + (_ROW_CHECKS.get(op.imm),)
           if op.signature is not None and op.imm not in (opcodes.Imm.LOCAL_IDX,
                                                          opcodes.Imm.GLOBAL_IDX)
           else getattr(ExprValidator, "_step_" + name.replace(".", "_")))
    for name, op in opcodes.BY_NAME.items()}


def validate_function(module: Module, func: Function,
                      func_types: list[FuncType] | None = None,
                      global_types: list[GlobalType] | None = None) -> BodyRecord:
    """Type check one defined function's body (index spaces as for
    :class:`ExprValidator`) and cache its :class:`BodyRecord` on ``func``."""
    functype = module.types[func.type_idx]
    locals_ = list(functype.params) + list(func.locals)
    validator = ExprValidator(module, func, functype.results, locals_,
                              func_types, global_types)
    body = func.body
    if not body or body[-1].op != "end":
        raise ValidationError("function body must be terminated by end")
    step = validator.step
    for instr in body:
        step(instr)
    validator.finish()
    record = func._record = BodyRecord(body, validator)  # type: ignore[attr-defined]
    return record


def _cached_record(func: Function) -> BodyRecord | None:
    record: BodyRecord | None = getattr(func, "_record", None)
    if record is not None and record.body is func.body \
            and record.length == len(func.body):
        return record
    return None


def body_record(module: Module, func: Function) -> BodyRecord:
    """The :class:`BodyRecord` of ``func``, validating its body first if it
    has none: a body :func:`load_module` validated already carries it, an
    instrumented or in-memory one is validated on the first request.
    Raises :class:`ValidationError` for a body the validator rejects."""
    return _cached_record(func) or validate_function(module, func)


def body_records(module: Module) -> list[BodyRecord]:
    """:func:`body_record` of every defined function, in order, listing the
    module's index spaces once, and only if some body needs validating.
    Two threads that validate one body at once each cache a record, and
    either serves."""
    records = []
    spaces = None
    for func in module.functions:
        record = _cached_record(func)
        if record is None:
            if spaces is None:
                spaces = module.function_types(), module.global_types()
            record = validate_function(module, func, *spaces)
        records.append(record)
    return records


_CONST_OPS = {"i32.const", "i64.const", "f32.const", "f64.const", "get_global"}


def _validate_const_expr(module: Module, instrs: list[Instr],
                         expect: ValType, what: str) -> None:
    if len(instrs) != 1:
        raise ValidationError(f"{what} initializer must be a single constant instruction")
    instr = instrs[0]
    if instr.op not in _CONST_OPS:
        raise ValidationError(f"{what} initializer {instr.op} is not constant")
    if instr.op == "get_global":
        imported = module.imported_globals()
        if instr.idx >= len(imported):
            raise ValidationError(
                f"{what} initializer get_global must reference an imported global")
        globaltype = imported[instr.idx].desc
        if globaltype.mutable:
            raise ValidationError(f"{what} initializer global must be immutable")
        actual = globaltype.valtype
    else:
        actual = ValType.from_str(instr.op.split(".")[0])
    if actual != expect:
        raise ValidationError(f"{what} initializer has type {actual}, expected {expect}")


def _validate_limits(limits: Limits, hard_cap: int | None, what: str) -> None:
    """Range-check one ``Limits``: min ≤ max, both within the hard cap.

    Without this, a decoded module declaring a huge memory minimum would
    pass validation and only fail at instantiation — with a multi-gigabyte
    allocation attempt (or ``MemoryError``) instead of a clean
    :class:`ValidationError`.
    """
    if limits.maximum is not None and limits.minimum > limits.maximum:
        raise ValidationError(
            f"{what} limits minimum {limits.minimum} exceeds "
            f"maximum {limits.maximum}")
    if hard_cap is not None:
        if limits.minimum > hard_cap:
            raise ValidationError(
                f"{what} limits minimum {limits.minimum} exceeds "
                f"the hard cap of {hard_cap}")
        if limits.maximum is not None and limits.maximum > hard_cap:
            raise ValidationError(
                f"{what} limits maximum {limits.maximum} exceeds "
                f"the hard cap of {hard_cap}")


def validate_module(module: Module) -> None:
    """Validate a whole module (types, imports, bodies, segments, exports)."""
    for imp in module.imports:
        if isinstance(imp.desc, int) and imp.desc >= len(module.types):
            raise ValidationError(
                f"import {imp.module}.{imp.name} references type {imp.desc} "
                f"out of range")
        elif isinstance(imp.desc, MemoryType):
            _validate_limits(imp.desc.limits, MAX_PAGES,
                             f"imported memory {imp.module}.{imp.name}")
        elif isinstance(imp.desc, TableType):
            _validate_limits(imp.desc.limits, None,
                             f"imported table {imp.module}.{imp.name}")
    if module.num_tables > 1:
        raise ValidationError("at most one table is allowed in the MVP")
    if module.num_memories > 1:
        raise ValidationError("at most one memory is allowed in the MVP")
    for memtype in module.memories:
        _validate_limits(memtype.limits, MAX_PAGES, "memory")
    for tabletype in module.tables:
        _validate_limits(tabletype.limits, None, "table")
    for func in module.functions:
        if func.type_idx >= len(module.types):
            raise ValidationError(f"function references type {func.type_idx} out of range")
    for glob in module.globals:
        _validate_const_expr(module, glob.init, glob.type.valtype, "global")
    seen_exports: set[str] = set()
    limits = {
        "func": module.num_functions,
        "table": module.num_tables,
        "memory": module.num_memories,
        "global": module.num_globals,
    }
    for export in module.exports:
        if export.name in seen_exports:
            raise ValidationError(f"duplicate export name {export.name!r}")
        seen_exports.add(export.name)
        if export.idx >= limits[export.kind]:
            raise ValidationError(
                f"export {export.name!r} references {export.kind} {export.idx} "
                f"out of range")
    if module.start is not None:
        if module.start >= module.num_functions:
            raise ValidationError(f"start function {module.start} out of range")
        start_type = module.func_type(module.start)
        if start_type.params or start_type.results:
            raise ValidationError(f"start function must have type [] -> [], got {start_type}")
    for segment in module.elements:
        if module.num_tables == 0:
            raise ValidationError("element segment without a table")
        _validate_const_expr(module, segment.offset, I32, "element segment")
        for func_idx in segment.func_idxs:
            if func_idx >= module.num_functions:
                raise ValidationError(
                    f"element segment references function {func_idx} out of range")
    for segment in module.data:
        if module.num_memories == 0:
            raise ValidationError("data segment without a memory")
        _validate_const_expr(module, segment.offset, I32, "data segment")
    func_types = module.function_types()
    global_types = module.global_types()
    for func in module.functions:
        validate_function(module, func, func_types, global_types)


def load_module(data: bytes,
                telemetry: "Telemetry | Tracer | None" = None) -> Module:
    """Decode ``data`` and validate the result.

    Every entry point that runs or instruments a binary (``repro run``,
    ``repro instrument``, ``repro replay``, the serve worker) loads it
    here, so an invalid module fails with a :class:`ValidationError`
    before any engine or the instrumenter sees it. ``telemetry`` (a sink
    or a bare :class:`Tracer`) records the two steps as sibling
    ``decode`` and ``validate`` spans.
    """
    if telemetry is None:
        module = decode_module(data)
        validate_module(module)
        return module
    with telemetry.span("decode", bytes=len(data)):
        module = decode_module(data)
    with telemetry.span("validate"):
        validate_module(module)
    return module
