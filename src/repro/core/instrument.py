"""The Wasabi binary instrumenter (paper §2.4).

Walks every function body and interleaves the original instructions with
calls to generated low-level hooks (imported functions), implementing the
schemes of the paper's Table 3:

* constants are duplicated and passed to the hook (row 1);
* general instructions save their inputs/results in *fresh locals* (row 2);
* calls get a pre and a post hook around them (row 3);
* polymorphic ``drop``/``select`` are resolved against the abstract operand
  stack and call a *monomorphized* hook (row 4, §2.4.3);
* blocks get begin/end hooks, and branches/returns additionally call the
  end hooks of all traversed blocks (row 5, §2.4.5), with branch targets
  statically resolved via the abstract control stack (§2.4.4);
* i64 values are split into two i32 halves before crossing the host
  boundary (row 6, §2.4.6).

Selective instrumentation (§2.4.2): only instruction groups in the
configured set are instrumented, which bounds both code-size and runtime
overhead to what the analysis actually observes.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

from ..wasm.errors import WasmError
from ..wasm.module import Export, Function, Import, Instr, Module
from ..wasm.opcodes import BY_NAME
from ..wasm.types import I32, I64, FuncType, ValType
from ..wasm.validation import BodyRecord, _Unknown, body_records
from .analysis import ALL_GROUPS, Location
from .control import ControlFrame, ControlStack
from .hooks import HOOK_MODULE, HookRegistry
from .metadata import BrTableInfo, EndEvent, ModuleInfo, StaticInfo

MASK32 = 0xFFFFFFFF
MASK64 = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class InstrumentationConfig:
    """Tuning knobs of the instrumenter.

    ``groups`` selects which hook groups to instrument (selective
    instrumentation); ``emit_locations`` can be disabled for the location
    ablation benchmark; ``parallel_workers > 1`` instruments functions on a
    thread pool (mirroring the Rust implementation's parallelization, §3 —
    note CPython's GIL limits the achievable speedup). The output does not
    depend on the worker count: each function collects the hooks it needs,
    and hooks are numbered afterwards in function order. The workers share
    one table of interned instructions per :func:`instrument_module` call
    without a lock: two threads that intern the same instruction at once
    may each build an object, but equal instructions are interchangeable.
    """

    groups: frozenset[str] = ALL_GROUPS
    emit_locations: bool = True
    parallel_workers: int = 1


@dataclass
class InstrumentationResult:
    """The instrumented module plus everything the runtime needs."""

    module: Module
    info: StaticInfo

    @property
    def hook_count(self) -> int:
        return len(self.info.hooks)


class _Interned(dict):
    """``table[key]`` is the one ``Instr(op, <field>=key)``, built on first use."""

    def __init__(self, op: str, field: str):
        super().__init__()
        self.op = op
        self.field = field

    def __missing__(self, key: int) -> Instr:
        instr = self[key] = Instr(self.op, **{self.field: key})
        return instr


class _InternTable:
    """The instructions the instrumenter inserts, as shared flyweights.

    The inserted vocabulary is tiny (local/global accesses, i32 constants,
    calls, and the fixed instructions below), so every site reuses one
    frozen :class:`Instr` per distinct instruction instead of building its
    own. One table lives for one :func:`instrument_module` call.
    """

    def __init__(self):
        self.get_local = _Interned("get_local", "idx")
        self.set_local = _Interned("set_local", "idx")
        self.tee_local = _Interned("tee_local", "idx")
        self.get_global = _Interned("get_global", "idx")
        self.i32_const = _Interned("i32.const", "value")
        #: hook placeholders (negative, see ``call_hook``) and final calls
        self.call = _Interned("call", "idx")


_I32_WRAP = Instr("i32.wrap/i64")
_I64_CONST_32 = Instr("i64.const", value=32)
_I64_SHR_U = Instr("i64.shr_u")
_IF = Instr("if", blocktype=None)
_END = Instr("end")

#: Hook group of every mnemonic (None where the opcode table has none).
_GROUP_NAME = {name: op.group.value if op.group is not None else None
               for name, op in BY_NAME.items()}


class _FuncInstrumenter:
    """Instruments a single function body.

    Hooks are numbered per function (``hook_requests`` in first-use order);
    the inserted hook calls target placeholders ``-1 - slot`` that
    :func:`instrument_module` retargets once all functions are done. The
    body's :class:`~repro.wasm.validation.BodyRecord` gives the block
    matching, the code the validator stepped with its current frame
    unreachable, which gets no hooks, and the operand types of ``drop``
    and ``select``.
    """

    def __init__(self, module: Module, func: Function, record: BodyRecord,
                 func_idx: int, static: StaticInfo,
                 config: InstrumentationConfig, interned: _InternTable,
                 func_types: list[FuncType]):
        self.module = module
        self.func = func
        self.func_idx = func_idx
        self.groups = config.groups
        self.static = static
        self.get_local = interned.get_local
        self.set_local = interned.set_local
        self.tee_local = interned.tee_local
        self.get_global = interned.get_global
        self.i32_const = interned.i32_const
        self.call = interned.call
        self.func_const = (interned.i32_const[func_idx]
                           if config.emit_locations else None)
        functype = module.types[func.type_idx]
        self.functype = functype
        self.func_types = func_types
        self.local_types = list(functype.params) + list(func.locals)
        self.dead = record.dead
        self.operand_types = record.operand_types
        self.ctrl = ControlStack(func_idx, record.end_of)
        self.out: list[Instr] = []
        self.new_locals: list[ValType] = []
        self.hook_slots: dict[tuple, int] = {}
        self.hook_requests: list[tuple[str, tuple, tuple[ValType, ...]]] = []
        self._local_base = len(functype.params) + len(func.locals)
        self._free_temps: dict[ValType, list[int]] = {
            valtype: [] for valtype in ValType}

    # -- fresh locals (paper Table 3, row 2) ----------------------------------

    def temp(self, valtype: ValType) -> int:
        pool = self._free_temps[valtype]
        if pool:
            return pool.pop()
        self.new_locals.append(valtype)
        return self._local_base + len(self.new_locals) - 1

    def release(self, temps: list[int], types: tuple[ValType, ...]) -> None:
        free = self._free_temps
        for local_idx, valtype in zip(temps, types):
            free[valtype].append(local_idx)

    # -- emission helpers ----------------------------------------------------------

    def call_hook(self, kind: str, payload: tuple,
                  value_types: tuple[ValType, ...], instr_idx: int) -> None:
        """Emit the ``i32.const f; i32.const i; call h`` hook-call idiom.

        ``value_types`` are the hook's logical arguments, already pushed.
        The location constants are left out without ``emit_locations``.
        """
        key = (kind, payload)
        slot = self.hook_slots.get(key)
        if slot is None:
            slot = self.hook_slots[key] = len(self.hook_requests)
            self.hook_requests.append((kind, payload, value_types))
        call = self.call[-1 - slot]
        if self.func_const is None:
            self.out.append(call)
        else:
            self.out.extend((self.func_const, self.i32_const[instr_idx], call))

    def push_local(self, local_idx: int, valtype: ValType) -> None:
        """Push a saved value as hook argument(s), splitting i64 (row 6)."""
        get = self.get_local[local_idx]
        if valtype is I64:
            self.out.extend((get, _I32_WRAP, get, _I64_CONST_32, _I64_SHR_U,
                             _I32_WRAP))
        else:
            self.out.append(get)

    def save_to_temps(self, types: tuple[ValType, ...]) -> list[int]:
        """Pop the top ``len(types)`` stack values into fresh locals.

        ``types`` is given in stack order (bottom first); the returned temp
        indices are aligned with it.
        """
        temps = [self.temp(t) for t in types]
        set_local = self.set_local
        self.out.extend([set_local[local_idx] for local_idx in reversed(temps)])
        return temps

    def restore_from_temps(self, temps: list[int]) -> None:
        get_local = self.get_local
        self.out.extend([get_local[local_idx] for local_idx in temps])

    def push_args(self, temps: list[int], types: tuple[ValType, ...]) -> None:
        for local_idx, valtype in zip(temps, types):
            self.push_local(local_idx, valtype)

    def push_const_dup(self, instr: Instr) -> None:
        """Duplicate a constant by re-emitting it (Table 3, rows 1 and 6)."""
        if instr.op == "i64.const":
            unsigned = int(instr.value) & MASK64
            self.out.extend((self.i32_const[unsigned & MASK32],
                             self.i32_const[unsigned >> 32]))
        else:
            self.out.append(instr)

    # -- end hooks (paper §2.4.5) ----------------------------------------------

    def emit_end_hook(self, kind: str, begin_idx: int, end_idx: int) -> None:
        self.static.begin_of_end[(self.func_idx, end_idx, kind)] = \
            Location(self.func_idx, begin_idx)
        self.call_hook("end", (kind,), (), end_idx)

    def emit_begin_hook(self, kind: str, begin_idx: int) -> None:
        self.call_hook("begin", (kind,), (), begin_idx)

    def end_events(self, frames: list[ControlFrame]) -> tuple[EndEvent, ...]:
        return tuple(
            EndEvent(frame.kind, Location(self.func_idx, frame.begin),
                     Location(self.func_idx, frame.end))
            for frame in frames)

    # -- the main walk ------------------------------------------------------------

    def run(self) -> Function:
        if "begin" in self.groups:
            self.emit_begin_hook("function", -1)

        for idx, instr in enumerate(self.func.body):
            self._instrument_one(idx, instr)

        return Function(type_idx=self.func.type_idx,
                        locals=list(self.func.locals) + self.new_locals,
                        body=self.out, name=self.func.name)

    def _instrument_one(self, idx: int, instr: Instr) -> None:
        op = instr.op
        out = self.out
        dead = idx in self.dead
        loc_key = (self.func_idx, idx)
        enabled = self.groups.__contains__

        # Control structure must be tracked even through dead code.
        if op == "else":
            if_frame, _else_frame = self.ctrl.enter_else(idx)
            if not dead and enabled("end"):
                self.emit_end_hook("if", if_frame.begin, idx)
            out.append(instr)
            if enabled("begin"):
                self.emit_begin_hook("else", idx)
            return
        if op == "end":
            frame = self.ctrl.exit()
            if not dead:
                if frame.kind == "function" and enabled("return"):
                    self._emit_return_hook(idx)
                if enabled("end"):
                    self.emit_end_hook(frame.kind, frame.begin, frame.end)
            out.append(instr)
            return
        if op in ("block", "loop"):
            out.append(instr)
            self.ctrl.enter(op, idx)
            if not dead and enabled("begin"):
                self.emit_begin_hook(op, idx)
            return
        if op == "if":
            if not dead and enabled("if"):
                cond = self.temp(I32)
                out.extend((self.set_local[cond], self.get_local[cond]))
                self.call_hook("if", (), (I32,), idx)
                out.append(self.get_local[cond])
                self.release([cond], (I32,))
            out.append(instr)
            self.ctrl.enter("if", idx)
            if not dead and enabled("begin"):
                self.emit_begin_hook("if", idx)
            return

        if dead:
            out.append(instr)
            return

        if op == "br":
            if enabled("br"):
                self.static.br_targets[loc_key] = self.ctrl.resolve_label(instr.label)
                self.call_hook("br", (), (), idx)
            if enabled("end"):
                for frame in self.ctrl.traversed_frames(instr.label):
                    self.emit_end_hook(frame.kind, frame.begin, frame.end)
            out.append(instr)
            return

        if op == "br_if":
            need_hook = enabled("br_if")
            need_ends = enabled("end") and self.ctrl.traversed_frames(instr.label)
            if not need_hook and not need_ends:
                out.append(instr)
                return
            cond = self.temp(I32)
            get_cond = self.get_local[cond]
            out.append(self.set_local[cond])
            if need_hook:
                self.static.br_targets[loc_key] = self.ctrl.resolve_label(instr.label)
                out.append(get_cond)
                self.call_hook("br_if", (), (I32,), idx)
            if need_ends:
                # end hooks fire only if the branch is taken (§2.4.5)
                out.extend((get_cond, _IF))
                for frame in self.ctrl.traversed_frames(instr.label):
                    self.emit_end_hook(frame.kind, frame.begin, frame.end)
                out.append(_END)
            out.extend((get_cond, instr))
            self.release([cond], (I32,))
            return

        if op == "br_table":
            need = enabled("br_table") or enabled("end")
            if need:
                targets = tuple(self.ctrl.resolve_label(lbl)
                                for lbl in instr.br_table.labels)
                default = self.ctrl.resolve_label(instr.br_table.default)
                ended = tuple(
                    self.end_events(self.ctrl.traversed_frames(lbl))
                    for lbl in (*instr.br_table.labels, instr.br_table.default))
                if enabled("end"):
                    for events in ended:
                        for event in events:
                            self.static.begin_of_end[
                                (self.func_idx, event.end.instr, event.kind)] = event.begin
                self.static.br_tables[loc_key] = BrTableInfo(targets, default, ended)
                table_idx = self.temp(I32)
                out.extend((self.set_local[table_idx], self.get_local[table_idx]))
                self.call_hook("br_table", (), (I32,), idx)
                out.append(self.get_local[table_idx])
                self.release([table_idx], (I32,))
            out.append(instr)
            return

        if op == "return":
            if enabled("return"):
                self._emit_return_hook(idx)
            if enabled("end"):
                for frame in self.ctrl.all_frames_for_return():
                    self.emit_end_hook(frame.kind, frame.begin, frame.end)
            out.append(instr)
            return

        if op == "call":
            self._instrument_call(idx, instr)
            return
        if op == "call_indirect":
            self._instrument_call_indirect(idx, instr)
            return

        group_name = _GROUP_NAME[op]
        if group_name is None or group_name not in self.groups:
            out.append(instr)
            return

        if group_name == "nop":
            out.append(instr)
            self.call_hook("nop", (), (), idx)
            return
        if group_name == "unreachable":
            self.call_hook("unreachable", (), (), idx)
            out.append(instr)
            return
        if group_name == "const":
            out.append(instr)
            valtype = instr.info.signature[1][0]
            self.push_const_dup(instr)
            self.call_hook("const", (valtype,), (valtype,), idx)
            return
        if group_name == "drop":
            valtype = self.operand_types[idx]
            if isinstance(valtype, _Unknown):
                out.append(instr)
                return
            if valtype is I64:
                saved = self.temp(I64)
                out.append(self.set_local[saved])
                self.push_local(saved, I64)
                self.release([saved], (I64,))
            self.call_hook("drop", (valtype,), (valtype,), idx)
            return
        if group_name == "select":
            valtype = self.operand_types[idx]
            if isinstance(valtype, _Unknown):
                out.append(instr)
                return
            types = (valtype, valtype, I32)
            temps = self.save_to_temps(types)
            self.restore_from_temps(temps)
            out.append(instr)
            self.push_args(temps, types)
            self.call_hook("select", (valtype,), types, idx)
            self.release(temps, types)
            return
        if group_name in ("unary", "binary"):
            params, results = instr.info.signature
            temps = self.save_to_temps(params)
            self.restore_from_temps(temps)
            out.append(instr)
            result_temp = self.temp(results[0])
            out.append(self.tee_local[result_temp])
            self.push_args(temps, params)
            self.push_local(result_temp, results[0])
            self.call_hook(group_name, (op,), params + results, idx)
            self.release(temps + [result_temp], params + results)
            return
        if group_name == "load":
            self.static.memarg_offsets[loc_key] = instr.memarg.offset
            addr = self.temp(I32)
            out.extend((self.tee_local[addr], instr))
            valtype = instr.info.signature[1][0]
            result_temp = self.temp(valtype)
            out.append(self.tee_local[result_temp])
            self.push_local(addr, I32)
            self.push_local(result_temp, valtype)
            self.call_hook("load", (op,), (I32, valtype), idx)
            self.release([addr, result_temp], (I32, valtype))
            return
        if group_name == "store":
            self.static.memarg_offsets[loc_key] = instr.memarg.offset
            types = instr.info.signature[0]  # (addr, value)
            temps = self.save_to_temps(types)
            self.restore_from_temps(temps)
            out.append(instr)
            self.push_args(temps, types)
            self.call_hook("store", (op,), types, idx)
            self.release(temps, types)
            return
        if group_name == "memory_size":
            out.append(instr)
            result_temp = self.temp(I32)
            out.append(self.tee_local[result_temp])
            self.push_local(result_temp, I32)
            self.call_hook("memory_size", (), (I32,), idx)
            self.release([result_temp], (I32,))
            return
        if group_name == "memory_grow":
            delta = self.temp(I32)
            out.extend((self.tee_local[delta], instr))
            result_temp = self.temp(I32)
            out.append(self.tee_local[result_temp])
            self.push_local(delta, I32)
            self.push_local(result_temp, I32)
            self.call_hook("memory_grow", (), (I32, I32), idx)
            self.release([delta, result_temp], (I32, I32))
            return
        if group_name == "local":
            valtype = self.local_types[instr.idx]
            self.static.var_indices[loc_key] = instr.idx
            out.append(instr)
            self.push_local(instr.idx, valtype)
            self.call_hook("local", (op, valtype), (valtype,), idx)
            return
        if group_name == "global":
            valtype = self.static.module_info.globals[instr.idx].valtype
            self.static.var_indices[loc_key] = instr.idx
            out.append(instr)
            get_global = self.get_global[instr.idx]
            if valtype is I64:
                saved = self.temp(I64)
                out.extend((get_global, self.set_local[saved]))
                self.push_local(saved, I64)
                self.release([saved], (I64,))
            else:
                out.append(get_global)
            self.call_hook("global", (op, valtype), (valtype,), idx)
            return

        out.append(instr)  # pragma: no cover - all groups handled

    def _emit_return_hook(self, idx: int) -> None:
        results = self.functype.results
        temps = self.save_to_temps(results)
        self.push_args(temps, results)
        self.call_hook("return", tuple(results), results, idx)
        self.restore_from_temps(temps)
        self.release(temps, results)

    def _instrument_call(self, idx: int, instr: Instr) -> None:
        if "call" not in self.groups:
            self.out.append(instr)
            return
        loc_key = (self.func_idx, idx)
        callee_type = self.func_types[instr.idx]
        self.static.call_targets[loc_key] = instr.idx
        params, results = callee_type.params, callee_type.results
        arg_temps = self.save_to_temps(params)
        self.push_args(arg_temps, params)
        self.call_hook("call_pre", ("direct",) + tuple(params), params, idx)
        self.restore_from_temps(arg_temps)
        self.release(arg_temps, params)
        self.out.append(instr)
        self._emit_call_post(idx, results)

    def _instrument_call_indirect(self, idx: int, instr: Instr) -> None:
        if "call" not in self.groups:
            self.out.append(instr)
            return
        functype = self.module.types[instr.idx]
        params, results = functype.params, functype.results
        types = params + (I32,)  # table index on top
        temps = self.save_to_temps(types)
        table_temp = temps[-1]
        self.push_local(table_temp, I32)
        self.push_args(temps[:-1], params)
        self.call_hook("call_pre", ("indirect",) + tuple(params),
                       (I32,) + params, idx)
        self.restore_from_temps(temps)
        self.release(temps, types)
        self.out.append(instr)
        self._emit_call_post(idx, results)

    def _emit_call_post(self, idx: int, results: tuple[ValType, ...]) -> None:
        result_temps = self.save_to_temps(results)
        self.push_args(result_temps, results)
        self.call_hook("call_post", tuple(results), results, idx)
        self.restore_from_temps(result_temps)
        self.release(result_temps, results)


def instrument_module(module: Module,
                      groups: frozenset[str] | set[str] | None = None,
                      config: InstrumentationConfig | None = None
                      ) -> InstrumentationResult:
    """Instrument ``module`` for the given hook groups.

    Returns a *new* module (the input is not mutated) plus the static info
    the runtime needs. With ``groups=None`` all hook groups are
    instrumented (full instrumentation).
    """
    if config is None:
        config = InstrumentationConfig(
            groups=frozenset(groups) if groups is not None else ALL_GROUPS)
    elif groups is not None:
        config = replace(config, groups=frozenset(groups))
    unknown = config.groups - ALL_GROUPS
    if unknown:
        raise WasmError(f"unknown hook groups: {sorted(unknown)}")

    static = StaticInfo(module_info=ModuleInfo.from_module(module))
    n_imported = module.num_imported_functions
    interned = _InternTable()
    func_types = [info.type for info in static.module_info.functions]
    items = list(enumerate(zip(module.functions, body_records(module))))

    def work(item: tuple[int, tuple[Function, BodyRecord]]) -> tuple[Function, list]:
        pos, (func, record) = item
        instrumenter = _FuncInstrumenter(module, func, record, n_imported + pos,
                                         static, config, interned, func_types)
        return instrumenter.run(), instrumenter.hook_requests

    if config.parallel_workers > 1:
        with ThreadPoolExecutor(max_workers=config.parallel_workers) as pool:
            done = list(pool.map(work, items))
    else:
        done = [work(item) for item in items]

    # Number the hooks in function order, each function's in first-use
    # order: the order a sequential walk would create them in.
    registry = HookRegistry(with_locations=config.emit_locations)
    slot_targets = [[n_imported + registry.get_or_create(*request).index
                     for request in hook_requests]
                    for _func, hook_requests in done]
    hook_specs = registry.hooks
    static.hooks = hook_specs
    num_hooks = len(hook_specs)

    def remap(func_idx: int) -> int:
        return func_idx if func_idx < n_imported else func_idx + num_hooks

    instrumented = Module(name=module.name)
    instrumented.types = list(module.types)
    instrumented.imports = list(module.imports)
    for spec in hook_specs:
        type_idx = instrumented.add_type(spec.functype)
        # insert hook imports after the existing function imports so the
        # original imports keep their indices
        instrumented.imports.append(Import(HOOK_MODULE, spec.name, type_idx))
    calls = interned.call
    for (func, _hook_requests), targets in zip(done, slot_targets):
        body = func.body
        for i, instr in enumerate(body):
            if instr.op == "call":
                callee = instr.idx
                body[i] = calls[targets[-1 - callee] if callee < 0
                                else remap(callee)]
        # type indices are stable: instrumented.types extends module.types
        instrumented.functions.append(func)
    instrumented.tables = list(module.tables)
    instrumented.memories = list(module.memories)
    instrumented.globals = [replace_global(g) for g in module.globals]
    instrumented.exports = [
        Export(e.name, e.kind, remap(e.idx) if e.kind == "func" else e.idx)
        for e in module.exports
    ]
    if module.start is not None:
        instrumented.start = remap(module.start)
    for segment in module.elements:
        instrumented.elements.append(type(segment)(
            offset=list(segment.offset),
            func_idxs=[remap(i) for i in segment.func_idxs]))
    for segment in module.data:
        instrumented.data.append(type(segment)(offset=list(segment.offset),
                                               data=segment.data))
    instrumented.custom_sections = list(module.custom_sections)

    return InstrumentationResult(module=instrumented, info=static)


def replace_global(glob):
    """Shallow-copy a global (init expressions are immutable instrs)."""
    from ..wasm.module import Global
    return Global(type=glob.type, init=list(glob.init))
