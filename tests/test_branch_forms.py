"""Every branch form the engines execute, differential against the legacy loop.

Each case is a small validated WAT function that reaches one form of
``br``/``br_if``/``br_table``/``if``/``else``/``return``: a *plain* branch,
whose operand stack holds exactly the values its label carries, and a
*stack-adjusting* one, which must discard values below them; depths 0-2;
block, loop and function labels; arity 0 and 1; dead code after ``br``,
``return`` and ``unreachable``. Every case is run on both engines, and the
results, the trap and the memory must agree with each other and with the
expected value written next to the case.

The parity test runs every PolyBench kernel and WASI program on both
engines under a metered, observed machine: the fuel spent and the taken
branches must be equal, because fuel is charged at exactly the taken
branches and calls.

The decoded engine resolves branches at decode: the landing test checks
that no resolved target or segment successor lands on a slot that does
nothing, and the refusal tests that a body whose operand stack does not
add up is refused at instantiation.

Engine selection is always explicit (``Machine(predecode=...)``).
"""

from __future__ import annotations

import pytest

import repro.interp.predecode as pd
from repro.core import instrument_module
from repro.eval.workloads import polybench_workloads
from repro.interp import Machine, ResourceLimits, decode_function
from repro.interp.host import Linker
from repro.obs.telemetry import Telemetry
from repro.wasi import WasiContext
from repro.wasm import validate_module
from repro.wasm.builder import ModuleBuilder
from repro.wasm.errors import ProcExit, Trap, ValidationError
from repro.wasm.types import I32
from repro.wasm.wat import parse_wat
from repro.workloads import engine_demo, pdf_toolkit
from repro.workloads.polybench import compile_kernel, kernel_names
from repro.workloads.wasi_io import (SAMPLE_FILES, SAMPLE_STDIN,
                                     wasi_io_entry, wasi_io_module,
                                     wasi_io_names)

#: name → (signature, body, [(args, expected)]). The signature is the
#: ``(param …) (result …) (local …)`` text of ``f``; ``expected`` is the
#: result list, or the message of the trap the call must raise.
CASES: dict[str, tuple[str, str, list]] = {
    # -- br to a block label -------------------------------------------------
    "br_block_plain_arity1": (
        "(result i32)",
        "block (result i32) i32.const 2 br 0 end",
        [((), [2])]),
    "br_block_adjusting_arity1": (
        "(result i32)",
        "block (result i32) i32.const 1 i32.const 2 br 0 end",
        [((), [2])]),
    "br_block_plain_arity0": (
        "(result i32)",
        "block br 0 end i32.const 4",
        [((), [4])]),
    "br_block_adjusting_arity0": (
        "(result i32)",
        "block i32.const 1 i32.const 3 br 0 end i32.const 4",
        [((), [4])]),
    "br_depth1_adjusting_arity1": (
        "(result i32)",
        "block (result i32) block i32.const 7 i32.const 8 br 1 end "
        "i32.const 0 end",
        [((), [8])]),
    "br_depth2_adjusting_arity1": (
        "(result i32)",
        "block (result i32) block block i32.const 7 i32.const 9 br 2 end "
        "end i32.const 0 end",
        [((), [9])]),
    "br_depth2_plain_arity0": (
        "(param i32) (result i32) (local i32)",
        "block block block get_local 0 set_local 1 br 2 end "
        "i32.const 100 set_local 1 end i32.const 200 set_local 1 end "
        "get_local 1",
        [((5,), [5])]),
    # -- br to a loop label --------------------------------------------------
    "br_loop_plain_depth1": (
        "(param i32) (result i32) (local i32)",
        "loop get_local 1 i32.const 1 i32.add set_local 1 "
        "block get_local 1 get_local 0 i32.ge_u br_if 0 br 1 end end "
        "get_local 1",
        [((4,), [4]), ((0,), [1])]),
    "br_loop_adjusting_depth1": (
        "(param i32) (result i32) (local i32)",
        "loop get_local 1 i32.const 1 i32.add set_local 1 "
        "block get_local 1 get_local 0 i32.ge_u br_if 0 "
        "i32.const 5 i32.const 6 br 1 end end "
        "get_local 1",
        [((4,), [4]), ((0,), [1])]),
    "br_loop_adjusting_depth2": (
        "(param i32) (result i32) (local i32)",
        "loop get_local 1 i32.const 2 i32.add set_local 1 "
        "block block get_local 1 get_local 0 i32.ge_u br_if 1 "
        "i32.const 5 br 2 end end end "
        "get_local 1",
        [((7,), [8])]),
    # -- br_if -------------------------------------------------------------------
    "br_if_loop_plain": (
        "(param i32) (result i32) (local i32)",
        "loop get_local 1 i32.const 3 i32.add set_local 1 "
        "get_local 0 i32.const 1 i32.sub tee_local 0 br_if 0 end "
        "get_local 1",
        [((5,), [15]), ((1,), [3])]),
    "br_if_loop_adjusting": (
        "(param i32) (result i32) (local i32)",
        "loop i32.const 99 get_local 1 i32.const 3 i32.add set_local 1 "
        "get_local 0 i32.const 1 i32.sub tee_local 0 br_if 0 drop end "
        "get_local 1",
        [((5,), [15]), ((1,), [3])]),
    "br_if_block_plain_arity1": (
        "(param i32) (result i32)",
        "block (result i32) i32.const 5 get_local 0 br_if 0 "
        "drop i32.const 9 end",
        [((1,), [5]), ((0,), [9])]),
    "br_if_block_adjusting_arity1": (
        "(param i32) (result i32)",
        "block (result i32) i32.const 1 i32.const 5 get_local 0 br_if 0 "
        "drop drop i32.const 9 end",
        [((1,), [5]), ((0,), [9])]),
    "br_if_block_adjusting_arity0": (
        "(param i32) (result i32) (local i32)",
        "block i32.const 1 i32.const 2 get_local 0 br_if 0 "
        "i32.add set_local 1 end get_local 1",
        [((1,), [0]), ((0,), [3])]),
    "br_if_target_is_fall_through": (
        "(param i32) (result i32)",
        "block get_local 0 br_if 0 end i32.const 7",
        [((0,), [7]), ((1,), [7])]),
    "br_if_depth2_adjusting_arity1": (
        "(param i32) (result i32)",
        "block (result i32) block block i32.const 3 i32.const 4 "
        "get_local 0 br_if 2 drop drop end end i32.const 10 end",
        [((1,), [4]), ((0,), [10])]),
    # -- the function label ------------------------------------------------------
    "br_function_depth0_adjusting": (
        "(result i32)",
        "i32.const 1 i32.const 5 br 0",
        [((), [5])]),
    "br_function_depth1_adjusting": (
        "(result i32)",
        "block i32.const 1 i32.const 6 br 1 end i32.const 0",
        [((), [6])]),
    "br_function_depth2_plain": (
        "(result i32)",
        "block block i32.const 6 br 2 end end i32.const 0",
        [((), [6])]),
    "br_if_function_plain": (
        "(param i32) (result i32)",
        "block get_local 0 get_local 0 br_if 1 drop end i32.const 0",
        [((3,), [3]), ((0,), [0])]),
    "br_if_function_adjusting": (
        "(param i32) (result i32)",
        "block i32.const 3 get_local 0 get_local 0 br_if 1 drop drop end "
        "i32.const 0",
        [((7,), [7]), ((0,), [0])]),
    "br_function_arity0_memory": (
        "(param i32)",
        "block get_local 0 br_if 1 i32.const 0 i32.const 1 i32.store end "
        "i32.const 4 i32.const 2 i32.store",
        [((1,), []), ((0,), [])]),
    # -- br_table ------------------------------------------------------------------
    "br_table_blocks_adjusting_arity1": (
        "(param i32) (result i32)",
        "block (result i32) block (result i32) block (result i32) "
        "i32.const 100 get_local 0 get_local 0 br_table 0 1 2 end "
        "i32.const 10 i32.add end i32.const 100 i32.add end",
        [((0,), [110]), ((1,), [101]), ((2,), [2]), ((9,), [9])]),
    "br_table_blocks_plain_arity1": (
        "(param i32) (result i32)",
        "block (result i32) block (result i32) block (result i32) "
        "get_local 0 get_local 0 br_table 0 1 2 end "
        "i32.const 10 i32.add end i32.const 100 i32.add end",
        [((0,), [110]), ((1,), [101]), ((2,), [2]), ((9,), [9])]),
    "br_table_loop_adjusting": (
        "(param i32) (result i32) (local i32)",
        "block loop get_local 1 i32.const 1 i32.add set_local 1 "
        "i32.const 7 get_local 1 get_local 0 i32.ge_u br_table 0 1 end end "
        "get_local 1",
        [((3,), [3]), ((0,), [1])]),
    "br_table_loop_plain_depth2": (
        "(param i32) (result i32) (local i32)",
        "block loop block get_local 1 i32.const 1 i32.add set_local 1 "
        "get_local 1 get_local 0 i32.ge_u br_table 1 2 end end end "
        "get_local 1",
        [((3,), [3])]),
    "br_table_function_label": (
        "(param i32) (result i32)",
        "block (result i32) i32.const 1 i32.const 2 get_local 0 "
        "br_table 0 1 end i32.const 40 i32.add",
        [((0,), [42]), ((1,), [2]), ((5,), [2])]),
    "br_table_arity0_mixed": (
        "(param i32) (result i32) (local i32)",
        "block block block i32.const 9 get_local 0 br_table 2 0 1 end "
        "i32.const 1 set_local 1 br 1 end i32.const 2 set_local 1 end "
        "get_local 1",
        [((0,), [0]), ((1,), [1]), ((2,), [2]), ((3,), [2])]),
    # -- if / else -----------------------------------------------------------------
    "if_else_result": (
        "(param i32) (result i32)",
        "get_local 0 if (result i32) i32.const 1 else i32.const 2 end",
        [((1,), [1]), ((0,), [2])]),
    "if_no_else_memory": (
        "(param i32) (result i32)",
        "get_local 0 if i32.const 0 i32.const 7 i32.store end i32.const 1",
        [((1,), [1]), ((0,), [1])]),
    "if_else_no_result_memory": (
        "(param i32)",
        "get_local 0 if i32.const 0 i32.const 7 i32.store "
        "else i32.const 0 i32.const 8 i32.store end",
        [((1,), []), ((0,), [])]),
    "if_br_out_of_then_adjusting": (
        "(param i32) (result i32)",
        "get_local 0 if (result i32) i32.const 1 i32.const 2 br 0 "
        "else i32.const 3 end",
        [((1,), [2]), ((0,), [3])]),
    "if_nested_else_chain": (
        "(param i32) (result i32)",
        "get_local 0 if (result i32) get_local 0 i32.const 1 i32.eq "
        "if (result i32) i32.const 10 else i32.const 20 end "
        "else i32.const 30 end",
        [((1,), [10]), ((2,), [20]), ((0,), [30])]),
    "if_br_if_to_if_label": (
        "(param i32) (result i32) (local i32)",
        "get_local 0 if get_local 0 i32.const 2 i32.eq br_if 0 "
        "i32.const 5 set_local 1 else i32.const 6 set_local 1 end "
        "get_local 1",
        [((1,), [5]), ((2,), [0]), ((0,), [6])]),
    # -- dead code -----------------------------------------------------------------
    "dead_after_br_nested": (
        "(result i32)",
        "block (result i32) i32.const 1 br 0 i32.const 2 i32.add "
        "block i32.const 3 drop end end",
        [((), [1])]),
    "dead_branches_after_br": (
        "(result i32)",
        "block br 0 i32.const 1 br_if 0 i32.const 0 br_table 0 0 end "
        "i32.const 11",
        [((), [11])]),
    "dead_after_return": (
        "(param i32) (result i32)",
        "get_local 0 return block (result i32) i32.const 1 end",
        [((4,), [4])]),
    "dead_after_unreachable": (
        "(param i32) (result i32)",
        "get_local 0 if (result i32) unreachable i32.add "
        "block i32.const 0 i32.const 9 i32.store end else i32.const 5 end",
        [((1,), "unreachable executed"), ((0,), [5])]),
    "dead_loop_after_br": (
        "(result i32)",
        "block (result i32) i32.const 8 br 0 loop br 0 end end",
        [((), [8])]),
    # -- return from nested blocks -------------------------------------------------
    "return_nested": (
        "(param i32) (result i32)",
        "block block loop get_local 0 return end end end i32.const 0",
        [((6,), [6])]),
    "return_nested_with_values_below": (
        "(param i32) (result i32)",
        "i32.const 1 block i32.const 9 block get_local 0 return end drop "
        "end drop i32.const 0",
        [((6,), [6])]),
    "return_from_loop_body": (
        "(param i32) (result i32) (local i32)",
        "loop get_local 1 i32.const 1 i32.add tee_local 1 get_local 0 "
        "i32.eq if get_local 1 i32.const 100 i32.mul return end br 0 end "
        "i32.const 0",
        [((3,), [300])]),
}


def _module(signature: str, body: str):
    module = parse_wat(f'(module (memory 1) (func (export "f") {signature} '
                       f'{body}))')
    validate_module(module)
    return module


def _outcome(module, predecode: bool, args) -> tuple:
    """The result or trap of one call of ``f`` on a fresh metered, observed
    machine, the first 16 bytes of memory, the fuel spent and the taken
    branches."""
    telemetry = Telemetry()
    machine = Machine(predecode=predecode, telemetry=telemetry,
                      limits=ResourceLimits(observe=True))
    instance = machine.instantiate(module)
    try:
        result = ("ok", instance.invoke("f", list(args)))
    except Trap as exc:
        result = ("trap", str(exc))
    return (result, bytes(instance.memory.data[:16]),
            machine.resource_usage().fuel_spent, telemetry.n_branches)


@pytest.mark.parametrize("case", sorted(CASES))
def test_branch_form_matches_legacy(case):
    """Results, traps, memory, fuel and taken branches all agree."""
    signature, body, calls = CASES[case]
    module = _module(signature, body)
    for args, expected in calls:
        legacy = _outcome(module, False, args)
        decoded = _outcome(module, True, args)
        assert decoded == legacy
        result = legacy[0]
        if isinstance(expected, str):
            assert result == ("trap", expected)
        else:
            assert result == ("ok", expected)


def test_taken_target_may_equal_fall_through():
    """``block get_local 0 br_if 0 end`` compiles into a segment whose
    taken target is its fall-through too: the slot must still tell a taken
    branch from a fall-through, and charge only the taken one."""
    signature, body, _ = CASES["br_if_target_is_fall_through"]
    module = _module(signature, body)
    segment = decode_function(module.functions[0], module).code[1]
    assert segment[0] == pd.OP_SEGMENT and segment[2:4] == (4, (4, 4))
    for arg, taken in ((0, 0), (1, 1)):
        outcome = _outcome(module, True, (arg,))
        assert outcome[0] == ("ok", [7]) and outcome[3] == taken


def test_cases_cover_every_branch_op():
    """The table reaches br, br_if, br_table, if, else and return."""
    ops = {instr.op for signature, body, _ in CASES.values()
           for instr in _module(signature, body).functions[0].body}
    assert {"br", "br_if", "br_table", "if", "else", "return",
            "unreachable", "loop", "block"} <= ops


# -- fuel and branch counts --------------------------------------------------------


def _polybench_run(workload, predecode: bool) -> tuple:
    telemetry = Telemetry()
    machine = Machine(predecode=predecode, telemetry=telemetry,
                      limits=ResourceLimits(observe=True))
    instance = machine.instantiate(workload.module(), workload.linker())
    instance.invoke(workload.entry, workload.args)
    return machine.resource_usage().fuel_spent, telemetry.n_branches


def _wasi_run(name: str, predecode: bool) -> tuple:
    telemetry = Telemetry()
    limits = ResourceLimits(observe=True)
    ctx = WasiContext(args=["prog"], stdin=SAMPLE_STDIN,
                      files=dict(SAMPLE_FILES), limits=limits)
    linker = Linker()
    ctx.register(linker)
    machine = Machine(predecode=predecode, telemetry=telemetry, limits=limits)
    instance = machine.instantiate(wasi_io_module(name), linker)
    ctx.bind_memory(instance)
    entry, args = wasi_io_entry(name)
    try:
        instance.invoke(entry, args)
    except ProcExit:
        pass
    return machine.resource_usage().fuel_spent, telemetry.n_branches


@pytest.mark.parametrize("workload", polybench_workloads(),
                         ids=lambda w: w.name)
def test_polybench_fuel_and_branches_match(workload):
    legacy = _polybench_run(workload, False)
    assert legacy[1] > 0
    assert _polybench_run(workload, True) == legacy


@pytest.mark.parametrize("name", wasi_io_names())
def test_wasi_fuel_and_branches_match(name):
    legacy = _wasi_run(name, False)
    assert legacy[1] > 0
    assert _wasi_run(name, True) == legacy


# -- where resolved branches land -----------------------------------------------

#: Slots that do nothing once branches are resolved: ``block``, ``loop``
#: and ``end``, and ``else``, which only jumps on.
NO_OP_SLOTS = frozenset({pd.OP_BLOCK, pd.OP_LOOP, pd.OP_END, pd.OP_JUMP})


def branch_targets(ins: tuple) -> tuple[int, ...]:
    """Every pc a slot of the executed stream may continue at other than
    the next one: branch targets, both arms of an ``if`` and the
    successor of a compiled segment."""
    op = ins[0]
    if op in (pd.OP_BR, pd.OP_BR_IF, pd.OP_BR_ADJUST, pd.OP_BR_IF_ADJUST,
              pd.OP_JUMP):
        return (ins[1],)
    if op == pd.OP_IF:
        return ins[1], ins[2]
    if op == pd.OP_BR_TABLE:
        return tuple(entry[0] for entry in (*ins[1], ins[2]))
    if op == pd.OP_SEGMENT:
        return ins[3]
    return ()


def _landing_modules():
    for name in kernel_names():
        yield name, compile_kernel(name)
    yield "pdf_toolkit", pdf_toolkit(1)
    yield "engine_demo", engine_demo(1)
    for name in wasi_io_names():
        yield name, wasi_io_module(name)
    yield "trisolv_all_hooks", instrument_module(compile_kernel("trisolv")).module


@pytest.mark.parametrize("name, module", list(_landing_modules()),
                         ids=lambda value: value if isinstance(value, str) else "")
def test_targets_skip_no_op_slots(name, module):
    """No resolved branch target and no segment successor lands on a
    ``block``, ``loop``, ``end`` or ``else`` slot: each lands on the first
    slot of a run, or on ``len(code)``, the function's exit."""
    targets = 0
    for func in module.functions:
        code = decode_function(func, module).code
        for ins in code:
            for target in branch_targets(ins):
                targets += 1
                assert 0 <= target <= len(code)
                assert target == len(code) or code[target][0] not in NO_OP_SLOTS
    assert targets


# -- bodies that cannot run ------------------------------------------------------


def _unvalidated(emit, results=(I32,)):
    """A one-function module built without validation."""
    builder = ModuleBuilder("bad")
    emit(builder.function((), results, name="f", export="f")).finish()
    return builder.build()


#: Every engine path a function can be instantiated for: the decoded
#: loop, the legacy loop, and the legacy loop a profiled machine runs.
ENGINE_PATHS = {
    "decoded": lambda: Machine(predecode=True),
    "legacy": lambda: Machine(predecode=False),
    "profiled": lambda: Machine(predecode=True,
                                telemetry=Telemetry(profile=True)),
}


@pytest.mark.parametrize("path", sorted(ENGINE_PATHS))
class TestRefusedBodies:
    """A body the validator rejects is refused at instantiation, with the
    validator's :class:`ValidationError` naming the instruction and the
    reason, on every engine path, also in a module built in memory that
    never went through ``load_module``."""

    def test_underflow_is_refused(self, path):
        module = _unvalidated(lambda fb: fb.i32_const(1).emit("i32.add"))
        with pytest.raises(ValidationError, match="i32.add: "
                                                  "operand stack underflow"):
            ENGINE_PATHS[path]().instantiate(module)

    def test_end_height_mismatch_is_refused(self, path):
        module = _unvalidated(
            lambda fb: fb.block(I32).i32_const(1).i32_const(2).end())
        with pytest.raises(ValidationError, match=r"end: 1 superfluous "
                                                  r"value\(s\) at end of block"):
            ENGINE_PATHS[path]().instantiate(module)

    def test_type_mismatch_is_refused(self, path):
        """Heights add up, types do not: ``f64.const 1; i32.const 1;
        i32.add``, the body of CI serve-smoke's ``bad.wasm``."""
        module = _unvalidated(
            lambda fb: fb.emit("f64.const", value=1.0).i32_const(1)
            .emit("i32.add"))
        with pytest.raises(ValidationError, match="i32.add: type mismatch: "
                                                  "expected i32, found f64"):
            ENGINE_PATHS[path]().instantiate(module)

    def test_dead_code_is_never_refused(self, path):
        """After a branch the stack is unknown: dead code that would
        underflow still decodes, and the body runs."""
        module = _unvalidated(
            lambda fb: fb.block(I32).i32_const(3).br(0).emit("i32.add")
            .emit("i32.add").end())
        assert ENGINE_PATHS[path]().instantiate(module).invoke("f") == [3]
