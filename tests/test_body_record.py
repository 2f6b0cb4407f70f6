"""The validator's body record and the contract it carries: every engine
path runs only what the validator accepted, and checks each body once.

``validate_function`` records a body's block matching, branch side table,
dead code and polymorphic operand types as it checks the body, and caches
that record on the ``Function``. The instrumenter, the decoder and the
legacy loop read it, and every engine path fetches it at instantiation, so
an instrumented or in-memory module is validated there and a body the
validator rejects never runs.
"""

from __future__ import annotations

import pytest

import repro.core.session as session_module
import repro.wasm.validation as validation
from repro.analyses import InstructionCoverage
from repro.cli import main
from repro.core import AnalysisSession
from repro.core.hooks import HOOK_MODULE
from repro.run import default_linker
from repro.wasm import (Instr, ValidationError, decode_module, encode_module,
                        validate_module)
from repro.wasm.builder import ModuleBuilder
from repro.wasm.errors import EXIT_MALFORMED
from repro.wasm.module import IMMEDIATE_FIELD
from repro.wasm.opcodes import BY_NAME
from repro.wasm.types import I32, I64
from repro.wasm.validation import UNKNOWN, body_record
from repro.workloads import pdf_toolkit
from repro.workloads.polybench import compile_kernel

from .test_branch_forms import ENGINE_PATHS


def _module(emit, params=(), results=()):
    """A one-function module built in memory, never validated."""
    builder = ModuleBuilder("m")
    builder.add_memory(1)
    builder.add_table(1)
    builder.add_global(I32)
    emit(builder.function(params, results, name="f", export="f")).finish()
    return builder.build()


class TestRecord:
    def test_small_body(self):
        """Every field of the record of a body with each kind of block,
        branch, dead code and polymorphic instruction."""
        def emit(fb):
            fb.block()                                   # 0
            fb.loop()                                    # 1
            fb.get_local(0).br_if(0)                     # 2, 3: plain
            fb.i32_const(7).get_local(0).br_if(1)        # 4-6: adjust
            fb.emit("drop")                              # 7
            fb.get_local(0).if_(I64)                     # 8, 9
            fb.i64_const(1)                              # 10
            fb.else_()                                   # 11
            fb.i64_const(2).i64_const(3).get_local(0)    # 12-14
            fb.emit("select")                            # 15
            fb.end()                                     # 16
            fb.emit("drop")                              # 17
            fb.get_local(0)                              # 18
            fb.br_table([0, 1], 2)                       # 19
            fb.emit("drop").emit("nop")                  # 20, 21: dead
            fb.end()                                     # 22: dead
            fb.end()                                     # 23
            return fb
        module = _module(emit, params=(I32,))
        func = module.functions[0]
        record = body_record(module, func)
        assert record.end_of == {1: 22, 0: 23, 9: 16, 11: 16, -1: 24}
        assert record.else_of == {9: 11}
        # (label pc, label height, arity, plain)
        assert record.branches[3] == (1, 0, 0, True)
        assert record.branches[6] == (0, 0, 0, False)
        assert record.branches[19] == (
            ((1, 0, 0, True), (0, 0, 0, True)), (-1, 0, 0, True))
        assert record.dead == {20, 21, 22}
        assert record.operand_types == {7: I32, 15: I64, 17: I64, 20: UNKNOWN}
        assert func._record is record and body_record(module, func) is record

    def test_dead_block_branches_are_plain(self):
        """A block opening after a ``br`` is dead all through for the
        decoder: its branch counts as plain whatever the stack holds,
        while the validator checks the block normally and the
        instrumenter sees its inside as live."""
        def emit(fb):
            fb.br(0)                                     # 0
            fb.block().i32_const(1).br(0).end()          # 1-4
            return fb
        module = _module(emit)
        record = body_record(module, module.functions[0])
        assert record.branches[3] == (1, 0, 0, True)
        assert record.dead == {1, 4, 5}

    def test_load_module_attaches_the_record(self):
        """A module that was validated at load carries every record; a
        replaced body is validated afresh on the next request."""
        module = decode_module(encode_module(compile_kernel("trisolv")))
        validate_module(module)
        func = module.functions[0]
        record = func._record
        assert body_record(module, func) is record
        func.body = list(func.body)
        fresh = body_record(module, func)
        assert fresh is not record and fresh.body is func.body


#: One instruction of every immediate kind an instruction must carry.
MISSING = ["br", "br_if", "br_table", "call", "call_indirect", "get_local",
           "set_local", "tee_local", "get_global", "set_global", "i32.load",
           "f64.store", "i32.const", "i64.const", "f32.const", "f64.const"]


def test_missing_covers_every_immediate_kind():
    kinds = {imm for imm, field in IMMEDIATE_FIELD.items() if field}
    assert {BY_NAME[op].imm for op in MISSING} == kinds


def _missing_immediate(op: str):
    module = _module(lambda fb: fb.get_local(0), params=(I32,),
                     results=(I32,))
    module.functions[0].body.insert(0, Instr(op))
    return module


@pytest.mark.parametrize("op", MISSING)
class TestMissingImmediates:
    """An instruction without its immediate is refused by the validator,
    which names the instruction and the field, and so at instantiation on
    every engine path, never at run time."""

    def message(self, op):
        return f"{op}: missing its {IMMEDIATE_FIELD[BY_NAME[op].imm]} immediate"

    def test_validate_module(self, op):
        with pytest.raises(ValidationError, match=self.message(op)):
            validate_module(_missing_immediate(op))

    @pytest.mark.parametrize("path", sorted(ENGINE_PATHS))
    def test_instantiation(self, op, path):
        with pytest.raises(ValidationError, match=self.message(op)):
            ENGINE_PATHS[path]().instantiate(_missing_immediate(op))


@pytest.mark.parametrize("path", ["legacy", "profiled"])
def test_reinstantiation_validates_each_body_once(path, monkeypatch):
    """Instantiating one module three times on a machine that runs the
    legacy loop validates each body once, at the first instantiation,
    and every instance reads the one cached record."""
    calls = []
    validate = validation.validate_function

    def counted(module, func, *args):
        calls.append(func)
        return validate(module, func, *args)

    monkeypatch.setattr(validation, "validate_function", counted)
    module = decode_module(encode_module(pdf_toolkit(1)))
    machine = ENGINE_PATHS[path]()
    instances = [machine.instantiate(module) for _ in range(3)]
    assert sorted(map(id, calls)) == sorted(map(id, module.functions))
    for instance in instances:
        wasm_functions = instance.functions[module.num_imported_functions:]
        assert all(w.record is func._record for w, func
                   in zip(wasm_functions, module.functions))
        assert all(w.decoded is None for w in wasm_functions)


def _swap_one_location(monkeypatch):
    """Make ``instrument_module`` emit one hook call whose instruction
    location is an ``f32.const``: the stack heights still add up, the
    types do not."""
    instrument = session_module.instrument_module

    def faulty(module, *args, **kwargs):
        result = instrument(module, *args, **kwargs)
        imports = [imp for imp in result.module.imports
                   if isinstance(imp.desc, int)]
        for func in result.module.functions:
            body = func.body
            for pc in range(2, len(body)):
                callee = body[pc].idx if body[pc].op == "call" else None
                if callee is not None and callee < len(imports) \
                        and imports[callee].module == HOOK_MODULE \
                        and body[pc - 1].op == "i32.const":
                    body[pc - 1] = Instr("f32.const",
                                         value=float(body[pc - 1].value))
                    return result
        raise AssertionError("no hook call with a location")

    monkeypatch.setattr(session_module, "instrument_module", faulty)


class TestInstrumenterFault:
    """An instrumented module that does not validate is an instrumenter
    bug: it is refused at instantiation and never runs."""

    @pytest.mark.parametrize("path", sorted(ENGINE_PATHS))
    def test_session_refuses(self, path, monkeypatch):
        _swap_one_location(monkeypatch)
        with pytest.raises(ValidationError, match="type mismatch: "
                                                  "expected i32, found f32"):
            AnalysisSession(compile_kernel("trisolv"), InstructionCoverage(),
                            linker=default_linker(),
                            machine=ENGINE_PATHS[path]())

    def test_cli_exits_5(self, monkeypatch, tmp_path, capsys):
        _swap_one_location(monkeypatch)
        wasm = tmp_path / "trisolv.wasm"
        wasm.write_bytes(encode_module(compile_kernel("trisolv")))
        status = main(["run", str(wasm), "main", "--analysis", "coverage"])
        assert status == EXIT_MALFORMED == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        line, = captured.err.splitlines()
        assert line.startswith("repro: ValidationError: ")

