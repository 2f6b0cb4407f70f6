"""The abstract control stack: label resolution and traversed blocks (§2.4.4/5)."""

import pytest

from repro.core.analysis import Location
from repro.core.control import ControlStack
from repro.wasm import Function, Instr, Module, ValidationError, WasmError
from repro.wasm.types import FuncType
from repro.wasm.validation import validate_function

#: The ``i32.const`` an ``if`` takes its condition from.
COND = Instr("i32.const", value=1)


def body(*ops):
    return [Instr(op) if isinstance(op, str) else op for op in ops]


def match_blocks(instrs):
    """The block matching the validator records for a ``[] -> []`` body."""
    func = Function(type_idx=0, body=instrs)
    module = Module(types=[FuncType((), ())], functions=[func])
    return validate_function(module, func).end_of


class TestMatchBlocks:
    def test_function_block(self):
        matching = match_blocks(body("nop", "end"))
        assert matching == {-1: 1}

    def test_nested(self):
        instrs = body("block", "block", "end", "end", "end")
        matching = match_blocks(instrs)
        assert matching == {1: 2, 0: 3, -1: 4}

    def test_if_else(self):
        instrs = body(COND, "if", "nop", "else", "nop", "end", "end")
        matching = match_blocks(instrs)
        assert matching[1] == 5      # if -> its end
        assert matching[3] == 5      # else -> the same end
        assert matching[-1] == 6

    def test_unbalanced_rejected(self):
        with pytest.raises(ValidationError, match="unclosed block"):
            match_blocks(body("block", "end"))  # function end missing


class TestPaperExample:
    """The example of Table 3 row 5 / Figure 6: block containing a loop."""

    def setup_method(self):
        # indices:       0        1       2      3            4      5
        self.body = body("block", "loop", "nop", Instr("br", label=0),
                         "end", "end", "end")
        self.ctrl = ControlStack(0, match_blocks(self.body))
        self.ctrl.enter("block", 0)
        self.ctrl.enter("loop", 1)

    def test_control_stack_matches_figure6(self):
        frames = self.ctrl.frames
        assert [(f.kind, f.begin, f.end) for f in frames] == [
            ("function", -1, 6), ("block", 0, 5), ("loop", 1, 4)]

    def test_br_label_1_resolves_past_block_end(self):
        # br 1 targets the block; next instruction is after its end (idx 6)
        target = self.ctrl.resolve_label(1)
        assert target.label == 1
        assert target.location == Location(0, 6)

    def test_br_label_0_resolves_to_loop_body_start(self):
        target = self.ctrl.resolve_label(0)
        assert target.location == Location(0, 2)  # first instr in loop

    def test_traversed_frames_include_target(self):
        # branching to the block "ends" both the loop and the block
        traversed = self.ctrl.traversed_frames(1)
        assert [f.kind for f in traversed] == ["loop", "block"]

    def test_return_traverses_everything(self):
        frames = self.ctrl.all_frames_for_return()
        assert [f.kind for f in frames] == ["loop", "block", "function"]

    def test_label_out_of_range(self):
        with pytest.raises(WasmError):
            self.ctrl.resolve_label(5)


class TestEnterExit:
    def test_else_swaps_frame(self):
        instrs = body(COND, "if", "nop", "else", "nop", "end", "end")
        ctrl = ControlStack(3, match_blocks(instrs))
        ctrl.enter("if", 1)
        if_frame, else_frame = ctrl.enter_else(3)
        assert if_frame.kind == "if" and if_frame.begin == 1
        assert else_frame.kind == "else" and else_frame.begin == 3
        assert else_frame.end == 5
        assert ctrl.top is else_frame

    def test_else_without_if_rejected(self):
        instrs = body("block", "nop", "end", "end")
        ctrl = ControlStack(0, match_blocks(instrs))
        ctrl.enter("block", 0)
        with pytest.raises(WasmError):
            ctrl.enter_else(1)

    def test_exit_pops(self):
        instrs = body("block", "end", "end")
        ctrl = ControlStack(0, match_blocks(instrs))
        ctrl.enter("block", 0)
        frame = ctrl.exit()
        assert frame.kind == "block"
        assert ctrl.top.kind == "function"
