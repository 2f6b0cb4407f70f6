"""The abstract control stack (paper §2.4.4, Figure 6).

While instrumenting, Wasabi tracks the nesting of blocks. Each frame
records the block kind and the locations of its ``begin`` and matching
``end`` instruction. The stack answers two static questions:

* what absolute location does a branch with relative label *n* lead to
  (resolving relative labels, §2.4.4), and
* which blocks' ``end`` hooks must fire when a branch/return jumps out of
  them (dynamic block nesting, §2.4.5).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..wasm.errors import WasmError
from .analysis import BranchTarget, Location


@dataclass(frozen=True)
class ControlFrame:
    """One abstract control stack entry (cf. Figure 6 in the paper)."""

    kind: str        # 'function' | 'block' | 'loop' | 'if' | 'else'
    begin: int       # original instruction index of the begin (-1 = function)
    end: int         # original instruction index of the matching end


class ControlStack:
    """Maintained by the instrumenter as it walks a function body.

    ``matching`` maps each block-opening (and ``else``) instruction index
    to its ``end``, and -1, the function's implicit block, to the final
    ``end``: the ``end_of`` of the body's
    :class:`~repro.wasm.validation.BodyRecord`.
    """

    def __init__(self, func_idx: int, matching: dict[int, int]):
        self.func_idx = func_idx
        self.matching = matching
        self.frames: list[ControlFrame] = [
            ControlFrame("function", -1, matching[-1])
        ]

    # -- walking ----------------------------------------------------------------

    def enter(self, kind: str, begin_idx: int) -> ControlFrame:
        frame = ControlFrame(kind, begin_idx, self.matching[begin_idx])
        self.frames.append(frame)
        return frame

    def enter_else(self, else_idx: int) -> tuple[ControlFrame, ControlFrame]:
        """Swap the top ``if`` frame for an ``else`` frame.

        Returns ``(if_frame, else_frame)`` so the instrumenter can emit the
        if-arm's end hook and the else-arm's begin hook.
        """
        if_frame = self.frames.pop()
        if if_frame.kind != "if":
            raise WasmError("else without matching if frame")
        else_frame = ControlFrame("else", else_idx, self.matching[else_idx])
        self.frames.append(else_frame)
        return if_frame, else_frame

    def exit(self) -> ControlFrame:
        if not self.frames:
            raise WasmError("control stack underflow")
        return self.frames.pop()

    @property
    def top(self) -> ControlFrame:
        return self.frames[-1]

    @property
    def depth(self) -> int:
        return len(self.frames)

    # -- static queries (the paper's §2.4.4 / §2.4.5) ------------------------------

    def frame_for_label(self, label: int) -> ControlFrame:
        if label >= len(self.frames):
            raise WasmError(f"branch label {label} exceeds nesting {len(self.frames) - 1}")
        return self.frames[-1 - label]

    def resolve_label(self, label: int) -> BranchTarget:
        """Resolve a relative branch label to an absolute location.

        For a ``loop`` the next executed instruction is the first one in the
        loop body (a backward jump); for every other block kind it is the
        instruction after the matching ``end`` (a forward jump).
        """
        frame = self.frame_for_label(label)
        if frame.kind == "loop":
            instr_idx = frame.begin + 1
        else:
            instr_idx = frame.end + 1
        return BranchTarget(label, Location(self.func_idx, instr_idx))

    def traversed_frames(self, label: int) -> list[ControlFrame]:
        """Frames whose ``end`` hooks fire when branching to ``label``.

        All frames between the current top (inclusive) and the branch
        target (inclusive), top-most first (paper §2.4.5).
        """
        return list(reversed(self.frames[len(self.frames) - 1 - label:]))

    def all_frames_for_return(self) -> list[ControlFrame]:
        """Frames whose ``end`` hooks fire on ``return``: everything up to
        and including the function block."""
        return list(reversed(self.frames))
