"""The engine self-profiler: opcode counting plus sampled call stacks.

The paper instruments *guest* programs; this module turns the same lens on
the host interpreter itself. When a profiler is attached
(``Telemetry(profile=True)`` → ``Machine(telemetry=...)``), the machine
runs every function it instantiates on its legacy loop
(``Machine._exec``), on either engine, which under one hoisted guard

* increments one slot of a dense per-opcode array per executed instruction
  (exact dynamic opcode counts — the legacy loop executes unfused, 1:1
  with the source body; ids come from the unfused decode, and a Wasabi
  hook call site counts once as ``hook``),
* attributes executed-instruction counts to the function frame that ran
  them (exact per-function *self* work, the hot-function ranking), and
* every ``sample_interval`` instructions records the live Wasm call stack
  (the collapsed-stack output flamegraph tools consume).

Counting instructions rather than sampling wall-clock makes the profile
deterministic for a given guest execution — two runs of the same program
produce the same ranking — and independent of the engine, which is what
the differential tests pin. The profiler is strictly opt-in: without it
the pre-decoded engine runs its ordinary fused loop and pays nothing.
"""

from __future__ import annotations

from ..interp import predecode as _pd
from ..interp.predecode import N_OPCODES, OP_NAMES

#: Default instructions between two call-stack samples. Prime-ish, so
#: loops whose body length divides a round number don't alias the sampler.
DEFAULT_SAMPLE_INTERVAL = 4093

#: opcode id → coarse class, the grouping of the
#: ``repro_opcode_executions_total{class=...}`` metric.
OP_CLASSES: dict[int, str] = {
    _pd.OP_GET_LOCAL: "local", _pd.OP_SET_LOCAL: "local",
    _pd.OP_TEE_LOCAL: "local",
    _pd.OP_GET_GLOBAL: "global", _pd.OP_SET_GLOBAL: "global",
    _pd.OP_BINARY: "arith", _pd.OP_UNARY: "arith",
    _pd.OP_CONST: "const",
    _pd.OP_LOAD_INT: "memory", _pd.OP_LOAD_FLOAT: "memory",
    _pd.OP_STORE_INT: "memory", _pd.OP_STORE_FLOAT: "memory",
    _pd.OP_MEMORY_SIZE: "memory", _pd.OP_MEMORY_GROW: "memory",
    _pd.OP_BR: "control", _pd.OP_BR_IF: "control",
    _pd.OP_BR_TABLE: "control", _pd.OP_IF: "control",
    _pd.OP_BLOCK: "control", _pd.OP_LOOP: "control",
    _pd.OP_END: "control", _pd.OP_JUMP: "control",
    _pd.OP_RETURN: "control", _pd.OP_NOP: "control",
    _pd.OP_UNREACHABLE: "control", _pd.OP_RAISE: "control",
    _pd.OP_CALL: "call", _pd.OP_CALL_INDIRECT: "call",
    _pd.OP_SELECT: "stack", _pd.OP_DROP: "stack",
    _pd.OP_HOOK: "hook",
    # fused/quickened forms are never charged (ids come from the base
    # decode), but keep the map total so aggregation cannot KeyError on
    # any opcode id
    _pd.OP_GET_LOCAL_CONST: "fused", _pd.OP_CONST_BINARY: "fused",
    _pd.OP_GET_LOCAL_BINARY: "fused", _pd.OP_GET2_LOCAL: "fused",
    _pd.OP_QLOAD: "memory", _pd.OP_QLOAD_MASK: "memory",
    _pd.OP_QSTORE: "memory", _pd.OP_QSTORE_MASK: "memory",
    _pd.OP_CALL_INDIRECT_IC: "call",
    _pd.OP_SEGMENT: "fused",
}


class Profiler:
    """Accumulates opcode counts, per-function work, and stack samples.

    The engine's counting loop touches ``op_counts`` (a dense list indexed
    by opcode id) directly and calls :meth:`sample` on its sampling period;
    :meth:`enter`/:meth:`exit` bracket each Wasm function frame. Everything
    else is reporting.
    """

    def __init__(self, sample_interval: int = DEFAULT_SAMPLE_INTERVAL):
        if sample_interval < 1:
            raise ValueError("sample_interval must be >= 1")
        self.sample_interval = sample_interval
        self.op_counts: list[int] = [0] * N_OPCODES
        self.func_counts: dict[str, int] = {}
        self.samples: dict[tuple[str, ...], int] = {}
        self.call_stack: list[str] = []
        # global instruction tick and the tick of the next stack sample;
        # the engine's counting loop advances ticks and compares inline
        self.ticks = 0
        self.next_sample = sample_interval

    # -- engine-facing recording ---------------------------------------------

    def enter(self, func_name: str) -> None:
        self.call_stack.append(func_name)

    def exit(self, executed: int) -> None:
        name = self.call_stack.pop()
        self.func_counts[name] = self.func_counts.get(name, 0) + executed

    def sample(self) -> None:
        key = tuple(self.call_stack)
        self.samples[key] = self.samples.get(key, 0) + 1
        self.next_sample = self.ticks + self.sample_interval

    # -- reporting -----------------------------------------------------------

    @property
    def total_instructions(self) -> int:
        return sum(self.op_counts)

    def hot_functions(self, top: int = 10) -> list[tuple[str, int, float]]:
        """``(name, self_instructions, share)`` by executed work, descending."""
        total = sum(self.func_counts.values()) or 1
        ranked = sorted(self.func_counts.items(), key=lambda kv: -kv[1])
        return [(name, count, count / total) for name, count in ranked[:top]]

    def hot_opcodes(self, top: int = 10) -> list[tuple[str, int, float]]:
        """``(opcode_name, executions, share)`` descending."""
        total = self.total_instructions or 1
        ranked = sorted(
            ((OP_NAMES[op], count) for op, count in enumerate(self.op_counts)
             if count),
            key=lambda kv: -kv[1])
        return [(name, count, count / total) for name, count in ranked[:top]]

    def opcode_class_counts(self) -> dict[str, int]:
        """Executed-instruction totals aggregated by opcode class."""
        totals: dict[str, int] = {}
        for op, count in enumerate(self.op_counts):
            if count:
                cls = OP_CLASSES[op]
                totals[cls] = totals.get(cls, 0) + count
        return totals

    def collapsed_stacks(self) -> str:
        """Samples in collapsed-stack format: ``main;fib;fib 42`` per line.

        Directly consumable by flamegraph.pl / inferno / speedscope.
        """
        lines = [f"{';'.join(stack)} {count}"
                 for stack, count in sorted(self.samples.items())]
        return "\n".join(lines) + ("\n" if lines else "")

    def as_dict(self) -> dict:
        """The ``profile`` section of the metrics artifact."""
        return {
            "sample_interval": self.sample_interval,
            "total_instructions": self.total_instructions,
            "opcodes": {OP_NAMES[op]: count
                        for op, count in enumerate(self.op_counts) if count},
            "opcode_classes": self.opcode_class_counts(),
            "functions": dict(sorted(self.func_counts.items(),
                                     key=lambda kv: -kv[1])),
            "samples": {";".join(stack): count
                        for stack, count in sorted(self.samples.items())},
        }
