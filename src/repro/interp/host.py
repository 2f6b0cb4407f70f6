"""Host-side entities: host functions, global boxes, and the import linker.

Host functions play the role of JavaScript functions in the paper: both the
program's own environment imports (``env.print_f64`` …) and Wasabi's
generated low-level hooks are :class:`HostFunction` objects.
"""

from __future__ import annotations

from typing import Callable

from ..wasm.errors import WasmError
from ..wasm.types import FuncType, GlobalType, Limits
from .memory import Memory
from .table import Table


class HostFunction:
    """A function implemented in Python, callable from WebAssembly.

    ``fn`` receives the argument list and may return ``None``, a single
    value, or a sequence of values; results are coerced to the declared
    result types by the machine.
    """

    #: True on Wasabi's generated low-level hooks (set by the runtime).
    #: Hook calls are excluded from host-boundary recording — fused
    #: ``OP_HOOK`` sites bypass the host-call path, so recording them would
    #: make replay logs engine-dependent.
    is_wasabi_hook = False

    #: True on WASI syscalls (set by :class:`repro.wasi.WasiContext`).
    #: WASI functions are excluded from the machine's *generic* host-call
    #: recording because they also write guest memory: the WASI layer
    #: records them itself as ``wasi_call`` entries carrying the memory
    #: writes, and is entered live during replay to re-apply them.
    is_wasi = False

    def __init__(self, functype: FuncType, fn: Callable[..., object],
                 name: str = "<host>"):
        self.functype = functype
        self.fn = fn
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HostFunction({self.name}: {self.functype})"


class GlobalInstance:
    """A mutable box holding the runtime value of a global variable."""

    __slots__ = ("type", "value")

    def __init__(self, globaltype: GlobalType, value: int | float):
        self.type = globaltype
        self.value = value


class Linker:
    """Registry of importable entities, keyed by ``(module, name)``.

    Mirrors the two-level import namespace of WebAssembly. Host functions
    may be registered either as :class:`HostFunction` or as a plain callable
    together with the imported type (checked at instantiation).
    """

    def __init__(self):
        self._entries: dict[tuple[str, str], object] = {}

    def define(self, module: str, name: str, item: object) -> "Linker":
        self._entries[(module, name)] = item
        return self

    def define_function(self, module: str, name: str, functype: FuncType,
                        fn: Callable[..., object]) -> "Linker":
        return self.define(module, name, HostFunction(functype, fn, f"{module}.{name}"))

    def define_memory(self, module: str, name: str,
                      limits: Limits | Memory) -> Memory:
        memory = limits if isinstance(limits, Memory) else Memory(limits)
        self.define(module, name, memory)
        return memory

    def define_table(self, module: str, name: str, limits: Limits | Table) -> Table:
        table = limits if isinstance(limits, Table) else Table(limits)
        self.define(module, name, table)
        return table

    def define_global(self, module: str, name: str, globaltype: GlobalType,
                      value: int | float) -> GlobalInstance:
        box = GlobalInstance(globaltype, value)
        self.define(module, name, box)
        return box

    def resolve(self, module: str, name: str) -> object:
        try:
            return self._entries[(module, name)]
        except KeyError:
            raise WasmError(f"unresolved import {module}.{name}") from None
