"""Low-level hooks and on-demand monomorphization (paper §2.4.3).

WebAssembly functions must declare a fixed, monomorphic type, while many
instructions are polymorphic. Wasabi therefore generates a *monomorphic
low-level hook* per (instruction kind, concrete type) combination — but only
on demand, for combinations that actually occur in the instrumented binary.
The registry below is exactly the paper's "map of already generated
low-level hooks". The parallel Rust implementation guards it with a lock;
ours is only filled after all functions are instrumented (each function,
possibly on a worker thread, first collects the hooks it needs), in
function order, so a plain dict suffices and hook numbering does not
depend on thread scheduling.

Because i64 values cannot cross the host boundary (§2.4.6), every i64
parameter of a hook is *split* into two i32 parameters (low, high); the
runtime re-joins them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..interp.predecode import HOOK_IMPORT_MODULE
from ..wasm.types import FuncType, I32, I64, ValType

#: Import namespace used for generated hooks in the instrumented module.
#: Aliased from the engine's constant: the pre-decoded interpreter
#: recognizes calls into this namespace and fuses them into pre-bound
#: ``OP_HOOK`` dispatchers, so the two names must agree.
HOOK_MODULE = HOOK_IMPORT_MODULE

#: Hook kinds as they appear in low-level hook keys/names.
HookKey = tuple


@dataclass(frozen=True)
class HookSpec:
    """One generated low-level hook.

    ``kind`` names the instruction class (``const``, ``drop``, ``call_pre``,
    ``begin`` …); ``payload`` the monomorphization key (value types,
    mnemonic, or block kind); ``wasm_params`` the *declared* WebAssembly
    parameter types after i64 splitting, including the two trailing i32
    location parameters; ``value_types`` the pre-split logical parameter
    types the runtime re-assembles.
    """

    index: int
    kind: str
    payload: tuple
    wasm_params: tuple[ValType, ...]
    value_types: tuple[ValType, ...]

    @property
    def name(self) -> str:
        """Stable import name, e.g. ``call_pre_i32_f64`` or ``unary_f32.abs``."""
        parts = [self.kind]
        for item in self.payload:
            if isinstance(item, ValType):
                parts.append(item.value)
            else:
                parts.append(str(item))
        return "_".join(parts).replace("/", "_").replace(".", "_") or self.kind

    @property
    def functype(self) -> FuncType:
        return FuncType(self.wasm_params, ())


def split_i64(types: tuple[ValType, ...]) -> tuple[ValType, ...]:
    """Replace every i64 by an (i32, i32) pair — the host-boundary split."""
    out: list[ValType] = []
    for valtype in types:
        if valtype is I64:
            out.extend((I32, I32))
        else:
            out.append(valtype)
    return tuple(out)


class HookRegistry:
    """On-demand monomorphization: hooks are created the first time the
    instrumenter needs them, and reused afterwards."""

    def __init__(self, with_locations: bool = True):
        self._by_key: dict[HookKey, HookSpec] = {}
        self._hooks: list[HookSpec] = []
        self.with_locations = with_locations

    def __len__(self) -> int:
        return len(self._hooks)

    @property
    def hooks(self) -> list[HookSpec]:
        return list(self._hooks)

    def get_or_create(self, kind: str, payload: tuple,
                      value_types: tuple[ValType, ...]) -> HookSpec:
        """Return the hook for ``(kind, payload)``, creating it if new.

        ``value_types`` are the logical (pre-split) hook arguments,
        excluding the two location parameters that every hook receives.
        """
        key = (kind, payload)
        spec = self._by_key.get(key)
        if spec is None:
            wasm_params = split_i64(value_types)
            if self.with_locations:
                wasm_params += (I32, I32)  # (func, instr) location
            spec = HookSpec(index=len(self._hooks), kind=kind, payload=payload,
                            wasm_params=wasm_params, value_types=value_types)
            self._by_key[key] = spec
            self._hooks.append(spec)
        return spec


def eager_hook_count(max_call_params: int) -> int:
    """How many call-related hooks *eager* monomorphization would need.

    The paper (§2.4.3, §4.5) observes that eagerly generating hooks for all
    calls with up to N parameters requires ``4**N`` variants per call hook
    kind — e.g. 4**10 ≈ 1M, and 4**22 ≈ 1.7e13 for the Unreal Engine's
    widest call. This helper reproduces that arithmetic for the ablation
    benchmark.
    """
    return sum(4 ** n for n in range(max_call_params + 1))
