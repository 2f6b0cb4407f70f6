"""Resource governance for the interpreter: fuel, deadlines, and caps.

Instrumented binaries must "behave as the original program" (paper §2.4,
§4.3) — but a host serving untrusted modules also needs the inverse
guarantee: a misbehaving *guest* (or a heavyweight analysis driving one)
cannot hang or exhaust the host. This module provides the configuration and
accounting for that contract:

* :class:`ResourceLimits` — a bundle of bounds plumbed through
  :class:`~repro.interp.machine.Machine`,
  :class:`~repro.core.session.AnalysisSession`, and the CLI;
* :class:`Meter` — the per-machine accountant. Both engines charge it on
  **back-edges and calls** (every taken ``br``/``br_if``/``br_table`` plus
  every function call), the only points unbounded execution must pass
  through, so straight-line code pays nothing and the disabled-limits path
  stays zero-cost (machines without limits never construct a meter and the
  pre-decoded engine runs its unmetered loop);
* :class:`ResourceUsage` — the summary reported after execution.

Fuel and the deadline are *per top-level invocation*: the meter re-arms
whenever the machine's call depth returns to zero, so after a
:class:`~repro.wasm.errors.FuelExhausted` or
:class:`~repro.wasm.errors.DeadlineExceeded` trap a fresh ``invoke`` on the
same machine gets a fresh budget (crash-only, trap-clean semantics).
Cumulative totals are kept for :class:`ResourceUsage`.

Fuel accounting is engine-consistent: the legacy and pre-decoded loops
charge at the same events, so an uninstrumented program exhausts the same
fuel budget at the same point on either engine. (Instrumentation adds hook
calls, which are charged on the host-call path but not at fused
``OP_HOOK`` sites, so fuel parity is only guaranteed for uninstrumented
modules.)
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..wasm.errors import DeadlineExceeded, ExhaustionError, FuelExhausted

#: How many metered events pass between wall-clock reads. Back-edges in a
#: tight loop arrive every few hundred nanoseconds; reading the clock on
#: each would dominate the metered path. 128 bounds the staleness of the
#: deadline check to well under a millisecond of guest progress.
DEADLINE_CHECK_INTERVAL = 128


@dataclass(frozen=True)
class ResourceLimits:
    """Execution bounds for one :class:`~repro.interp.machine.Machine`.

    Every field is optional; ``None`` disables that bound. A machine
    constructed without limits (or with an all-``None`` limits object whose
    only effect is ``max_call_depth``/``max_memory_pages``) runs the
    unmetered fast path.
    """

    #: Budget of metered events (taken branches + calls) per top-level
    #: invocation. Exhaustion raises :class:`FuelExhausted`.
    fuel: int | None = None
    #: Wall-clock budget in seconds per top-level invocation. Exceeding it
    #: raises :class:`DeadlineExceeded` (checked on calls and every
    #: :data:`DEADLINE_CHECK_INTERVAL` metered events).
    deadline_seconds: float | None = None
    #: Hard cap on linear memory, in 64 KiB pages. ``memory.grow`` past it
    #: returns -1 (never raises); instantiating a module whose *initial*
    #: size already exceeds it raises :class:`ResourceExhausted`.
    max_memory_pages: int | None = None
    #: Maximum Wasm call nesting; overrides the machine default when set.
    max_call_depth: int | None = None
    #: Maximum operand-stack height, checked at metered events. Exceeding
    #: it raises :class:`ExhaustionError` (a trap, like call-stack
    #: exhaustion).
    max_value_stack: int | None = None
    #: Meter without bounding: construct the meter (so fuel spent and peak
    #: depth are *measured*) even when no limit is set. Used by
    #: ``repro run -v`` and the telemetry layer to report resource usage
    #: for otherwise-unlimited runs.
    observe: bool = False
    #: Maximum simultaneously open WASI file descriptors (stdio and the
    #: preopen excluded). Exceeding it degrades gracefully: the opening
    #: syscall returns ``EMFILE`` to the guest.
    max_open_fds: int | None = None
    #: Maximum size in bytes of any single file in the WASI in-memory FS.
    #: A write growing a file past it is truncated to the boundary (short
    #: write), then ``ENOSPC``.
    max_file_bytes: int | None = None
    #: Maximum total bytes across all files in the WASI FS; same graceful
    #: short-write-then-``ENOSPC`` degradation as ``max_file_bytes``.
    max_fs_bytes: int | None = None
    #: Budget of WASI syscalls per machine. This is the *hard* tier:
    #: exhaustion raises :class:`~repro.wasm.errors.WasiExhausted`
    #: instead of an errno — a guest that ignores graceful degradation
    #: cannot spin on the host boundary forever.
    max_syscalls: int | None = None

    @property
    def metered(self) -> bool:
        """Whether any bound (or observation) requires in-loop metering."""
        return (self.fuel is not None or self.deadline_seconds is not None
                or self.max_value_stack is not None or self.observe)


@dataclass
class ResourceUsage:
    """Summary of resources consumed by a machine (or session).

    ``fuel_spent`` and ``peak_depth`` are only populated on metered
    machines (limits with fuel/deadline/value-stack bounds); ``peak_pages``
    is always reported (WebAssembly memory never shrinks, so the current
    size *is* the peak). ``hook_faults`` is filled in by
    :meth:`~repro.core.session.AnalysisSession.resource_usage` from the
    runtime's containment records.
    """

    fuel_spent: int = 0
    peak_pages: int = 0
    peak_depth: int = 0
    hook_faults: int = 0

    def as_dict(self) -> dict:
        return {
            "fuel_spent": self.fuel_spent,
            "peak_pages": self.peak_pages,
            "peak_depth": self.peak_depth,
            "hook_faults": self.hook_faults,
        }

    def record_to(self, registry) -> None:
        """Fold this summary into a metrics registry as gauges."""
        registry.gauge("repro_fuel_spent",
                       help="metered events charged (branches + calls)").set(
            self.fuel_spent)
        registry.gauge("repro_peak_memory_pages",
                       help="largest linear memory instantiated").set(
            self.peak_pages)
        registry.gauge("repro_peak_call_depth",
                       help="deepest Wasm call nesting observed").set(
            self.peak_depth)
        registry.gauge("repro_hook_faults",
                       help="contained hook faults").set(self.hook_faults)

    def summary(self) -> str:
        """One-line human-readable form (``repro run -v``)."""
        parts = [f"fuel_spent={self.fuel_spent}",
                 f"peak_pages={self.peak_pages}",
                 f"peak_depth={self.peak_depth}"]
        if self.hook_faults:
            parts.append(f"hook_faults={self.hook_faults}")
        return "resource usage: " + " ".join(parts)


class Meter:
    """Per-machine accountant for fuel, deadline, and value-stack bounds.

    The engines call :meth:`branch` on every taken branch and
    :meth:`enter_call` on every function call; both are kept tiny because
    they sit on metered hot paths. :meth:`arm` re-arms the per-invocation
    budgets and is called by the machine when depth returns to zero.
    """

    __slots__ = ("limits", "fuel_left", "deadline", "max_stack",
                 "fuel_spent_total", "peak_depth", "_tick", "_clock")

    def __init__(self, limits: ResourceLimits, clock=time.monotonic):
        self.limits = limits
        self._clock = clock
        self.max_stack = limits.max_value_stack
        self.fuel_spent_total = 0
        self.peak_depth = 0
        self._tick = 0
        self.fuel_left: int | None = None
        self.deadline: float | None = None
        self.arm()

    def arm(self) -> None:
        """Reset the per-invocation fuel and deadline budgets."""
        self.fuel_left = self.limits.fuel
        if self.limits.deadline_seconds is not None:
            self.deadline = self._clock() + self.limits.deadline_seconds
        else:
            self.deadline = None

    # -- charge points -------------------------------------------------------

    def branch(self, stack_len: int) -> None:
        """Charge one taken branch (the loop back-edge charge point)."""
        fuel = self.fuel_left
        if fuel is not None:
            if fuel <= 0:
                raise FuelExhausted(
                    f"fuel exhausted after {self.limits.fuel} metered events")
            self.fuel_left = fuel - 1
        self.fuel_spent_total += 1
        if self.max_stack is not None and stack_len > self.max_stack:
            raise ExhaustionError(
                f"value stack exceeded {self.max_stack} entries "
                f"({stack_len} live)")
        if self.deadline is not None:
            self._tick += 1
            if not self._tick % DEADLINE_CHECK_INTERVAL and \
                    self._clock() > self.deadline:
                raise DeadlineExceeded(
                    f"deadline of {self.limits.deadline_seconds}s exceeded")

    # -- state capture (repro.interp.snapshot) --------------------------------

    def residue(self) -> dict:
        """Cumulative accounting state that survives invocation boundaries.

        The per-invocation budgets (``fuel_left``/``deadline``) re-arm at
        depth zero and are *not* part of a snapshot; the cumulative totals
        and the deadline-check phase (``tick``) are, so a restored machine
        reports continuous :class:`ResourceUsage` and replays its clock
        reads at the same events.
        """
        return {"fuel_spent": self.fuel_spent_total,
                "peak_depth": self.peak_depth,
                "tick": self._tick}

    def restore_residue(self, residue: dict) -> None:
        """Restore the cumulative accounting captured by :meth:`residue`."""
        self.fuel_spent_total = int(residue.get("fuel_spent", 0))
        self.peak_depth = int(residue.get("peak_depth", 0))
        self._tick = int(residue.get("tick", 0))

    def enter_call(self, depth: int) -> None:
        """Charge one function call; checks the deadline unconditionally."""
        if depth > self.peak_depth:
            self.peak_depth = depth
        fuel = self.fuel_left
        if fuel is not None:
            if fuel <= 0:
                raise FuelExhausted(
                    f"fuel exhausted after {self.limits.fuel} metered events")
            self.fuel_left = fuel - 1
        self.fuel_spent_total += 1
        if self.deadline is not None and self._clock() > self.deadline:
            raise DeadlineExceeded(
                f"deadline of {self.limits.deadline_seconds}s exceeded")
