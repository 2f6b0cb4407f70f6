"""Error hierarchy for the WebAssembly toolkit.

Mirrors the error classes a conforming implementation distinguishes:
malformed binaries (decode errors), invalid modules (validation errors),
and runtime traps (raised by the interpreter in :mod:`repro.interp`).
:func:`exit_status` maps each class to the stable exit status every CLI
verb and every service response reports.
"""

from __future__ import annotations


class WasmError(Exception):
    """Base class for all errors raised by the WebAssembly toolkit."""


class DecodeError(WasmError):
    """The binary is malformed and cannot be decoded."""

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at byte offset {offset:#x})"
        super().__init__(message)


class EncodeError(WasmError):
    """The module cannot be represented in the binary format."""


class ValidationError(WasmError):
    """The module is well-formed but does not type check."""

    def __init__(self, message: str, func_idx: int | None = None, instr_idx: int | None = None):
        self.func_idx = func_idx
        self.instr_idx = instr_idx
        where = ""
        if func_idx is not None:
            where = f" (in function {func_idx}"
            where += f", instruction {instr_idx})" if instr_idx is not None else ")"
        super().__init__(message + where)


class Trap(WasmError):
    """A WebAssembly trap: execution aborted with a runtime error."""


class ExhaustionError(Trap):
    """Call stack exhaustion (the spec treats this as a trap-like abort)."""


class ResourceExhausted(Trap):
    """A configured :class:`repro.interp.limits.ResourceLimits` bound was hit.

    Raised as a trap so resource exhaustion aborts the current invocation
    exactly like any other trap: the machine unwinds cleanly and a fresh
    ``invoke`` on the same machine/session works afterwards.
    """


class FuelExhausted(ResourceExhausted):
    """The fuel budget (metered back-edges and calls) ran out."""


class WasiExhausted(ResourceExhausted):
    """A WASI resource bound hit its *hard* escalation tier.

    Graceful degradation surfaces governance limits to the guest as WASI
    errnos (``ENOSPC``/``EMFILE``); this class is the escalation tier —
    the syscall-count budget ran out, or an injected fault was configured
    with ``escalate=True``. Raised as a trap (via
    :class:`ResourceExhausted`) so the invocation aborts cleanly and a
    crash bundle can capture it.
    """


class ProcExit(Trap):
    """The guest called WASI ``proc_exit``.

    Carries the exit ``code``; a zero code is a *successful* termination
    that the CLI normalizes to a clean exit rather than a trap. The
    constructor accepts either the integer code or a previously formatted
    message (``"proc_exit(N)"``) so replay's error decoding — which passes
    the recorded message string — round-trips the code.
    """

    def __init__(self, code: "int | str" = 0):
        if isinstance(code, str):
            message = code
            digits = code[code.find("(") + 1:code.rfind(")")]
            try:
                self.code = int(digits)
            except ValueError:
                self.code = 1
        else:
            self.code = int(code)
            message = f"proc_exit({self.code})"
        super().__init__(message)


class DeadlineExceeded(ResourceExhausted):
    """The wall-clock deadline for one top-level invocation passed."""


class SnapshotError(WasmError):
    """A state snapshot cannot be restored into (or verified against) an
    instance — schema mismatch, shape mismatch (globals/table/memory not
    matching the module), or a content-digest failure after restore."""


class ReplayDivergence(WasmError):
    """Replayed execution diverged from the recorded log.

    Raised by the replay layer when the live run requests a host-boundary
    event that does not match the next recorded entry (different host
    function, different arguments, a hook fault that was not recorded, …)
    or when recorded entries are left unconsumed at verification time.
    ``index`` is the position in the recorded log (per entry kind) and
    ``location`` carries the guest :class:`~repro.core.analysis.Location`
    when the diverging event has one (hook faults).
    """

    def __init__(self, message: str, index: int | None = None,
                 location=None):
        self.index = index
        self.location = location
        if index is not None:
            message = f"{message} (log entry #{index})"
        if location is not None:
            message = f"{message} at {location}"
        super().__init__(message)


class ServiceError(WasmError):
    """Errors raised by the supervised execution service (:mod:`repro.serve`)."""


class WorkerKilled(ServiceError):
    """The supervisor hard-killed the worker running a request.

    ``kill_class`` is the supervision taxonomy: ``"timeout"`` (the request
    exceeded its hard wall-clock deadline), ``"oom"`` (the worker's RSS
    crossed the configured ceiling), or ``"crash"`` (the worker process
    died unexpectedly mid-request). A clean guest trap is *not* a kill —
    it comes back as an ordinary error response.
    """

    def __init__(self, message: str, kill_class: str = "crash"):
        self.kill_class = kill_class
        super().__init__(message)


class BreakerOpen(ServiceError):
    """The circuit breaker quarantined this input.

    An input whose requests killed a worker twice is refused fail-fast:
    no worker is risked on it again for the pool's lifetime.
    """


class ServiceUnavailable(ServiceError):
    """The service daemon cannot be reached (after bounded client retries)."""


class AnalysisError(WasmError):
    """An analysis hook raised during dispatch.

    Wraps the original exception (available as ``__cause__``) together with
    the hook name and the :class:`~repro.core.analysis.Location` of the
    instruction whose event was being dispatched, so a misbehaving analysis
    is reported against guest code rather than as a bare Python traceback
    from deep inside the engine.
    """

    def __init__(self, message: str, hook_name: str | None = None,
                 location=None):
        self.hook_name = hook_name
        self.location = location
        super().__init__(message)


class AnalysisAbort(AnalysisError, Trap):
    """A hook fault under the ``abort`` policy: the guest aborts as a trap.

    Subclasses both :class:`AnalysisError` (it carries the faulting hook and
    location) and :class:`Trap` (the guest sees clean trap semantics, so
    machine state stays consistent and further invokes work).
    """


# -- exit-status taxonomy (documented in README, pinned by tests/test_cli.py) --

EXIT_OK = 0
#: Generic failure: any WasmError outside the specific classes below.
EXIT_FAILURE = 1
EXIT_USAGE = 2
#: The guest trapped (unreachable, OOB access, stack exhaustion, …).
EXIT_TRAP = 3
#: A run aborted by a ResourceLimits bound (fuel/deadline/memory).
EXIT_RESOURCE_EXHAUSTED = 4
#: The module is malformed or invalid (decode/validate/encode stage).
EXIT_MALFORMED = 5
#: An analysis hook raised under the ``raise``/``abort`` policy.
EXIT_ANALYSIS_FAULT = 6
#: A replayed run diverged from its recorded log.
EXIT_REPLAY_DIVERGENCE = 7
#: The service supervisor killed the request (hard timeout/OOM/crash).
EXIT_WORKER_KILLED = 8
#: The service circuit breaker quarantined this input.
EXIT_BREAKER_OPEN = 9


def exit_status(exc: BaseException) -> int:
    """Map an error to its exit status (and the service's ``status``).

    Order matters: :class:`ReplayDivergence` beats everything (a divergent
    replay may surface any error class); :class:`AnalysisError` is checked
    before :class:`Trap` because :class:`AnalysisAbort` subclasses both
    and the *cause* is the analysis; :class:`ResourceExhausted` is a Trap
    subclass and keeps its own status. The service statuses are disjoint
    from the rest (:class:`ServiceError` subclasses only ``WasmError``);
    :class:`ServiceUnavailable` stays a generic failure, as does any
    exception that is not a ``WasmError``.
    """
    if isinstance(exc, BreakerOpen):
        return EXIT_BREAKER_OPEN
    if isinstance(exc, WorkerKilled):
        return EXIT_WORKER_KILLED
    if isinstance(exc, ReplayDivergence):
        return EXIT_REPLAY_DIVERGENCE
    if isinstance(exc, AnalysisError):
        return EXIT_ANALYSIS_FAULT
    if isinstance(exc, ResourceExhausted):
        return EXIT_RESOURCE_EXHAUSTED
    if isinstance(exc, Trap):
        return EXIT_TRAP
    if isinstance(exc, (DecodeError, ValidationError, EncodeError)):
        return EXIT_MALFORMED
    return EXIT_FAILURE


def error_info(exc: BaseException) -> dict:
    """An error as a record: class, message, and (when the error carries
    them) the guest location, the faulting hook and the kill class."""
    info = {"type": type(exc).__name__, "message": str(exc)}
    location = getattr(exc, "location", None)
    if location is not None:
        info["location"] = str(location)
    for key, attr in (("hook", "hook_name"), ("kill_class", "kill_class")):
        value = getattr(exc, attr, None)
        if value is not None:
            info[key] = value
    return info


def error_response(exc: BaseException) -> dict:
    """The service's answer to a failed request, with its exit status."""
    response = {"ok": False, "status": exit_status(exc),
                "error": error_info(exc)}
    bundle = getattr(exc, "bundle", None)
    if bundle:
        response["bundle"] = bundle
    return response
