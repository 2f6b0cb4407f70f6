"""Running one export: the path ``repro run``, ``repro replay`` and the
serve worker share.

Each caller loads its module with :func:`repro.wasm.load_module`, picks
the analysis with :func:`analysis_for` (None for a plain run), builds an
:class:`~repro.core.AnalysisSession` and invokes the entry point. Its
outcome becomes one dict (:func:`run_response`): the service sends it
over the wire, and ``repro run`` prints local and served runs from it
alike.
"""

from __future__ import annotations

from .analyses import (BasicBlockProfiler, BranchCoverage, CallGraphAnalysis,
                       CryptominerDetector, InstructionCoverage,
                       InstructionMixAnalysis, MemoryTracer)
from .core import Analysis, AnalysisSession
from .interp import Linker
from .interp.snapshot import encode_values
from .wasm.errors import ProcExit, WasmError, error_response
from .wasm.types import F64, I32, FuncType

ANALYSES = {
    "mix": InstructionMixAnalysis,
    "blocks": BasicBlockProfiler,
    "coverage": InstructionCoverage,
    "branches": BranchCoverage,
    "callgraph": CallGraphAnalysis,
    "cryptominer": CryptominerDetector,
    "memtrace": MemoryTracer,
    "none": Analysis,
}


def analysis_for(name: str, instrument: bool) -> Analysis | None:
    """The analysis a run asks for, or None for a plain run.

    ``"none"`` with ``instrument`` set is the base :class:`Analysis`:
    the module is instrumented, and every hook does nothing.
    """
    if name == "none" and not instrument:
        return None
    return ANALYSES[name]()


def default_linker(printed: list | None = None) -> Linker:
    """Host imports that MiniC-compiled programs conventionally use."""
    sink = printed if printed is not None else []
    linker = Linker()
    linker.define_function("env", "print_f64", FuncType((F64,), ()),
                           lambda args: sink.append(args[0]))
    linker.define_function("env", "print_i32", FuncType((I32,), ()),
                           lambda args: sink.append(args[0]))
    return linker


def analysis_report(analysis: Analysis) -> str:
    """What ``repro run`` prints for an analysis after a successful run."""
    if isinstance(analysis, InstructionMixAnalysis):
        return analysis.report() + "\n"
    if isinstance(analysis, CryptominerDetector):
        return (f"signature fraction: {analysis.signature_fraction:.2%}; "
                f"suspicious: {analysis.is_suspicious()}\n")
    if isinstance(analysis, MemoryTracer):
        return (f"{len(analysis.trace)} accesses, "
                f"{analysis.unique_addresses()} unique addresses\n")
    if isinstance(analysis, BasicBlockProfiler):
        return "".join(f"  {kind:<9} {loc}: {count}\n"
                       for (loc, kind), count in analysis.hottest(10))
    return ""


def run_response(session: AnalysisSession, error: WasmError | None, results,
                 printed: list, wasi=None) -> dict:
    """One finished invocation as the dict the service answers with.

    A WASI ``proc_exit(0)`` is a clean exit: ``ok`` with no results and
    ``graceful_exit`` set.
    """
    graceful = isinstance(error, ProcExit) and error.code == 0
    if error is not None and not graceful:
        response = error_response(error)
    else:
        response = {"ok": True, "results": encode_values(results or []),
                    "printed": encode_values(printed),
                    "usage": session.resource_usage().as_dict()}
        if graceful:
            response["graceful_exit"] = True
        if session.analysis is not None:
            response["analysis_report"] = analysis_report(session.analysis)
    if wasi is not None:
        response["stdout"] = wasi.stdout_bytes()
        response["stderr"] = wasi.stderr_bytes()
        response["wasi_usage"] = wasi.usage()
    return response
