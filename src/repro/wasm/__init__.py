"""A self-contained WebAssembly (MVP) toolkit.

Provides the substrate the Wasabi reproduction is built on: module
representation, binary encoding/decoding, validation, and programmatic
construction. Execution lives in :mod:`repro.interp`.
"""

from .builder import FunctionBuilder, ModuleBuilder
from .decoder import decode_module
from .encoder import encode_module
from .errors import (AnalysisAbort, AnalysisError, BreakerOpen,
                     DeadlineExceeded, DecodeError, EncodeError,
                     ExhaustionError, FuelExhausted, ReplayDivergence,
                     ResourceExhausted, ServiceError, ServiceUnavailable,
                     SnapshotError, Trap, ValidationError, WasmError,
                     WorkerKilled)
from .module import (BrTable, CustomSection, DataSegment, ElemSegment, Export,
                     Function, Global, Import, Instr, MemArg, Module)
from .text import format_body, format_function, format_instr, format_module
from .types import (F32, F64, I32, I64, PAGE_SIZE, FuncType, GlobalType,
                    Limits, MemoryType, TableType, ValType)
from .validation import (ExprValidator, load_module, validate_function,
                         validate_module)
from .wat import WatError, parse_wat

__all__ = [
    "AnalysisAbort", "AnalysisError", "BrTable", "BreakerOpen",
    "CustomSection",
    "DataSegment", "DeadlineExceeded", "DecodeError", "ElemSegment",
    "EncodeError", "ExhaustionError", "Export", "ExprValidator", "F32", "F64",
    "FuelExhausted", "FuncType", "Function", "FunctionBuilder", "Global",
    "GlobalType", "I32", "I64", "Import", "Instr", "Limits", "MemArg",
    "MemoryType", "Module", "ModuleBuilder", "PAGE_SIZE", "ReplayDivergence",
    "ResourceExhausted", "ServiceError", "ServiceUnavailable",
    "SnapshotError", "TableType", "Trap", "ValType",
    "ValidationError", "WasmError", "WorkerKilled",
    "WatError", "decode_module", "encode_module", "format_body",
    "format_function", "format_instr", "format_module", "load_module",
    "parse_wat",
    "validate_function", "validate_module",
]
