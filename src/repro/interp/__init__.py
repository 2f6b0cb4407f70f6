"""A WebAssembly interpreter with exact MVP semantics.

Stands in for the browser engine the paper runs instrumented binaries on.
Two engines share the same observable behaviour: the default pre-decoded
threaded loop (see :mod:`repro.interp.predecode`) and the legacy
string-dispatch loop (``Machine(predecode=False)`` / ``REPRO_PREDECODE=0``),
kept for differential testing.
"""

from .host import GlobalInstance, HostFunction, Linker
from .limits import (DEADLINE_CHECK_INTERVAL, Meter, ResourceLimits,
                     ResourceUsage)
from .machine import (DEFAULT_MAX_CALL_DEPTH, Instance, Machine, WasmFunction,
                      bind_hook_sites, instantiate, predecode_default)
from .memory import Memory
from .predecode import (HOOK_IMPORT_MODULE, DecodedFunction, cached_decode,
                        decode_function)
from .replay import (BUNDLE_SCHEMA, REPLAY_SCHEMA, CrashBundle, Recorder,
                     Replayer, load_crash_bundle, load_log, replay_linker,
                     write_crash_bundle)
from .snapshot import (SNAPSHOT_SCHEMA, Snapshot, diff_instance,
                       restore_instance, snapshot_instance)
from .table import Table

__all__ = [
    "BUNDLE_SCHEMA", "CrashBundle", "DEADLINE_CHECK_INTERVAL",
    "DEFAULT_MAX_CALL_DEPTH", "DecodedFunction", "GlobalInstance",
    "HOOK_IMPORT_MODULE", "HostFunction", "Instance", "Linker", "Machine",
    "Memory", "Meter", "REPLAY_SCHEMA", "Recorder", "Replayer",
    "ResourceLimits", "ResourceUsage", "SNAPSHOT_SCHEMA", "Snapshot", "Table",
    "WasmFunction", "bind_hook_sites", "cached_decode", "decode_function",
    "diff_instance", "instantiate", "load_crash_bundle", "load_log",
    "predecode_default", "replay_linker", "restore_instance",
    "snapshot_instance", "write_crash_bundle",
]
