"""The WASI preview1 subset host module: syscalls, replay, governance.

:class:`WasiContext` owns everything one guest can see across the host
boundary — argv/environ, a deterministic clock, seeded randomness, the
in-memory FS (:mod:`repro.wasi.fs`), and the fault plane
(:mod:`repro.wasi.faults`) — and registers each syscall as an ordinary
:class:`~repro.interp.host.HostFunction` under
``wasi_snapshot_preview1``. Because the syscalls go through the same
linker/host-call machinery as any ``env`` import, both engines (and the
instrumented path) see byte-identical behavior for free.

**Replay protocol.** WASI syscalls have memory side effects, so they are
excluded from the machine's generic ``host_call`` recording (the
``is_wasi`` flag) and route themselves through the replay layer's
``wasi_call`` kind instead: every syscall's outcome is a pair
``(values, writes)`` where ``writes`` is the list of ``(addr, bytes)``
linear-memory stores the call performs. Live runs compute the pair
(recording it when a :class:`~repro.interp.replay.Recorder` is attached);
replayed runs receive the recorded pair without touching the FS, the
fault plane, or the clock — then both paths apply the writes through the
same code. That is what makes crash bundles from I/O workloads replay
bit-identically cross-engine, injected faults included.

**Failure semantics.** Guests only ever see well-formed WASI errnos: an
out-of-bounds guest pointer surfaces as ``EFAULT``, injected faults as
their configured errno / short transfer / clock skew, and governance
limits as ``ENOSPC``/``EMFILE``. The only syscall outcomes that abort the
invocation are real traps by design: ``proc_exit`` (a clean
:class:`~repro.wasm.errors.ProcExit`), an exhausted
``max_syscalls`` budget, and an ``escalate=True`` fault (both
:class:`~repro.wasm.errors.WasiExhausted`).
"""

from __future__ import annotations

import base64
import random
import struct

from ..interp.host import HostFunction, Linker
from ..wasm.errors import (ProcExit, ResourceExhausted, Trap, WasiExhausted,
                           WasmError)
from ..wasm.types import FuncType, ValType
from .abi import (CLOCKID_MONOTONIC, CLOCKID_REALTIME, ERRNO_BADF,
                  ERRNO_FAULT, ERRNO_INVAL, ERRNO_NOTCAPABLE, ERRNO_SUCCESS,
                  PREOPEN_FD, WASI_MODULE, errno_name)
from .faults import FaultPlane
from .fs import WasiFS

I32 = ValType.I32
I64 = ValType.I64

#: Fixed advance of the deterministic clock per ``clock_time_get`` call.
DEFAULT_CLOCK_STEP_NS = 1_000_000
#: Deterministic epoch offset separating REALTIME from MONOTONIC readings.
REALTIME_EPOCH_NS = 1_700_000_000 * 1_000_000_000

#: ``name -> (param valtypes, result valtypes)`` for the whole subset.
SYSCALL_SIGNATURES: dict[str, tuple[tuple, tuple]] = {
    "args_sizes_get": ((I32, I32), (I32,)),
    "args_get": ((I32, I32), (I32,)),
    "environ_sizes_get": ((I32, I32), (I32,)),
    "environ_get": ((I32, I32), (I32,)),
    "clock_time_get": ((I32, I64, I32), (I32,)),
    "fd_read": ((I32, I32, I32, I32), (I32,)),
    "fd_write": ((I32, I32, I32, I32), (I32,)),
    "fd_seek": ((I32, I64, I32, I32), (I32,)),
    "fd_close": ((I32,), (I32,)),
    "fd_fdstat_get": ((I32, I32), (I32,)),
    "path_open": ((I32, I32, I32, I32, I32, I64, I64, I32, I32), (I32,)),
    "random_get": ((I32, I32), (I32,)),
    "proc_exit": ((I32,), ()),
}


def _signed64(value: int) -> int:
    """Canonical-unsigned i64 → Python signed int (for seek offsets)."""
    return value - (1 << 64) if value >= (1 << 63) else value


class WasiContext:
    """One guest's view of the host: argv/env, clock, RNG, FS, faults.

    Construct, :meth:`register` into the linker before instantiation,
    :meth:`bind_memory` after (syscalls need the instance's linear
    memory), then invoke as usual. ``replay`` takes the machine's
    Recorder/Replayer; ``limits`` the machine's
    :class:`~repro.interp.limits.ResourceLimits` (only the WASI
    governance fields are read here).
    """

    def __init__(self, args: list[str] | None = None,
                 env: dict[str, str] | None = None,
                 stdin: bytes = b"",
                 files: dict[str, bytes] | None = None,
                 fs: WasiFS | None = None,
                 faults: FaultPlane | None = None,
                 limits=None, telemetry=None, replay=None,
                 clock_base_ns: int = 0,
                 clock_step_ns: int = DEFAULT_CLOCK_STEP_NS,
                 random_seed: int = 0):
        self.args = list(args or [])
        self.env = dict(env or {})
        self._stdin = bytes(stdin)
        self._init_files = {k: bytes(v) for k, v in (files or {}).items()}
        if fs is None:
            fs = WasiFS(
                files=self._init_files, stdin=self._stdin,
                max_open_fds=getattr(limits, "max_open_fds", None),
                max_file_bytes=getattr(limits, "max_file_bytes", None),
                max_fs_bytes=getattr(limits, "max_fs_bytes", None))
        self.fs = fs
        self.faults = faults
        self._limits = limits
        self._telemetry = telemetry
        self._replay = replay
        self._memory = None
        self.clock_base_ns = clock_base_ns
        self.clock_step_ns = clock_step_ns
        self.random_seed = random_seed
        self._random = random.Random(f"wasi-random:{random_seed}")
        self._clock_skew_ns = 0
        self._counts: dict[str, int] = {}
        self.total_syscalls = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self._hists: dict = {}
        self._counters: dict = {}

    # -- wiring ---------------------------------------------------------------

    def register(self, linker: Linker) -> Linker:
        """Define every subset syscall on ``linker`` (is_wasi-flagged)."""
        impls = {
            "args_sizes_get": self._args_sizes_get,
            "args_get": self._args_get,
            "environ_sizes_get": self._environ_sizes_get,
            "environ_get": self._environ_get,
            "clock_time_get": self._clock_time_get,
            "fd_read": self._fd_read,
            "fd_write": self._fd_write,
            "fd_seek": self._fd_seek,
            "fd_close": self._fd_close,
            "fd_fdstat_get": self._fd_fdstat_get,
            "path_open": self._path_open,
            "random_get": self._random_get,
            "proc_exit": self._proc_exit,
        }
        for name, (params, results) in SYSCALL_SIGNATURES.items():
            functype = FuncType(list(params), list(results))

            def fn(call_args, _name=name, _impl=impls[name]):
                return self._call(_name, call_args, _impl)

            host_fn = HostFunction(functype, fn, f"{WASI_MODULE}.{name}")
            host_fn.is_wasi = True
            linker.define(WASI_MODULE, name, host_fn)
        return linker

    def bind_memory(self, instance) -> None:
        """Point syscalls at the instantiated guest's linear memory."""
        self._memory = instance.memory

    # -- the syscall spine -----------------------------------------------------

    def _call(self, name: str, args: list, impl):
        tele = self._telemetry
        start = tele.clock() if tele is not None else 0.0
        replay = self._replay
        if replay is not None:
            values, writes = replay.wasi_call(
                name, args, lambda: self._execute(name, args, impl))
        else:
            values, writes = self._execute(name, args, impl)
        memory = self._memory
        if writes:
            if memory is None:
                raise WasmError(
                    f"WASI syscall {name} needs guest memory but "
                    f"WasiContext.bind_memory was never called")
            for addr, data in writes:
                memory.write(addr, data)
        if tele is not None:
            self._observe(name, tele.clock() - start,
                          values[0] if values else ERRNO_SUCCESS)
        return values

    def _execute(self, name: str, args: list, impl):
        """Run one syscall live: budget, fault plane, impl, errno taming.

        Never entered during replay — the Replayer serves the recorded
        ``(values, writes)`` pair instead, so FS/fault/clock state stays
        untouched and the log alone determines the outcome.
        """
        index = self._counts.get(name, 0)
        self._counts[name] = index + 1
        self.total_syscalls += 1
        limits = self._limits
        if limits is not None and limits.max_syscalls is not None and \
                self.total_syscalls > limits.max_syscalls:
            raise WasiExhausted(
                f"WASI syscall budget of {limits.max_syscalls} "
                f"exhausted at {name}")
        fault = None
        if self.faults is not None:
            fault = self.faults.check(name, index)
            if fault is not None:
                if fault.escalate:
                    raise WasiExhausted(
                        f"injected fault escalated at {name}[{index}]")
                if fault.errno is not None and name != "proc_exit":
                    return [fault.errno], []
        try:
            return impl(args, fault)
        except (ResourceExhausted, ProcExit):
            raise
        except Trap:
            # a guest-supplied pointer walked off linear memory: a
            # well-formed EFAULT, never a host trap at the boundary
            return [ERRNO_FAULT], []

    def _observe(self, name: str, elapsed: float, errno: int) -> None:
        tele = self._telemetry
        hist = self._hists.get(name)
        if hist is None:
            hist = tele.wasi_syscall_histogram(name)
            self._hists[name] = hist
        hist.observe(elapsed)
        key = (name, errno)
        counter = self._counters.get(key)
        if counter is None:
            counter = tele.registry.counter(
                "repro_wasi_syscalls_total",
                labels={"syscall": name, "errno": errno_name(errno)},
                help="WASI syscalls by outcome")
            self._counters[key] = counter
        counter.inc()

    # -- memory helpers (live path only) ---------------------------------------

    def _mem_read(self, addr: int, length: int) -> bytes:
        memory = self._memory
        if memory is None:
            raise Trap("no guest memory bound")
        return memory.read(addr, length)

    def _iovec(self, iovs: int, iovs_len: int) -> list[tuple[int, int]]:
        raw = self._mem_read(iovs, 8 * iovs_len)
        return [(int.from_bytes(raw[i * 8:i * 8 + 4], "little"),
                 int.from_bytes(raw[i * 8 + 4:i * 8 + 8], "little"))
                for i in range(iovs_len)]

    @staticmethod
    def _scatter(chunk: bytes, iov: list[tuple[int, int]]) -> list:
        writes = []
        offset = 0
        for ptr, length in iov:
            if offset >= len(chunk):
                break
            part = chunk[offset:offset + length]
            writes.append((ptr, part))
            offset += len(part)
        return writes

    # -- syscall implementations ----------------------------------------------
    # Each returns ``(values, writes)``; memory *reads* happen here (live
    # only), memory *writes* are returned for the spine to apply so the
    # live and replayed paths share one store site.

    def _string_block(self, strings: list[str]) -> tuple[int, bytes]:
        blob = b"".join(s.encode("utf-8") + b"\0" for s in strings)
        return len(strings), blob

    def _args_sizes_get(self, args, fault):
        argc_ptr, size_ptr = args
        count, blob = self._string_block(self.args)
        return [ERRNO_SUCCESS], [(argc_ptr, struct.pack("<I", count)),
                                 (size_ptr, struct.pack("<I", len(blob)))]

    def _args_get(self, args, fault):
        argv_ptr, buf_ptr = args
        return self._copy_strings(self.args, argv_ptr, buf_ptr)

    def _environ_sizes_get(self, args, fault):
        count_ptr, size_ptr = args
        count, blob = self._string_block(
            [f"{k}={v}" for k, v in sorted(self.env.items())])
        return [ERRNO_SUCCESS], [(count_ptr, struct.pack("<I", count)),
                                 (size_ptr, struct.pack("<I", len(blob)))]

    def _environ_get(self, args, fault):
        env_ptr, buf_ptr = args
        strings = [f"{k}={v}" for k, v in sorted(self.env.items())]
        return self._copy_strings(strings, env_ptr, buf_ptr)

    def _copy_strings(self, strings: list[str], array_ptr: int,
                      buf_ptr: int):
        pointers = bytearray()
        blob = bytearray()
        for s in strings:
            pointers += struct.pack("<I", buf_ptr + len(blob))
            blob += s.encode("utf-8") + b"\0"
        writes = []
        if pointers:
            writes.append((array_ptr, bytes(pointers)))
        if blob:
            writes.append((buf_ptr, bytes(blob)))
        return [ERRNO_SUCCESS], writes

    def _clock_time_get(self, args, fault):
        clockid, _precision, time_ptr = args
        if clockid not in (CLOCKID_REALTIME, CLOCKID_MONOTONIC):
            return [ERRNO_INVAL], []
        if fault is not None and fault.clock_skew_ns:
            self._clock_skew_ns += fault.clock_skew_ns
        index = self._counts.get("clock_time_get", 1) - 1
        now = (self.clock_base_ns + index * self.clock_step_ns
               + self._clock_skew_ns)
        if clockid == CLOCKID_REALTIME:
            now += REALTIME_EPOCH_NS
        return [ERRNO_SUCCESS], [(time_ptr, struct.pack("<Q",
                                                        now & (2**64 - 1)))]

    def _fd_read(self, args, fault):
        fd, iovs, iovs_len, nread_ptr = args
        iov = self._iovec(iovs, iovs_len)
        cap = sum(length for _, length in iov)
        if fault is not None and fault.short is not None:
            cap = min(cap, fault.short)
        errno, chunk = self.fs.read(fd, cap)
        if errno:
            return [errno], []
        self.bytes_read += len(chunk)
        writes = self._scatter(chunk, iov)
        writes.append((nread_ptr, struct.pack("<I", len(chunk))))
        return [ERRNO_SUCCESS], writes

    def _fd_write(self, args, fault):
        fd, iovs, iovs_len, nwritten_ptr = args
        iov = self._iovec(iovs, iovs_len)
        data = b"".join(self._mem_read(ptr, length) for ptr, length in iov)
        if fault is not None and fault.short is not None:
            data = data[:fault.short]
        errno, written = self.fs.write(fd, data)
        if errno:
            return [errno], []
        self.bytes_written += written
        return [ERRNO_SUCCESS], [(nwritten_ptr, struct.pack("<I", written))]

    def _fd_seek(self, args, fault):
        fd, offset, whence, newoffset_ptr = args
        errno, pos = self.fs.seek(fd, _signed64(offset), whence)
        if errno:
            return [errno], []
        return [ERRNO_SUCCESS], [(newoffset_ptr,
                                  struct.pack("<Q", pos & (2**64 - 1)))]

    def _fd_close(self, args, fault):
        (fd,) = args
        return [self.fs.close(fd)], []

    def _fd_fdstat_get(self, args, fault):
        fd, buf_ptr = args
        errno, filetype = self.fs.fdstat(fd)
        if errno:
            return [errno], []
        stat = struct.pack("<BxHxxxxQQ", filetype, 0,
                           2**64 - 1, 2**64 - 1)
        return [ERRNO_SUCCESS], [(buf_ptr, stat)]

    def _path_open(self, args, fault):
        (dirfd, _dirflags, path_ptr, path_len, oflags,
         _rights_base, _rights_inh, _fdflags, fd_ptr) = args
        if dirfd != PREOPEN_FD:
            entry = self.fs.lookup(dirfd)
            return [ERRNO_NOTCAPABLE if entry is not None else ERRNO_BADF], []
        try:
            path = self._mem_read(path_ptr, path_len).decode("utf-8")
        except UnicodeDecodeError:
            return [ERRNO_INVAL], []
        errno, fd = self.fs.open_path(path, oflags)
        if errno:
            return [errno], []
        return [ERRNO_SUCCESS], [(fd_ptr, struct.pack("<I", fd))]

    def _random_get(self, args, fault):
        buf_ptr, buf_len = args
        payload = self._random.randbytes(buf_len)
        return [ERRNO_SUCCESS], [(buf_ptr, payload)] if buf_len else []

    def _proc_exit(self, args, fault):
        (code,) = args
        raise ProcExit(code)

    # -- run products ----------------------------------------------------------

    def stdout_bytes(self) -> bytes:
        return bytes(self.fs.stdout)

    def stderr_bytes(self) -> bytes:
        return bytes(self.fs.stderr)

    def usage(self) -> dict:
        """Accounting summary (``repro run -v`` and serve responses)."""
        return {
            "syscalls": self.total_syscalls,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "open_fds": self.fs.open_file_count(),
            "fs_bytes": self.fs.total_bytes(),
            "faults_fired": len(self.faults.fired) if self.faults else 0,
        }

    # -- manifest / wire round-trip -------------------------------------------

    def config(self) -> dict:
        """JSON-able construction record for bundle manifests and serve
        requests; :meth:`from_config` rebuilds an equivalent context."""
        cfg: dict = {
            "args": list(self.args),
            "env": dict(self.env),
            "stdin": base64.b64encode(self._stdin).decode("ascii"),
            "files": {name: base64.b64encode(data).decode("ascii")
                      for name, data in sorted(self._init_files.items())},
            "clock_base_ns": self.clock_base_ns,
            "clock_step_ns": self.clock_step_ns,
            "random_seed": self.random_seed,
        }
        faults = self.faults
        if faults is not None and (faults.seed is not None or
                                   faults.schedule):
            cfg["faults"] = {
                "seed": faults.seed,
                "rate": faults.rate,
                "escalate_rate": faults.escalate_rate,
                "schedule": [
                    {"syscall": syscall, "index": idx,
                     "errno": f.errno, "short": f.short,
                     "clock_skew_ns": f.clock_skew_ns,
                     "escalate": f.escalate}
                    for (syscall, idx), f in sorted(
                        faults.schedule.items())],
            }
        return cfg

    @classmethod
    def from_config(cls, cfg: dict, limits=None, telemetry=None,
                    replay=None) -> "WasiContext":
        from .faults import Fault
        faults = None
        fault_cfg = cfg.get("faults")
        if fault_cfg:
            schedule = {
                (entry["syscall"], entry["index"]): Fault(
                    errno=entry.get("errno"), short=entry.get("short"),
                    clock_skew_ns=entry.get("clock_skew_ns", 0),
                    escalate=bool(entry.get("escalate")))
                for entry in fault_cfg.get("schedule", ())}
            faults = FaultPlane(
                seed=fault_cfg.get("seed"), schedule=schedule,
                rate=fault_cfg.get("rate", 0.05),
                escalate_rate=fault_cfg.get("escalate_rate", 0.0))
        return cls(
            args=cfg.get("args"), env=cfg.get("env"),
            stdin=base64.b64decode(cfg.get("stdin", "")),
            files={name: base64.b64decode(data)
                   for name, data in cfg.get("files", {}).items()},
            faults=faults, limits=limits, telemetry=telemetry,
            replay=replay,
            clock_base_ns=cfg.get("clock_base_ns", 0),
            clock_step_ns=cfg.get("clock_step_ns", DEFAULT_CLOCK_STEP_NS),
            random_seed=cfg.get("random_seed", 0))


def module_imports_wasi(module) -> bool:
    """Whether a decoded module imports anything from preview1 — the
    cue the CLI and fuzz harness use to auto-register a context."""
    return any(imp.module == WASI_MODULE for imp in module.imports)
