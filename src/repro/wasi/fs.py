"""A deterministic in-memory filesystem backing the WASI preview1 subset.

Everything a guest can observe lives in plain Python state: a flat
``name → WasiFile`` namespace under one preopened root directory (fd 3),
byte-stream stdio (fd 0 reads the configured stdin bytes, fds 1/2 append
to in-memory sinks), and an fd table with explicit read/write capability
bits. There is no host-OS I/O anywhere on the syscall path, so two runs
with the same configuration perform byte-identical operations — the
property record/replay and the cross-engine differential tests pin.

Resource governance (from :class:`repro.interp.limits.ResourceLimits`)
degrades gracefully in errno space: ``open_path`` past ``max_open_fds``
returns ``EMFILE``; a write growing a file past ``max_file_bytes`` or the
FS past ``max_fs_bytes`` is truncated at the boundary (a short write),
then ``ENOSPC`` once no byte fits. Hard escalation (the syscall budget)
lives a layer up in :class:`repro.wasi.preview1.WasiContext`.
"""

from __future__ import annotations

from .abi import (ERRNO_BADF, ERRNO_INVAL, ERRNO_MFILE, ERRNO_NOENT,
                  ERRNO_NOSPC, ERRNO_SUCCESS, FILETYPE_CHARACTER_DEVICE,
                  FILETYPE_DIRECTORY, FILETYPE_REGULAR_FILE, OFLAGS_CREAT,
                  OFLAGS_EXCL, OFLAGS_TRUNC, PREOPEN_FD, WHENCE_CUR,
                  WHENCE_END, WHENCE_SET)


class WasiFile:
    """One regular file: a name and a growable byte buffer."""

    __slots__ = ("name", "data")

    def __init__(self, name: str, data: bytes = b""):
        self.name = name
        self.data = bytearray(data)


class OpenFd:
    """One entry in the fd table.

    ``kind`` is ``"stdin"``/``"stdout"``/``"stderr"``/``"preopen"``/
    ``"file"``; only ``"file"`` entries carry a :class:`WasiFile` and a
    seek position (stdin keeps its stream position on the fd so dup-like
    reopening is impossible by construction).
    """

    __slots__ = ("fd", "kind", "file", "pos", "readable", "writable")

    def __init__(self, fd: int, kind: str, file: WasiFile | None = None,
                 readable: bool = False, writable: bool = False):
        self.fd = fd
        self.kind = kind
        self.file = file
        self.pos = 0
        self.readable = readable
        self.writable = writable

    @property
    def filetype(self) -> int:
        if self.kind == "file":
            return FILETYPE_REGULAR_FILE
        if self.kind == "preopen":
            return FILETYPE_DIRECTORY
        return FILETYPE_CHARACTER_DEVICE


class WasiFS:
    """The fd table, stdio streams, and flat file namespace of one guest.

    All operations use errno-style returns — ``(errno, payload)`` — and
    never raise for guest-reachable conditions; exceptions escaping this
    class indicate host bugs, not guest behavior.
    """

    def __init__(self, files: dict[str, bytes] | None = None,
                 stdin: bytes = b"",
                 max_open_fds: int | None = None,
                 max_file_bytes: int | None = None,
                 max_fs_bytes: int | None = None):
        self.files: dict[str, WasiFile] = {
            name: WasiFile(name, data)
            for name, data in sorted((files or {}).items())}
        self.stdin = bytes(stdin)
        self.stdout = bytearray()
        self.stderr = bytearray()
        self.max_open_fds = max_open_fds
        self.max_file_bytes = max_file_bytes
        self.max_fs_bytes = max_fs_bytes
        self._fds: dict[int, OpenFd] = {
            0: OpenFd(0, "stdin", readable=True),
            1: OpenFd(1, "stdout", writable=True),
            2: OpenFd(2, "stderr", writable=True),
            PREOPEN_FD: OpenFd(PREOPEN_FD, "preopen"),
        }
        self._next_fd = PREOPEN_FD + 1

    # -- accounting ------------------------------------------------------------

    def total_bytes(self) -> int:
        """Total bytes across regular files (stdio sinks are not governed:
        they are the run's observable output, already bounded by fuel)."""
        return sum(len(f.data) for f in self.files.values())

    def open_file_count(self) -> int:
        """Open ``"file"`` fds — the population ``max_open_fds`` governs."""
        return sum(1 for e in self._fds.values() if e.kind == "file")

    def lookup(self, fd: int) -> OpenFd | None:
        return self._fds.get(fd)

    # -- syscall backends ------------------------------------------------------

    def open_path(self, path: str, oflags: int) -> tuple[int, int]:
        """Open (or create) ``path`` under the preopen; returns
        ``(errno, fd)``."""
        if not path or "/" in path or path in (".", ".."):
            return ERRNO_NOENT, 0
        if self.max_open_fds is not None and \
                self.open_file_count() >= self.max_open_fds:
            return ERRNO_MFILE, 0
        file = self.files.get(path)
        if file is None:
            if not oflags & OFLAGS_CREAT:
                return ERRNO_NOENT, 0
            file = WasiFile(path)
            self.files[path] = file
        elif oflags & OFLAGS_EXCL:
            return ERRNO_INVAL, 0
        if oflags & OFLAGS_TRUNC:
            del file.data[:]
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = OpenFd(fd, "file", file, readable=True, writable=True)
        return ERRNO_SUCCESS, fd

    def read(self, fd: int, nbytes: int) -> tuple[int, bytes]:
        entry = self._fds.get(fd)
        if entry is None:
            return ERRNO_BADF, b""
        if not entry.readable:
            return ERRNO_BADF, b""
        if entry.kind == "stdin":
            chunk = self.stdin[entry.pos:entry.pos + nbytes]
        else:
            chunk = bytes(entry.file.data[entry.pos:entry.pos + nbytes])
        entry.pos += len(chunk)
        return ERRNO_SUCCESS, chunk

    def write(self, fd: int, data: bytes) -> tuple[int, int]:
        """Write at the fd's position; returns ``(errno, nwritten)``.

        Regular-file writes are capped by the per-file and whole-FS byte
        limits: bytes up to the boundary are written (a short write), and
        a write that cannot place a single byte returns ``ENOSPC``.
        """
        entry = self._fds.get(fd)
        if entry is None or not entry.writable:
            return ERRNO_BADF, 0
        if entry.kind == "stdout":
            self.stdout.extend(data)
            return ERRNO_SUCCESS, len(data)
        if entry.kind == "stderr":
            self.stderr.extend(data)
            return ERRNO_SUCCESS, len(data)
        file = entry.file
        allowed = len(data)
        end = entry.pos + allowed
        growth = max(0, end - len(file.data))
        if self.max_file_bytes is not None:
            room = self.max_file_bytes - len(file.data)
            if growth > room:
                allowed = max(0, len(data) - (growth - max(0, room)))
        if self.max_fs_bytes is not None and growth:
            room = self.max_fs_bytes - self.total_bytes()
            grow_now = max(0, entry.pos + allowed - len(file.data))
            if grow_now > room:
                allowed = max(0, allowed - (grow_now - max(0, room)))
        if allowed == 0 and data:
            return ERRNO_NOSPC, 0
        payload = data[:allowed]
        end = entry.pos + len(payload)
        if end > len(file.data):
            file.data.extend(bytes(end - len(file.data)))
        file.data[entry.pos:end] = payload
        entry.pos = end
        return ERRNO_SUCCESS, len(payload)

    def seek(self, fd: int, offset: int, whence: int) -> tuple[int, int]:
        entry = self._fds.get(fd)
        if entry is None:
            return ERRNO_BADF, 0
        if entry.kind != "file":
            if entry.kind == "stdin" and whence == WHENCE_CUR and offset == 0:
                return ERRNO_SUCCESS, entry.pos  # tell() on stdin
            return ERRNO_BADF, 0
        size = len(entry.file.data)
        if whence == WHENCE_SET:
            target = offset
        elif whence == WHENCE_CUR:
            target = entry.pos + offset
        elif whence == WHENCE_END:
            target = size + offset
        else:
            return ERRNO_INVAL, 0
        if target < 0:
            return ERRNO_INVAL, 0
        entry.pos = target
        return ERRNO_SUCCESS, target

    def close(self, fd: int) -> int:
        entry = self._fds.get(fd)
        if entry is None:
            return ERRNO_BADF
        if entry.kind != "file":
            return ERRNO_BADF  # stdio and the preopen stay open for the run
        del self._fds[fd]
        return ERRNO_SUCCESS

    def fdstat(self, fd: int) -> tuple[int, int]:
        entry = self._fds.get(fd)
        if entry is None:
            return ERRNO_BADF, 0
        return ERRNO_SUCCESS, entry.filetype
