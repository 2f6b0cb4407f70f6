"""Host-speed calibration: the correction for a shared machine's drift.

On a shared host the same code runs at a speed that drifts by tens of
percent over minutes, and each CPU drifts on its own. The benchmark
therefore times a fixed pure-Python loop (no ``repro`` code, garbage
collection off) on every CPU the measuring process may use: at the start,
every ``EVERY_S`` seconds between ops while none is in flight, and at the
end.
A stretch of ops between two calibrations is scaled by the host's speed
relative to nominal (the mean over its CPUs of ``NOMINAL_S`` over the
loop's time), averaged over the two calibrations, so reported times are
seconds on a host where the loop takes ``NOMINAL_S``. Single-process
workloads run pinned to one CPU (:func:`pinned`), so their speed is that
CPU's. Raw times are kept next to the scaled ones in the result file.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from contextlib import contextmanager

#: Seconds the calibration loop takes on the reference host: the unit
#: every normalized time is expressed in.
NOMINAL_S = 0.005
#: Seconds of measured time between two calibrations: short, because a
#: CPU's speed can halve and recover within a second when a neighbour
#: shares its core.
EVERY_S = 0.1
_AFFINITY = hasattr(os, "sched_setaffinity")


def _loop() -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(22_500):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        acc += (i * 7) % 13
        if i % 3 == 0:
            acc ^= len(str(i))
    return acc + sum([x * 2 for x in range(7_500)])


def _timed_loop() -> float:
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


@contextmanager
def pinned(one_cpu: bool):
    """With ``one_cpu``, run the block (and every process it starts) on
    the highest-numbered CPU this process may use."""
    if not (one_cpu and _AFFINITY):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def calibrate() -> list[float]:
    """Seconds the loop takes on each CPU this thread may run on."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        if not _AFFINITY:
            return [_timed_loop()]
        allowed = os.sched_getaffinity(0)
        try:
            times = []
            for cpu in sorted(allowed):
                os.sched_setaffinity(0, {cpu})
                times.append(_timed_loop())
            return times
        finally:
            os.sched_setaffinity(0, allowed)
    finally:
        if enabled:
            gc.enable()


def speed(calibration: list[float]) -> float:
    """Host speed relative to nominal: the mean over CPUs of
    ``NOMINAL_S`` over the loop time."""
    return statistics.fmean(NOMINAL_S / seconds for seconds in calibration)


def factors(calibrations: list[list[float]]) -> list[float]:
    """Scale factor of each stretch between consecutive calibrations."""
    return [(speed(before) + speed(after)) / 2
            for before, after in zip(calibrations, calibrations[1:])]
