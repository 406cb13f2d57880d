"""Host-speed sampling, so that times from a shared host can be compared.

On a virtual machine shared with other tenants, the same code can run
1.6x slower for minutes at a time. No estimator over one run's own
samples removes that, because the slowdown outlasts the run. This module
measures the host's speed during the run instead: a fixed calibration
slice (complex exp/log1p on small numpy arrays plus a Python float loop,
the same mix of work as the engine's) is timed in thread CPU time, and
times are scaled by REFERENCE_SLICE_S / (mean slice time). A result in
these "reference seconds" is what the run would have taken on a host
where one slice takes REFERENCE_SLICE_S.

`Sampler` runs one slice on every SIGALRM tick of an interval timer while
the timed work runs, so the speed is sampled throughout the work, not
only around it. The slices cost about 5% of the wall time. The harness
subtracts their CPU time from the times it reports. Thread CPU time does
not count time spent waiting for the GIL, so the slice measures the
core's speed also when worker threads hold the GIL.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np

# Mean thread CPU time of one slice on an uncontended 2-vCPU x86-64 VM
# (numpy 2.4, Python 3.11); it only fixes the unit of the scaled times.
REFERENCE_SLICE_S = 0.0045
INTERVAL_S = 0.1
SLICE_STEPS = 36

_LEVELS = np.linspace(0.05, 0.95, 64)
_ANGLES = np.linspace(0.0, 3.0, 32)


def calibration_slice() -> float:
    """A fixed amount of work; returns a checksum so nothing is skipped."""
    acc = 0.0
    for i in range(SLICE_STEPS):
        phase = np.exp(-1j * (_ANGLES + i * 1e-3))
        acc += float(np.log1p(-np.outer(phase, _LEVELS)).sum().real)
        s = 0.0
        for k in range(100):
            s += math.cos(k * 0.01) * 1.0001
        acc += s
    return acc


def timed_slice() -> float:
    """Thread CPU seconds of one calibration slice."""
    cpu0 = time.thread_time()
    calibration_slice()
    return time.thread_time() - cpu0


def slice_seconds(count: int) -> float:
    """Mean thread CPU time of `count` slices, after one warm-up slice."""
    timed_slice()
    return statistics.fmean(timed_slice() for _ in range(count))


class Sampler:
    """Runs a calibration slice every INTERVAL_S of wall time while active.

    Use as a context manager around the timed work; it must be entered on
    the main thread. It also runs one slice on entry and one on exit, so
    that work shorter than the interval still has a speed. `starts` holds
    each slice's perf_counter start and `cpu` its thread CPU time.
    """

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.starts = []
        self.cpu = []

    def _tick(self, signum=None, frame=None):
        start = time.perf_counter()
        self.cpu.append(timed_slice())
        self.starts.append(start)

    def __enter__(self):
        timed_slice()  # warm-up, not recorded
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()
        return False

    def cpu_between(self, t0: float, t1: float) -> float:
        """Slice CPU time of the slices that started within [t0, t1)."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return sum(self.cpu[lo:hi])

    def scale(self, t0: float = -math.inf, t1: float = math.inf) -> float:
        """Factor from measured to reference seconds, from the slices that
        started within [t0, t1); by default from all of them."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        if lo == hi:
            raise RuntimeError("no calibration slice ran in the interval")
        return REFERENCE_SLICE_S / statistics.fmean(self.cpu[lo:hi])
