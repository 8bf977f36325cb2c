"""Machine-speed calibration for the kcn benchmark.

On a shared machine the speed of the CPU this process gets swings by up
to half for seconds at a time, so the same work can take 1.5x as long a
minute later.  While a Sampler is entered, a SIGALRM handler times a
fixed kernel, which uses nothing of kcn, every PERIOD_S of wall time.
The benchmark takes the handler's time out of the work it times and
scales each timed stretch by REFERENCE_S over the kernel's mean time
around it.  Times then read as if the kernel took REFERENCE_S: the swings
cancel to first order, and a change to kcn's own code shows in full.
"""

from __future__ import annotations

import bisect
import hashlib
import signal
import statistics
import time

# about the kernel's time on a shared 2-vCPU x86-64 VM
REFERENCE_S = 1.0e-3
PERIOD_S = 0.02
_SEED = bytes(32)


def calibrate() -> float:
    """Seconds taken by the fixed kernel: SHAKE-128 output and an
    interpreter loop, about 1 ms together."""
    t0 = time.perf_counter()
    hashlib.shake_128(_SEED).digest(1 << 17)
    acc = 0
    for i in range(8000):
        acc += i * i
    return time.perf_counter() - t0


def calibrate_median() -> float:
    """Median kernel time of five back-to-back runs, steadier than one."""
    return statistics.median(calibrate() for _ in range(5))


def scale(seconds: float, before: float, after: float) -> float:
    """`seconds` of work at the reference speed, given kernel times taken
    just before and just after it."""
    return seconds * REFERENCE_S / statistics.fmean((before, after))


class Sampler:
    """Kernel times sampled every PERIOD_S, and once on entry and exit."""

    def __init__(self):
        self.times = []  # perf_counter() at the start of each sample
        self.kernel = []  # the kernel's seconds at each sample
        self.spent = 0.0  # seconds spent sampling, to take out of timed work

    def sample(self, *_):
        t0 = time.perf_counter()
        self.kernel.append(calibrate())
        self.times.append(t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean kernel time of the samples taken
        between `start` and `end` and of the one on either side."""
        lo = max(0, bisect.bisect_left(self.times, start) - 1)
        hi = bisect.bisect_right(self.times, end) + 1
        return REFERENCE_S / statistics.fmean(self.kernel[lo:hi])
