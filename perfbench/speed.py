"""Machine-speed calibration for CPU-bound timings on a shared, noisy host.

On a shared 2-core virtual machine the speed of one process drifts by a
third and more between seconds and between minutes, while a fixed
pure-Python kernel that shares no code with the solver slows down and
speeds up in step with it (README.md gives the measurements). So the
benchmark runs the kernel between solves, never inside a timed region, and
reports CPU-bound times in reference seconds: wall seconds times
``KERNEL_REF_S`` over the kernel time measured around that solve. Waiting
on the wall clock (a budgeted solve running to its deadline) is not
rescaled. Raw wall times are kept next to the rescaled ones.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

# Sets the scale of reference seconds: a reference second is a wall second
# at the speed where one kernel run takes this long (about the slow phase
# of a shared 2-core Intel Xeon virtual machine). Any constant works.
KERNEL_REF_S = 0.0003
# Kernel runs after a solve: one, plus one per this many seconds of solving,
# which keeps calibration near 2% of the run.
SECONDS_PER_REP = 0.025
# Kernel samples taken this close to a solve (before its start or after its
# end) set that solve's speed.
WINDOW_S = 0.1


@dataclass(frozen=True)
class _Seg:
    lo: int
    hi: int

    @property
    def length(self) -> int:
        return self.hi - self.lo


def kernel() -> int:
    """Fixed work in the solver's style that calls no solver code: frozen
    dataclasses, properties, a keyed sort, an interval sweep, set inserts of
    tuples, pairwise overlap tests and exact fractions."""
    segs = [_Seg(i * 37 % 101, i * 37 % 101 + i % 13 + 1) for i in range(60)]
    segs.sort(key=lambda s: (s.lo, -s.hi))
    seen = set()
    covered = 0
    cur_lo, cur_hi = segs[0].lo, segs[0].hi
    for s in segs[1:]:
        if s.lo > cur_hi:
            covered += cur_hi - cur_lo
            cur_lo, cur_hi = s.lo, s.hi
        elif s.hi > cur_hi:
            cur_hi = s.hi
        seen.add((s.lo, s.hi))
    hits = 0
    for a in segs:
        for b in segs[::2]:
            if a.lo < b.hi and b.lo < a.hi and a.length >= b.length:
                hits += 1
    frac = sum((Fraction(s.length, 97) for s in segs[:16]), Fraction(0))
    return covered + len(seen) + hits + frac.numerator


def sample(reps: int) -> list[float]:
    """Wall time of ``reps`` kernel runs, each timed on its own, with the
    garbage collector paused so the kernel never pays for the solver's
    garbage."""
    out = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(reps):
            t0 = time.perf_counter()
            kernel()
            out.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return out


def reps_after(solve_seconds: float) -> int:
    return 1 + int(solve_seconds / SECONDS_PER_REP)


class SpeedLog:
    """Kernel samples with the time they were taken."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.kernel_s: list[float] = []

    def measure(self, reps: int) -> None:
        for k in sample(reps):
            self.at.append(time.perf_counter())
            self.kernel_s.append(k)

    def factor(self, start: float, end: float) -> float:
        """KERNEL_REF_S over the median kernel time near [start, end];
        multiply a wall time taken in that interval by it."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        near = self.kernel_s[lo:hi]
        if not near:  # no sample in the window: take the nearest one
            i = min(bisect.bisect_left(self.at, start), len(self.at) - 1)
            near = self.kernel_s[i:i + 1]
        return KERNEL_REF_S / statistics.median(near)
