"""Host speed: wall times scaled to a reference speed.

The host's speed drifts by up to a third over seconds (a fixed pure-Python
loop takes 0.15 s to 0.25 s from one repeat to the next on a 2-CPU Xeon
VM), and whole runs land in slow or fast phases.  So the benchmark runs a
fixed calibration kernel before and after every op it times and scales the
op's wall time by the kernel's reference time over its measured time, the
mean of the two runs.  A scaled time is the op's time at the speed where
the kernel takes ``REFERENCE_S``; the kernel itself is fixed, so a faster
library still reads as a shorter time.  This module imports nothing from
bnpick.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Time of one kernel run at the reference speed, about a fast phase of a
# 2-CPU Intel Xeon VM.
REFERENCE_S = 0.01


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel: exact rational
    arithmetic with growing denominators, then float list work."""
    start = time.perf_counter()
    x = Fraction(1, 3)
    for i in range(1, 700):
        x = (x * Fraction(i + 2, i + 1) + Fraction(1, i)) / 3
    values = [float(i) * 1.5 for i in range(5000)]
    values.sort(reverse=True)
    return time.perf_counter() - start


class HostSpeed:
    """Scales a wall time by the kernel runs just before and just after it."""

    def __init__(self):
        self.last = kernel_seconds()

    def restart(self):
        """Calibrate again, after a stretch that was not timed."""
        self.last = kernel_seconds()

    def scale(self, seconds: float) -> float:
        now = kernel_seconds()
        factor = REFERENCE_S / ((self.last + now) / 2)
        self.last = now
        return seconds * factor
