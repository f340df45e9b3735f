"""The benchmark's clock, and the correction for host speed.

Times are CPU time of this process.  The program is single-threaded and
does no I/O that matters, so on an idle host that equals wall time.  On a
shared host CPU time still drifts, because other tenants compete for
caches and cores: one workload's round took up to twice as long from one
minute to the next (NOTES.md has the figures).

A fixed kernel, timed every so often, slows down and speeds up with the
host.  It builds frozensets of small tuples and formats and joins strings,
as the program does; of the kernels tried, this one tracked the drift of
`canonical` and `audit` best.  CPU times are multiplied by
``REFERENCE_S / kernel time``: they are reported as they would read on a
host where the kernel takes ``REFERENCE_S``.  The kernel does not run
program code, so a change to the program cannot move it.
"""
from __future__ import annotations

import gc
import statistics
import time

clock = time.process_time

# about the kernel's CPU time on the 2-core host that recorded NOTES.md
REFERENCE_S = 0.005
# how often, in CPU seconds, a measured pass times the kernel again
INTERVAL_S = 0.5


def kernel_seconds() -> float:
    """Best of three runs of the calibration kernel, with the collector off."""
    best = float("inf")
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            start = clock()
            for i in range(30):
                frozenset((i, j, str(j)) for j in range(300))
                "\n".join([f"{j}:{i}" for j in range(300)])
            best = min(best, clock() - start)
    finally:
        if enabled:
            gc.enable()
    return best


class Calibration:
    """Kernel timings taken during a pass, and the CPU time they cost."""

    def __init__(self) -> None:
        self.timings: list[float] = []
        self.spent = 0.0
        self._last = 0.0
        self.sample()

    def sample(self) -> None:
        start = clock()
        self.timings.append(kernel_seconds())
        self._last = clock()
        self.spent += self._last - start

    def sample_if_due(self) -> None:
        if clock() - self._last >= INTERVAL_S:
            self.sample()

    def scale(self, first: int, last: int) -> float:
        """Multiplier for CPU times measured between timings `first` and `last`."""
        return REFERENCE_S / statistics.fmean(self.timings[first:last + 1])
