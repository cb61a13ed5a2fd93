"""Host speed probe.

A fixed exact-arithmetic task that does not use diagflag: Gaussian
elimination over `Fraction` of a fixed 10x10 integer matrix, the same kind
of work the library does.  On a shared virtual machine the speed of one
vCPU can change by a factor of two within seconds while CPU time and wall
time stay equal, so raw timings of identical runs spread far more than any
code change worth detecting.  The benchmark therefore interleaves short
probes with its items and scales every end-to-end timing to a host on
which one probe takes `REFERENCE_S`.  The probe never touches the library,
so a change to the library moves the scaled timings exactly as it moves
the raw ones.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.005
_MATRIX = [[Fraction((3 * i + 7 * j) % 11 - 5) for j in range(10)] for i in range(10)]


def _eliminate() -> None:
    rows = [row[:] for row in _MATRIX]
    for col in range(10):
        pivot = next((r for r in range(col, 10) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(10):
            if r != col and rows[r][col]:
                f = rows[r][col] / rows[col][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]


def probe() -> float:
    """Seconds one probe takes now."""
    t0 = perf_counter()
    _eliminate()
    _eliminate()
    return perf_counter() - t0


class SpeedProbe:
    """Probes taken at most every `interval` seconds during a run.

    Item time accumulates the host's momentary slowness over the run, so
    the mean probe time, not the median, is the matching estimate."""

    interval = 0.1

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent probing, to be left out of item time
        self._last = float("-inf")

    def tick(self) -> None:
        now = perf_counter()
        if now - self._last >= self.interval:
            self.samples.append(probe())
            self._last = perf_counter()
            self.spent += self._last - now

    def slowdown(self) -> float:
        """How much slower than the reference host this run's host was:
        scaled time = raw time / slowdown."""
        return statistics.fmean(self.samples) / REFERENCE_S
