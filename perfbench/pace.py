"""Host pacing: scale measured times to a nominal host speed.

The reference host is shared and its speed drifts: a fixed pure-Python
loop runs up to 2x slower in one 3-second window than in another, and
12-second window means still spread by 16% (see README).  A run of tens of
seconds does not average that out, but two adjacent readings of the same
loop agree to about 4%.  So a timed stretch is scaled by a reading of a
fixed reference loop taken on either side of it:

    paced time = measured time * NOMINAL_S / mean(reading before, reading after)

The loop is the benchmark's own and never calls the library, so a change to
the library moves paced times exactly as much as it moves wall times; only
the host's drift cancels.  A reading times the loop as it runs, not at its
best: the fastest of several timings would miss a slow spell that the
items around it do not.  It runs the loop for about ``SHARE`` of the
stretch since the previous reading, at least once, so that a reading next
to a long item is as long as the item needs and pacing costs a fixed share
of the run.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

# One reading, in seconds, at the reference host's median speed (2-core
# shared x86-64 VM, CPython 3, the median of 2000 readings).  Paced times
# are in seconds of that host.
NOMINAL_S = 7.3e-4
LOOP = 3000
# Items run between two readings for at least this long.
EVERY_S = 0.05
SHARE = 0.03


def _loop(n: int = LOOP) -> float:
    # float arithmetic, math calls and a Python loop, as in the library
    s = 0.0
    for i in range(n):
        t = (i % 97) * 0.01
        s += math.sinh(t) * t - math.cos(t)
    return s


def reading(stretch_s: float = 0.0) -> float:
    """Seconds per run of the loop, after a stretch of ``stretch_s``."""
    repeats = max(1, round(SHARE * stretch_s / NOMINAL_S))
    t0 = perf_counter()
    for _ in range(repeats):
        _loop()
    return (perf_counter() - t0) / repeats


class Pacer:
    """Scales item times stretch by stretch: every stretch of at least
    ``EVERY_S`` ends with a reading, and the items in it are scaled by the
    mean of that reading and the one before."""

    def __init__(self):
        self.readings = [reading()]
        self.at = perf_counter()

    def due(self) -> bool:
        return perf_counter() - self.at >= EVERY_S

    def close(self, tallies) -> None:
        """Take a reading and scale the items each tally added since the
        last one."""
        now = reading(perf_counter() - self.at)
        factor = 2.0 * NOMINAL_S / (self.readings[-1] + now)
        self.readings.append(now)
        for tally in tallies:
            tally.rescale(factor)
        self.at = perf_counter()

    def speed(self) -> dict:
        """How fast the host ran, relative to nominal: the median and the
        extremes over the run's readings."""
        speeds = [NOMINAL_S / r for r in self.readings]
        return {"readings": len(speeds),
                "median": statistics.median(speeds),
                "min": min(speeds), "max": max(speeds)}
