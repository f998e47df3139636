"""Host-speed reference for the untimed gaps between operations.

The benchmark runs on a few cores of a shared host whose speed drifts
by up to a factor of three over seconds to minutes: the calibration
loop below took from 120 to 380 us within one hour, depending on what
the neighbours did, and every timing of the program drifts with it.  A
:class:`SpeedClock` runs a fixed calibration loop in the gaps between
timed operations (never inside one) and converts each measured wall
interval to *reference seconds*: the wall time multiplied by
``REFERENCE_S`` over the median calibration time around that interval.
A change to the program moves reference seconds exactly as it moves
wall seconds at a fixed host speed.  Most of the host's drift cancels:
on a log scale, the program's wall times moved 0.6 to 0.9 times as far
as the loop's across that range, so reference times still fall by
about a tenth from the fastest host state to the slowest, where wall
times grow by a factor of two or more.

The loop uses only code outside the program under test, so no change to
the program can speed it up, and it allocates no garbage-collected
objects, so it neither triggers nor absorbs the program's collections.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: Iterations of the calibration loop; 120 to 380 us on a shared 2-core
#: x86-64 host under CPython 3.11.
ITERATIONS = 700
#: The calibration time that reference seconds are scaled to.  A round
#: figure near the loop's time on the host above; it fixes the unit only.
REFERENCE_S = 250e-6
#: Least wall time between two calibrations taken by :meth:`tick`.
INTERVAL_S = 0.02
#: Calibrations within this many seconds of an interval's ends, or within
#: the interval's own length if longer, scale it: a long operation
#: averages the host's speed over its length, and so must its scale.
WINDOW_S = 0.25
#: Fewest calibrations that scale one interval; fewer in the window
#: widens it to the nearest ones.
MIN_CALIBRATIONS = 7


class _Cell:
    """The loop's attribute and method-call traffic."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def step(self, index: int, table: list) -> int:
        self.value = (self.value + table[index & 255] * 3) ^ index
        return self.value & 255


def calibration_loop(cell: _Cell, table: list) -> int:
    """Interpreter work of the benchmark's kind: calls, attribute and
    list access, int arithmetic.  It stays in cache, so the program's
    own memory traffic between calibrations does not slow it down.  Ints
    are not tracked by the collector, so the loop allocates nothing it
    could collect."""
    acc = 0
    for index in range(ITERATIONS):
        slot = cell.step(index + acc, table)
        table[slot] = (table[slot] + index) & 1023
        acc = (acc + slot) & 0xFFFF
    return acc


class SpeedClock:
    """Calibrations taken between operations, and the reference seconds
    of any wall interval they surround."""

    def __init__(self):
        self.stamps: list[float] = []
        self.durations: list[float] = []
        #: Wall seconds spent calibrating; an interval that contains
        #: calibrations (a fleet run ticks between its events) has them
        #: subtracted.
        self.spent = 0.0
        self._last = float("-inf")
        self._cell = _Cell()
        self._table = list(range(256))

    def tick(self):
        """Calibrate once per ``INTERVAL_S`` since the last calibration
        ended, at most ``MIN_CALIBRATIONS`` times: about one calibration
        per interval while operations are short, and a burst on each
        side of a long one."""
        missed = (time.perf_counter() - self._last) / INTERVAL_S
        if missed >= 1:
            self.calibrate(int(min(missed, MIN_CALIBRATIONS)))

    def calibrate(self, times: int = 1):
        clock = time.perf_counter
        cell, table = self._cell, self._table
        for _ in range(times):
            start = clock()
            calibration_loop(cell, table)
            end = clock()
            self.stamps.append(start)
            self.durations.append(end - start)
            self.spent += end - start
            self._last = end

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per wall second over ``[start, end]``."""
        stamps = self.stamps
        window = max(WINDOW_S, end - start)
        lo = bisect.bisect_left(stamps, start - window)
        hi = bisect.bisect_right(stamps, end + window)
        while hi - lo < MIN_CALIBRATIONS and (lo > 0 or hi < len(stamps)):
            lo, hi = max(0, lo - 1), min(len(stamps), hi + 1)
        if hi == lo:
            raise RuntimeError("no calibration to scale an interval by")
        return REFERENCE_S / statistics.median(self.durations[lo:hi])

    def reference(self, start: float, seconds: float) -> float:
        """``seconds`` of wall time from ``start``, in reference seconds."""
        return seconds * self.scale(start, start + seconds)
