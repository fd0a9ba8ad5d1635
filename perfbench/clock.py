"""Timing scaled by the speed of the host, measured between the timed steps.

The host this benchmark was tuned on changes speed in phases of 15 s or more:
the same call took anywhere from 345 to 585 ms, CPU time tracked wall time,
and CPU pressure stayed near zero, so nothing inside the process shows the
cause.  A fixed pure-Python calibration unit slows down with it.  ``Clock``
runs the unit between steps (at least every ``BLOCK_S`` seconds of timed
work, never inside a step) and reports every step in *reference seconds*: its
wall time times ``REF_UNIT_S`` over the median unit time of the calibrations
around it.  A change to craigseq does not touch the unit, so it
moves reference seconds as it moves wall time.
"""
from __future__ import annotations

import bisect
import statistics
import time

#: Wall time of one calibration unit on the reference host.
REF_UNIT_S = 0.004
#: Most timed work between two calibrations.
BLOCK_S = 0.25
#: A step is scaled by the median of the calibrations this close to it: a
#: single unit run is itself noisy, the host's slow phases last longer.
WINDOW_S = 2.0


def _unit() -> int:
    # Tuples, dict updates, a sort and hashing: the kind of work craigseq does.
    acc: dict = {}
    x = 0x1234
    items = []
    for i in range(2000):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        t = (x & 255, (x >> 8) & 255, ((x >> 16) & 15, (i, x & 7)))
        items.append(t)
        acc[t] = acc.get(t, 0) + 1
    items.sort()
    return sum(hash(t) & 1 for t in items)


def unit_seconds() -> float:
    """Wall time of one calibration unit now; the best of three runs."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _unit()
        best = min(best, time.perf_counter() - t0)
    return best


class Timed:
    """Accumulated time of one operation (or one set-up): wall and reference."""

    __slots__ = ("raw", "seconds")

    def __init__(self) -> None:
        self.raw = 0.0
        self.seconds = 0.0

    @property
    def scale(self) -> float:
        """Reference seconds per wall second over this record's steps."""
        return self.seconds / self.raw if self.raw else 1.0


class Clock:
    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (when, unit seconds)
        self._steps: list[tuple[Timed, float, float]] = []  # (record, midpoint, wall seconds)
        self._since = 0.0
        self.calibrate()

    @property
    def units(self) -> list[float]:
        return [unit for _, unit in self.samples]

    def calibrate(self) -> None:
        self.samples.append((time.perf_counter(), unit_seconds()))
        self._since = 0.0

    def time(self, rec: Timed, fn, *args, **kwargs):
        """Call ``fn`` and add its wall time to ``rec``; scaled at the next flush."""
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._steps.append((rec, (t0 + t1) / 2, t1 - t0))
            self._since += t1 - t0
            if self._since >= BLOCK_S:
                self.calibrate()

    def flush(self) -> None:
        """Calibrate, then scale every step timed since the last flush by the
        median unit time of the calibrations within ``WINDOW_S`` of it, and at
        least of the ones just before and just after it."""
        self.calibrate()
        when = [t for t, _ in self.samples]
        for rec, mid, dt in self._steps:
            after = bisect.bisect(when, mid)
            lo = min(bisect.bisect_left(when, mid - WINDOW_S), after - 1)
            hi = max(bisect.bisect_right(when, mid + WINDOW_S), after + 1)
            unit = statistics.median(u for _, u in self.samples[lo:hi])
            rec.raw += dt
            rec.seconds += dt * REF_UNIT_S / unit
        self._steps = []
