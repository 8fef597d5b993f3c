"""The machine's pace: a fixed reference routine timed alongside the jobs.

The shared cores this benchmark runs on change speed by up to a factor
of two, over milliseconds and over minutes, and the process's CPU time
slows down with its wall time, so neither can be compared across runs as
it stands.  The reference routine does the kind of work ctxfam does
(tuple keys in dicts, small objects, sorting, string building,
``Fraction`` sums) and never calls ctxfam, so a change to ctxfam cannot
move it.  It is timed between jobs and, from a profiling-timer signal,
every ``GAP_S`` of CPU time inside a long job; its time inside a job is
taken out of the job's time.  A job's time is then scaled by
``REFERENCE_S`` over the reference times during or around it, which
expresses it at a fixed nominal speed: the speed at which the routine
takes ``REFERENCE_S``.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
from fractions import Fraction
from time import perf_counter
from typing import List, Tuple

# Nominal time of one reference call, in seconds.  Scaled times read as
# if every job ran while the routine took exactly this long.
REFERENCE_S = 0.0025
# The routine runs once per this many seconds: between jobs, if that long
# has passed since it last ran, and inside a job, per that much CPU time.
# That keeps it to about 5% of a run.
GAP_S = 0.05
# A job with at least this many calls inside it is scaled by those;
# shorter jobs by the calls that start within ``WINDOW_S`` before they
# start or after they end.
INSIDE = 3
WINDOW_S = 0.5
# The current pace is read from this many of the latest reference calls.
RECENT = 16


class _Cell:
    __slots__ = ("key", "weight")

    def __init__(self, key: Tuple[str, str], weight: int) -> None:
        self.key = key
        self.weight = weight


def reference() -> int:
    """A fixed piece of interpreter work, about 2.5 ms on a 2 GHz core."""
    rng = random.Random(5)
    table: dict = {}
    cells = []
    total = Fraction(0)
    for i in range(600):
        key = (f"v{rng.randrange(40)}", f"w{rng.randrange(40)}")
        table[key] = table.get(key, 0) + 1
        cells.append(_Cell(key, i))
        if i % 8 == 0:
            total += Fraction(i, 7)
    words = " ".join(a + b for (a, b), _ in sorted(table.items())).split()
    shared = {cell.key for cell in cells} & set(table)
    return len(words) + len(shared) + total.numerator % 2


class Pace:
    """Reference timings of one run: (start, seconds) in time order."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._starts: List[float] = []
        self._last = float("-inf")

    def sample(self, *_signal) -> None:
        """Time one reference call; also the profiling-timer handler.  The
        cyclic collector is off meanwhile, so that a call inside a job
        neither pays for collecting the job's objects nor brings the job's
        next collection forward."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            reference()
            self._last = perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.samples.append((start, self._last - start))
        self._starts.append(start)

    def tick(self, calls: int = 0) -> None:
        """Time the reference routine ``calls`` times, or, by default, once
        if ``GAP_S`` has passed since it last ran."""
        if not calls and perf_counter() - self._last >= GAP_S:
            calls = 1
        for _ in range(calls):
            self.sample()

    def arm(self) -> None:
        """Sample every ``GAP_S`` of CPU time until :meth:`disarm`."""
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, GAP_S, GAP_S)

    @staticmethod
    def disarm() -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def recent(self) -> float:
        """Wall seconds per nominal second at the moment, from the latest
        ``RECENT`` reference calls."""
        return statistics.geometric_mean(s for _, s in self.samples[-RECENT:]) / REFERENCE_S

    def _between(self, start: float, end: float) -> Tuple[int, int]:
        return bisect.bisect_left(self._starts, start), bisect.bisect_right(self._starts, end)

    def inside(self, start: float, end: float) -> float:
        """Seconds the reference calls that started in [start, end] took."""
        lo, hi = self._between(start, end)
        return sum(s for _, s in self.samples[lo:hi])

    def scale(self, start: float, seconds: float) -> float:
        """Factor that turns a job's time into nominal time: ``REFERENCE_S``
        over the geometric mean of the reference times inside the job,
        or, with fewer than ``INSIDE`` of those, within ``WINDOW_S`` of it;
        the callers run the routine just before and after every job.  The
        mean, unlike the median, counts the short stalls a job suffers
        too; the geometric mean keeps one long stall from swamping it."""
        lo, hi = self._between(start, start + seconds)
        if hi - lo < INSIDE:
            lo, hi = self._between(start - WINDOW_S, start + seconds + WINDOW_S)
        return REFERENCE_S / statistics.geometric_mean(s for _, s in self.samples[lo:hi])
