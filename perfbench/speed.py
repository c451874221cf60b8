"""Host speed, read from a fixed piece of pure-Python calibration work.

On a shared cloud host the same code runs up to about twice as slow for
stretches of a fraction of a second to minutes (the cores are shared with
other tenants; steal time stays near zero, so the kernel does not see it).
A job's raw time then says as much about the host's phase as about the
program: over three minutes, the fastest 5-second window of one fixed sign
sweep ranged from 150 to 350 ms, while its time divided by the time of a
calibration taken right next to it stayed within a few percent.

So while the benchmark times jobs, a ``Meter`` runs the calibration work
from a timer signal every ``INTERVAL_S`` seconds, and a job is reported at
reference speed: its time, less the time spent in the meter, times the mean
of ``REF_CAL_S / calibration`` over the samples taken during the job and
two intervals either side.  (A job of ``t`` seconds does ``t * speed`` work;
averaged over time, ``REF_CAL_S / calibration`` is the speed relative to
the reference.)

``REF_CAL_S`` is the calibration's time in a timed pass on an Intel Xeon
cloud vCPU under CPython 3.11 at its fast phase, so that there reference
seconds are close to the wall seconds of a quiet host.  The calibration
uses only the standard library and no dpnull code: a change to dpnull moves
the job's time and not the calibration, and shows in full.
"""
from __future__ import annotations

import signal
from array import array
from bisect import bisect_left, bisect_right
from time import perf_counter

REF_CAL_S = 0.0008
INTERVAL_S = 0.025


def _work() -> int:
    """Dict updates, integer arithmetic, small calls and tuples, the mix
    that dpnull's kernels and searches are made of."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(2000):
        key = (i * 7919) & 1023
        table[key] = (table.get(key, 0) + i) % 3
        acc += len((i, key)) + abs(key - 512)
    return acc + sum(sorted(table.values())[:8])


class Meter:
    """Calibration samples taken from SIGALRM every INTERVAL_S seconds.

    Python runs the handler in the main thread between bytecodes, so a
    sample interrupts whatever runs; ``spent`` adds up the time spent in
    the handler, for callers to take out of their own measurements.
    """

    def __init__(self):
        self.at = array("d")    # perf_counter at the start of each sample
        self.cal = array("d")   # seconds the calibration work took
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t0 = perf_counter()
        _work()
        t1 = perf_counter()
        self.at.append(t0)
        self.cal.append(t1 - t0)
        self.spent += perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, start: float, end: float) -> float:
        """Factor that takes seconds spent between perf_counter readings
        `start` and `end` to reference seconds."""
        lo = bisect_left(self.at, start - 2 * INTERVAL_S)
        hi = bisect_right(self.at, end + 2 * INTERVAL_S)
        if lo == hi:  # the handler waited on a long call into C: take the neighbours
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.at))
        if lo == hi:
            raise RuntimeError("no calibration sample near a timed span")
        return REF_CAL_S * sum(1.0 / c for c in self.cal[lo:hi]) / (hi - lo)
