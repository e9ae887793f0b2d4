"""Machine-speed reference for the benchmark's norm_* metrics.

The host's speed drifts by 20-40 % over seconds to minutes, because other
tenants share its cores, and lomlab's calls and other code of the same kind
slow down together.  On the 2-core Xeon VM the benchmark was tuned on, over
five minutes of 7-second windows, a survey chunk's time spread by 10 %
(quartile distance over median) and its ratio to ``small_work`` by 5 %; the
count scan's time spread by 8.5 % and its ratio to ``large_work`` by 7 %.

So a fixed computation that does not use lomlab, the workload's reference
from REFERENCES, is timed alongside its calls:

* during each timed call of a workload that runs in this process only, once
  every REF_INTERVAL_S, from a SIGALRM handler; its time is taken out of the
  call's time, and the call's reference time is the median of these runs;
* otherwise (calls that start worker processes, where a run would compete
  with the workers for the cores, and calls too short for a run), a burst
  of REF_BURST runs follows the call, and its reference time is the mean of
  the burst medians before and after it.

A call's normalised time is its net time times the reference's nominal time
over the call's reference time: its time at the speed at which the reference
takes its nominal time.
"""

from __future__ import annotations

import itertools
import signal
import statistics
import time

import numpy as np

REF_BURST = 9
REF_INTERVAL_S = 0.25


def small_work() -> int:
    """Numpy calls on small arrays and a loop over tuples and frozensets: the
    mix of the survey's per-class work and of the travels engine."""
    a = (np.arange(64 * 128, dtype=np.uint32).reshape(64, 128) * 2654435761) & 0xFFFFFFFF
    acc = 0
    for i in range(300):
        b = (a ^ (a >> np.uint32(i % 7 + 1))) & a
        acc += int(np.count_nonzero(b.any(axis=0)))
    for S in itertools.combinations(range(1, 16), 4):
        fs = frozenset(S)
        t = tuple(c for c in range(16) if c in fs)
        acc += len(t) + (hash(t) & 1)
    return acc


def large_work() -> int:
    """Bitwise passes over a fresh 8 MB array: the count scan's kind of work."""
    a = np.arange(1 << 21, dtype=np.uint32) * np.uint32(2654435761)
    return int(np.count_nonzero((a >> np.uint32(3)) & a))


# name: (reference computation, its median seconds on the 2-core Xeon VM)
REFERENCES = {"small": (small_work, 0.0085), "large": (large_work, 0.0085)}


class SpeedProbe:
    def __init__(self, reference: str) -> None:
        self.work, self.nominal_s = REFERENCES[reference]
        self.latest = self.nominal_s  # the reference time that applies now
        self.samples: list[float] = []
        self.spent = 0.0
        self._active = False

    def time_reference(self) -> float:
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0

    def burst(self) -> float:
        self.latest = statistics.median(self.time_reference() for _ in range(REF_BURST))
        return self.latest

    def _tick(self, signum, frame) -> None:
        if not self._active:
            return
        self._active = False  # no nested run if the next signal comes early
        dt = self.time_reference()
        self.samples.append(dt)
        self.spent += dt
        self._active = True

    def time_call(self, call, sample_inside: bool) -> tuple[object, float, float, int]:
        """Run ``call``; return its output, net seconds, normalised seconds and
        the number of in-call reference runs."""
        before = self.latest
        self.samples, self.spent = [], 0.0
        if sample_inside:
            previous = signal.signal(signal.SIGALRM, self._tick)
            self._active = True
            signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            out = call()
        finally:
            if sample_inside:
                signal.setitimer(signal.ITIMER_REAL, 0)
                self._active = False
                signal.signal(signal.SIGALRM, previous)
            net = time.perf_counter() - t0 - self.spent
        if self.samples:
            ref = self.latest = statistics.median(self.samples)
        else:
            ref = (before + self.burst()) / 2
        return out, net, net * self.nominal_s / ref, len(self.samples)
