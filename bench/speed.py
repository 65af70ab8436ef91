"""The machine's momentary speed, sampled while the benchmark runs.

On a shared machine the same Python code runs up to twice as slowly while
neighbours are busy, in spells that last tens of seconds, longer than one
benchmark run.  The probe times a fixed reference computation (exact
Fraction arithmetic, like morsekit's, but independent of it) every
``PERIOD`` seconds from a SIGALRM handler.  A measured time is then scaled
by REFERENCE_S / (reference time near it), which gives the time it would
have taken at the speed where the reference takes REFERENCE_S.  The probe's
own time is subtracted from the operation it interrupted.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

PERIOD = 0.05
# the reference's time on the 2-core box the README's baseline comes from
REFERENCE_S = 250e-6
# samples this close to an operation, on either side, also count for it: the
# speed changes over tens of seconds, and a short operation needs more than
# the one or two samples taken during it to get a steady factor
WINDOW_S = 0.5


def reference() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 60):
        acc += Fraction(i * 7919, i + 13) * Fraction(3, i + 1)
    return acc


class SpeedProbe:
    def __init__(self):
        self.times: list[float] = []
        self.ratios: list[float] = []  # REFERENCE_S / reference time
        self.spent = 0.0  # wall seconds inside the probe, all samples

    def _sample(self, *_):
        start = time.perf_counter()
        cpu = time.thread_time()
        reference()
        self.ratios.append(REFERENCE_S / max(time.thread_time() - cpu, 1e-9))
        self.times.append(start)
        self.spent += time.perf_counter() - start

    def start(self):
        for _ in range(5):
            self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def rescale(self, ops) -> None:
        """Set each operation's speed, unless it has one, to the mean ratio
        sampled during it and within WINDOW_S of it."""
        for op in ops:
            if op.speed is not None:
                continue
            lo = bisect.bisect_left(self.times, op.start - WINDOW_S)
            hi = bisect.bisect_right(self.times, op.start + op.raw_seconds + WINDOW_S)
            window = self.ratios[lo:hi] or self.ratios[max(0, lo - 1):lo + 1]
            op.speed = sum(window) / len(window)
