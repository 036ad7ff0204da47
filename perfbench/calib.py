"""Machine-speed calibration shared by the load generator and the workers.

The host this benchmark was written on hands out shares of a CPU whose speed
swings by up to 2x, in phases that last from a few seconds to minutes, with
nothing else running.  A raw wall time then says more about the phases it
happened to fall in than about the program.  So the timed end-to-end figures
are given in reference seconds: the time the same work would take on a
machine where one run of a fixed loop takes ``REF_S``.

A ``Sampler`` runs that loop every ``INTERVAL_S`` of wall time, from a
SIGALRM handler, while the timed work runs.  The samples are spread evenly
over the work, so they see the same phases it does.  A span's reference time
is its wall time, less the time spent in the handler, times the mean speed
``REF_S / sample`` over the samples taken inside the span.

The loop is pure-Python ``Fraction`` arithmetic, the kind of work paracr
does, and it does not touch paracr, so no change to paracr can move it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

LOOP = 400  # Fraction additions per sample
REF_S = 0.0015  # one sample's time on the reference machine
INTERVAL_S = 0.025  # wall time between samples


def sample() -> float:
    """Seconds for one run of the fixed loop.

    The cyclic garbage collector is off meanwhile: with it on, a sample taken
    in a worker that holds a large heap would time a collection of that heap.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = Fraction(0)
        for i in range(LOOP):
            total += Fraction(i % 97, 1 + i % 13)
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Sampler:
    """Speed samples taken on a timer while the process works."""

    def __init__(self):
        self.speeds = []  # REF_S / sample time, in the order taken
        self.spent = 0.0  # wall time spent in the handler

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.speeds.append(REF_S / sample())
        self.spent += time.perf_counter() - t0

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self, t0=None):
        """The start of a span: now (or t0), and the samples so far."""
        return (time.perf_counter() if t0 is None else t0, len(self.speeds), self.spent)

    def since(self, mark):
        """(seconds, reference seconds) of the work since ``mark``, handler time left out."""
        t0, n0, spent0 = mark
        net = time.perf_counter() - t0 - (self.spent - spent0)
        speeds = self.speeds[n0:] or [REF_S / sample()]  # a span shorter than one interval
        return net, net * statistics.fmean(speeds)
