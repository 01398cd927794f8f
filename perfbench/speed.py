"""Speed probe: request time in reference seconds.

The benchmark's host shares its cores with other work, and its speed
moves by up to 2x over minutes (the same advise-fig2 request took 16 s
to 39 s within one hour, with little steal time: the slowdown is
contention, not lost time slices).  Medians within one run cannot remove
a drift that is slower than the run.

So a fixed reference computation, ``reference_work``, runs every
``INTERVAL_S`` throughout a run's timed loop, from a ``SIGALRM`` handler
in the main thread, on the cores the requests run on.  Each tick
runs it twice and times the second pass: the first refills the caches
the request evicted, so the sample measures the core's speed, not the
program's cache footprint.  The samples are evenly spaced in time, so
the machine's mean speed over an interval is the mean of
``REFERENCE_S / sample`` over the samples in it, and a request's::

    reference seconds = seconds * mean speed within WINDOW_S of it

is its latency on a machine where one probe takes ``REFERENCE_S``.  The
window follows a drift within a run, and holds a few samples even for a
request shorter than ``INTERVAL_S``.

The probe is code of the benchmark, never of the program, so a change
to the program moves the request's time but not the probe's.  It holds
the GIL throughout (numpy releases it only on arrays of more than 500
elements), so a service thread never makes it wait.  Contention for
memory bandwidth slows the program more than the cache-resident probe,
so that part of the drift stays in the reference seconds.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
WINDOW_S = 1.0
REFERENCE_S = 0.0004
"""Sets the scale only: about one probe inside an advise-fig2 request
on a 2-vCPU Xeon at 2.0 GHz."""

_LEFT = np.linspace(0.0, 1.0, 256)
_RIGHT = _LEFT[::-1].copy()


def reference_work() -> float:
    """About 0.4 ms of dictionary, tuple and small-array work, the mix
    the advisor's pricing loops run."""
    table: dict[tuple[int, int], int] = {}
    total = 0
    for i in range(600):
        table[i, i & 7] = i
        total += table.get((i - 1, (i - 1) & 7), 0)
    value = 0.0
    for _ in range(24):
        value += float(np.minimum(_LEFT, _RIGHT).sum())
    return total + value


class SpeedProbe:
    """Times ``reference_work`` every ``INTERVAL_S`` while entered.

    Enter it around a run's timed loop.  Only the main thread may
    enter it.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        """``(time.perf_counter() at the start, seconds)`` per probe."""
        self._previous = None

    def _tick(self, signum, frame) -> None:
        reference_work()
        began = time.perf_counter()
        reference_work()
        self.samples.append((began, time.perf_counter() - began))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a loop shorter than INTERVAL_S
            self._tick(signal.SIGALRM, None)

    def speed(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Mean speed relative to the reference machine over the samples
        taken from ``start`` to ``end``, or over the run if none were."""
        inside = [
            seconds for began, seconds in self.samples
            if start <= began <= end
        ] or [seconds for _, seconds in self.samples]
        return statistics.fmean(REFERENCE_S / seconds for seconds in inside)

    def reference_seconds(self, began: float, ended: float) -> float:
        """A request timed from ``began`` to ``ended`` (``perf_counter``
        readings) in reference seconds."""
        return (ended - began) * self.speed(
            began - WINDOW_S, ended + WINDOW_S
        )
