"""A speedometer for a shared host: how fast the CPU runs Python right now.

The VM this benchmark was tuned on gives the process a share of cores that
other tenants also use; the same pure-Python loop runs up to about three
times slower at one moment than at another, in stretches from under a
second to minutes, and CPU time follows wall time, so no clock of the
process separates the program from the host.  The speedometer samples the
host's speed all through the timed work: a SIGALRM every ``PERIOD`` seconds
on average (jittered, so that the samples do not lock onto a periodic
neighbour) runs a fixed pure-Python kernel in the main thread and records
how long it took.  The kernel does what the checkers do, on a table of its
own: it builds a small table of tuples, groups it into value classes and
looks pairs of tuples up, so host contention slows it as it slows the
package, while no change to the package can speed it up or slow it down.

``reference_seconds(start, end)`` turns the wall interval ``[start, end]``
into reference seconds: the wall time minus the kernel's own samples inside
it, times the mean speed over the samples taken during and next to it,
where speed is ``REFERENCE_KERNEL_S`` over the sample's duration.  A
reference second is the time the work would take on this host at the
speed at which the kernel takes ``REFERENCE_KERNEL_S``, the fastest speed
seen on it (a 2-core Xeon VM, Python 3.11).  The raw wall times are kept
beside the reference times in every report.
"""

from __future__ import annotations

import bisect
import random
import signal
from itertools import product
from time import perf_counter

PERIOD = 0.1
REFERENCE_KERNEL_S = 0.00037
#: samples up to this far outside an interval also count for it, so that an
#: interval shorter than the period still gets two or three samples
MARGIN = 1.5 * PERIOD
SYMBOLS = ("0", "1", "2")


def kernel(rounds=2):
    """Tuple and dict work like a checker's scan: 0.37 ms at full speed."""
    agree = 0
    for r in range(rounds):
        table = {
            t: SYMBOLS[(sum(map(int, t)) * 7 + r) % 3]
            for n in (1, 2, 3, 4)
            for t in product(SYMBOLS, repeat=n)
        }
        classes = {}
        for t, v in table.items():
            classes.setdefault(v, []).append(t)
        for v, members in classes.items():
            for a in members[:12]:
                for b in members[:12]:
                    agree += table.get((a + b)[:4]) == v
    return agree


class Speedometer:
    """Samples the kernel on a timer while in use as a context manager."""

    def __init__(self):
        self.starts = []
        self.ends = []
        self._previous = None
        self._jitter = random.Random(0)

    def _arm(self):
        signal.setitimer(signal.ITIMER_REAL, PERIOD * self._jitter.uniform(0.5, 1.5))

    def _tick(self, signum, frame):
        t0 = perf_counter()
        kernel()
        self.starts.append(t0)
        self.ends.append(perf_counter())
        self._arm()

    def __enter__(self):
        kernel()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._arm()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def sampling_s(self, start, end):
        """Seconds spent in the kernel's samples inside ``[start, end]``."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return sum(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def speed(self, start, end):
        """Mean speed (reference kernel time over sample time) around ``[start, end]``."""
        lo = bisect.bisect_left(self.starts, start - MARGIN)
        hi = bisect.bisect_right(self.starts, end + MARGIN)
        if lo == hi:
            raise RuntimeError("no speed sample near a timed interval; is the timer running?")
        speeds = [REFERENCE_KERNEL_S / (self.ends[i] - self.starts[i]) for i in range(lo, hi)]
        return sum(speeds) / len(speeds)

    def wall_seconds(self, start, end):
        """Wall seconds of ``[start, end]`` without the kernel's samples."""
        return end - start - self.sampling_s(start, end)

    def reference_seconds(self, start, end):
        return self.wall_seconds(start, end) * self.speed(start, end)

    def kernel_ms(self):
        """Every sample's kernel time, in ms."""
        return [1000 * (e - s) for s, e in zip(self.starts, self.ends)]
