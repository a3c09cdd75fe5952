"""The machine's speed, sampled while a pass runs, and times scaled to it.

The host this benchmark was built on lends its cores to other tenants, and
the same pure-Python loop there runs up to 25% faster or slower from one
second to the next and from one minute to the next.  Raw times of the same
code then spread across runs by about as much as any useful bound.

So a ``SpeedProbe`` runs a fixed reference loop (``kernel``) every
``INTERVAL_S`` of wall time, from a SIGALRM handler, and keeps each sample's
time.  A measured interval is then reported as

    (its wall time - the probe's own time inside it) * REF_S / m

where m is the median sample taken from ``WINDOW_S`` before the interval to
``WINDOW_S`` after it.  That is the interval's time on a machine that runs
the reference loop in ``REF_S``: the program's own speed-ups and slow-downs
show in full, the host's swings mostly cancel.  The loop is benchmark code
with a tiny working set, so the program's state does not change its time.
"""

import bisect
import signal
from statistics import median
from time import perf_counter

INTERVAL_S = 0.02
WINDOW_S = 0.25
# median time of one kernel() on the machine the baseline was recorded on
# (Intel Xeon, 2 vCPUs, Python 3.11)
REF_S = 0.0004

_TABLE = [[(a * b + a) % 7 for b in range(7)] for a in range(7)]


def kernel():
    """Associativity test of a fixed 7x7 table, 12 times: list indexing and
    integer compares, like the program's inner loops."""
    t, n = _TABLE, 0
    for _ in range(12):
        for a in range(7):
            ra = t[a]
            for b in range(7):
                rab, rb = t[ra[b]], t[b]
                for c in range(7):
                    n += rab[c] == ra[rb[c]]
    return n


class SpeedProbe:
    def __init__(self):
        self.mids = []      # sample midpoints, in perf_counter seconds
        self.times = []     # sample durations, same order
        self.stolen = 0.0   # seconds spent in samples so far
        self._busy = False

    def _sample(self, *_):
        if self._busy:
            return
        self._busy = True
        start = perf_counter()
        kernel()
        end = perf_counter()
        self.mids.append((start + end) / 2)
        self.times.append(end - start)
        self.stolen += end - start
        self._busy = False

    def start(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def mark(self):
        """A point in time: ``(perf_counter(), probe time so far)``."""
        return perf_counter(), self.stolen

    def scaled(self, begin, end):
        """Seconds between two marks, without the probe's own time, at the
        reference speed."""
        (t0, s0), (t1, s1) = begin, end
        lo = bisect.bisect_left(self.mids, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.mids, t1 + WINDOW_S)
        near = self.times[lo:hi] or self.times
        return (t1 - t0 - (s1 - s0)) * REF_S / median(near)

    def speed(self):
        """The whole pass's speed against the reference: 1 is REF_S."""
        return REF_S / median(self.times)
