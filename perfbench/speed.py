"""Machine-speed sampling, so that timings compare across a shared host's
fast and slow phases.

On a shared machine the same pure-Python work runs up to 1.7 times slower
for stretches of a fraction of a second to minutes, and the run-to-run spread
of a whole run's throughput reaches 20-30 %. A probe is a fixed piece of
interpreter work of the same kind as meetlogic's (tuples, dicts, lists,
small function calls), about 0.2 ms long. Between two queries, once at least
``EVERY_S`` of wall time has passed since the last one, the harness takes a
sample: the fastest of ``BURST`` probes, since the first probe after the
program ran pays for cold caches. Probes run with the garbage collector
paused, so they neither pay for nor trigger a collection of the program's
heap, and free everything they allocate. Samples are taken outside the timed
part of a query, so measured latencies do not include them.

A query's latency is reported at reference speed: its measured latency times
``REF_S`` over the median sample taken within ``HALF_WINDOW_S`` of the query
(or the nearest sample on each side). Metrics therefore read in seconds of a
machine on which one probe takes ``REF_S``; a program that does the same work
faster or slower moves them as it moves the raw timings, which each result
keeps in its details.
"""
from __future__ import annotations

import bisect
import gc
import statistics
import time

REF_S = 0.0002  # one probe's duration on the reference machine
EVERY_S = 0.02  # wall time between two samples
BURST = 3
HALF_WINDOW_S = 0.1


def _step(t, d):
    return d.get(t[1:], 0) + len(t)


def _kernel():
    d = {}
    for i in range(250):
        t = (i, i & 7, (i * 31) % 97)
        d[t] = _step(t, d)
        d[t[1:]] = [t]
    return len(d)


def probe() -> float:
    """Duration of one run of the fixed probe work, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        _kernel()
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


def sample() -> float:
    return min(probe() for _ in range(BURST))


class Clock:
    """Samples machine speed while it is entered, between recorded queries;
    gives each recorded query's latency at reference speed."""

    def __init__(self):
        self.starts: list = []  # when each sample began
        self.durs: list = []  # the sample: fastest probe of the burst
        self.queries: list = []  # (start, end, measured latency)

    def _sample(self):
        self.starts.append(time.perf_counter())
        self.durs.append(sample())

    def __enter__(self):
        self._sample()
        return self

    def __exit__(self, *exc):
        self._sample()
        return False

    def record(self, start: float, latency: float) -> None:
        """Record a query that has just returned, and sample machine speed if
        the last sample is ``EVERY_S`` old."""
        self.queries.append((start, start + latency, latency))
        if time.perf_counter() - self.starts[-1] >= EVERY_S:
            self._sample()

    def factor(self, start: float, end: float) -> float:
        """Median sample within ``HALF_WINDOW_S`` of a query, or the nearest
        sample on each side when none is that close."""
        lo = bisect.bisect_left(self.starts, start - HALF_WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + HALF_WINDOW_S)
        if hi - lo < 2:
            at = bisect.bisect_left(self.starts, start)
            lo, hi = max(at - 1, 0), min(at + 1, len(self.starts))
        return statistics.median(self.durs[lo:hi])

    def normalized(self) -> list:
        """Each recorded query's latency at reference speed, in order."""
        return [lat * REF_S / self.factor(start, end) for start, end, lat in self.queries]

    def speed(self) -> float:
        """Median sample over the reference probe: above 1 on a slower machine."""
        return statistics.median(self.durs) / REF_S
