"""Host-speed probe: times at a fixed host speed.

The host this benchmark runs on is shared, and its speed moves by 10-50%
over seconds to minutes.  Every kind of work slows together: a
pure-Python loop, small numpy products and a 600x600 integer matrix
product, timed in turn, kept their ratios within 5-6% while each one
alone moved by 20% (their 6 s medians correlated at 0.98).  So a timed
pass samples the host's speed while it runs: every INTERVAL_S a SIGALRM
handler runs PROBE, a fixed pure-Python loop, in the same process and on
the same CPU as the work.  Each probe first runs a short untimed warm-up,
so that the cache state the program leaves behind moves the probe little.

`reference_time` takes the probes out of an interval and scales each
stretch of work between two probes by REFERENCE_S over the probe time
there (the median of the SMOOTH probes around it).  The result is the
interval's time at the host speed where one probe takes REFERENCE_S,
about the probe's time inside a pass when the host is fast.

The probes cost about 2% of a pass.  Code that stays in C for longer
than INTERVAL_S is probed when it returns.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.1
PROBE_ITERATIONS = 20000
WARMUP_ITERATIONS = 2000
REFERENCE_S = 0.0018
SMOOTH = 5


def probe(iterations: int = PROBE_ITERATIONS) -> int:
    s = 0
    for i in range(iterations):
        s += i * i % 7
    return s


def sample() -> tuple[float, float, float]:
    """One warmed-up probe: (start, start of the timed part, end)."""
    t0 = time.perf_counter()
    probe(WARMUP_ITERATIONS)
    t1 = time.perf_counter()
    probe()
    return t0, t1, time.perf_counter()


def probe_time(n: int) -> float:
    """Median time of n probes run now."""
    return statistics.median(end - timed for _, timed, end in (sample() for _ in range(n)))


class SpeedMeter:
    """Probes the host every INTERVAL_S while active; a context manager."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[tuple[float, float, float]] = []

    def _tick(self, signum, frame):
        self.samples.append(sample())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def reference_time(samples: list[tuple[float, float, float]], t0: float, t1: float) -> float:
    """Time of [t0, t1] without its probes, at the reference host speed.

    A stretch of work is scaled by the probe that follows it, smoothed
    with its neighbours.  Work after the last probe uses the last one.
    """
    if not samples:
        raise ValueError("no speed samples")
    durations = [end - timed for _, timed, end in samples]
    half = SMOOTH // 2
    speed = [
        REFERENCE_S / statistics.median(durations[max(0, i - half): i + half + 1])
        for i in range(len(samples))
    ]
    starts = [start for start, _, _ in samples]
    total = 0.0
    i = bisect.bisect_left(starts, t0)
    at = t0
    while True:
        if i < len(samples) and starts[i] < t1:
            total += (starts[i] - at) * speed[i]
            at = samples[i][2]
            i += 1
        else:
            return total + max(0.0, t1 - at) * speed[min(i, len(samples) - 1)]
