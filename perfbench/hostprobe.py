"""Host speed, sampled all through a worker process.

The shared host this benchmark was tuned on alternates, every few seconds to
minutes, between a fast state and one about 30% slower, in CPU time as well
as wall time.  Raw times of the same code therefore differ from run to run by
more than any bound worth keeping.  A HostProbe times a fixed pure-Python
loop, which touches nothing of the program, every INTERVAL_S seconds from a
SIGALRM handler in the worker's main thread.  run.py divides each time by the
median probe taken while it was measured, which removes the host's state and
leaves a change to the program in full.  Probe time that fell inside a timed
interval is taken out of that interval.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.1
LOOPS = 20_000
# A timed interval is charged the probes from MARGIN_S before it to MARGIN_S
# after it, so that even a short pass gets several.
MARGIN_S = 0.25


class HostProbe:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        x = 0
        for i in range(LOOPS):
            x += i * i
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def inside(self, begin: float, end: float) -> float:
        """Total probe time that began in [begin, end) (perf_counter times)."""
        lo = bisect.bisect_left(self.starts, begin)
        hi = bisect.bisect_left(self.starts, end)
        return sum(self.durations[lo:hi])

    def speed(self, begin: float, end: float) -> float:
        """Median probe duration around [begin, end]; the nearest probe if none."""
        lo = bisect.bisect_left(self.starts, begin - MARGIN_S)
        hi = bisect.bisect_right(self.starts, end + MARGIN_S)
        if lo < hi:
            return statistics.median(self.durations[lo:hi])
        nearest = min(max(lo, 0), len(self.starts) - 1)
        return self.durations[nearest]
