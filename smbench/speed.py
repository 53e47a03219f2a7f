"""Machine-speed samples, for timings that hold still on a shared host.

On a small shared host the CPU speed seen by one process drifts by tens
of percent within seconds as other tenants load it, and a wall time
taken over one pass of a workload moves with it.  Process CPU time moves
with it too, because the process is slowed while it runs rather than
descheduled, so it is no steadier than wall time.  ``SpeedProbe`` interrupts
the process every ``PERIOD_S`` seconds (SIGALRM) and times a fixed loop that
does the same kind of work as the library: small-integer arithmetic, list
pushes and pops, dictionary stores.  ``scaled`` rescales a timed interval to
the nominal speed, at which the loop takes ``NOMINAL_S``: the interval's
wall time, less the probe's own time, times the mean of nominal over
observed loop times around the interval.  The probe costs about 0.5% of the
run.
"""

import bisect
import signal
import time
from typing import List

PERIOD_S = 0.1
NOMINAL_S = 4e-4
# samples this far outside an interval still describe it
WINDOW_S = 0.5


def probe_loop(n: int = 2500) -> int:
    out: List[int] = []
    seen = {}
    for i in range(n):
        x = (i * 7) % 13 - 6
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
        seen[x] = i
    return len(out)


class SpeedProbe:
    """Loop timings taken on a timer while the process works."""

    def __init__(self):
        self.starts: List[float] = []
        self.times: List[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe_loop()
        self.starts.append(t0)
        self.times.append(time.perf_counter() - t0)

    def start(self) -> None:
        probe_loop()  # let the interpreter specialise the loop first
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _span(self, a: float, b: float) -> tuple:
        return (bisect.bisect_left(self.starts, a),
                bisect.bisect_left(self.starts, b))

    def factor(self, a: float, b: float) -> float:
        """Mean ratio of nominal to observed speed around [a, b]."""
        i, j = self._span(a - WINDOW_S, b + WINDOW_S)
        if i == j:  # no sample near: take the nearest one
            i, j = max(i - 1, 0), min(i + 1, len(self.times))
        if i == j:
            return 1.0
        return sum(NOMINAL_S / t for t in self.times[i:j]) / (j - i)

    def scaled(self, a: float, b: float) -> float:
        """Seconds the interval [a, b] of perf_counter time would take at
        nominal speed, without the probe's own samples."""
        i, j = self._span(a, b)
        return (b - a - sum(self.times[i:j])) * self.factor(a, b)
