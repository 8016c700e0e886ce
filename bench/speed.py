"""Machine-speed scaling of wall times on a shared host.

On a shared host the speed of one core swings by up to 2x within a second,
as neighbours come and go, and every wall time swings with it.  A
``SpeedMeter`` times a fixed pure-Python loop right before and right after
an interval and, from a periodic timer signal, every ``PERIOD_S`` inside it.
The interval's wall time, less the time spent in those in-interval samples,
is then scaled by ``REF_SAMPLE_S / (mean sample time)``: the swing cancels,
and any change in the measured program's own work shows in full.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

SAMPLE_ITERATIONS = 500
#: Time of one sample at the reference speed, about the loop's time on an
#: uncontended 2-vCPU x86-64 VM running CPython 3.11.
REF_SAMPLE_S = 0.00025
PERIOD_S = 0.01
EDGE_SAMPLES = 4


def sample() -> float:
    """Seconds taken by a fixed loop of small allocations and dict updates.

    Contention slows allocation-heavy interpreter code more than plain
    integer arithmetic, so the loop mixes both, as impsel's code does.
    """
    started = perf_counter()
    counts: dict[int, int] = {}
    for i in range(SAMPLE_ITERATIONS):
        key = (i * 7919) % 509
        members = frozenset((key, key + 1, key + 2, i & 7))
        counts[key] = counts.get(key, 0) + len(members)
    return perf_counter() - started


class SpeedMeter:
    """Scales the wall time of intervals to the reference machine speed.

    ``samples`` keeps every sample taken, for the run's machine record.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._inside: list[float] = []
        self._tick_cost = 0.0

    def _tick(self, signum, frame) -> None:
        entered = perf_counter()
        self._inside.append(sample())
        self._tick_cost += perf_counter() - entered

    def edge(self) -> list[float]:
        """Samples taken at one edge of an interval."""
        taken = [sample() for _ in range(EDGE_SAMPLES)]
        self.samples.extend(taken)
        return taken

    @staticmethod
    def scale(work: float, taken: list[float]) -> float:
        return work * REF_SAMPLE_S / statistics.fmean(taken)

    def measure(self, fn, periodic: bool = True):
        """Run ``fn()``; return its result, its scaled time and its wall time.

        ``periodic=False`` samples only at the edges, for intervals where
        the process waits on a child or runs traced code.
        """
        before = self.edge()
        self._inside, self._tick_cost = [], 0.0
        sampling = periodic and hasattr(signal, "setitimer")
        if sampling:
            previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        started = perf_counter()
        try:
            result = fn()
        finally:
            wall = perf_counter() - started
            if sampling:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        self.samples.extend(self._inside)
        taken = before + self._inside + self.edge()
        return result, self.scale(wall - self._tick_cost, taken), wall
