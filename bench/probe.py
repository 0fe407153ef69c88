"""Machine-speed probes, and the scale that puts request times at a
reference speed.

On a shared machine the speed of one core moves by a factor of two within
minutes (measured on a 2-core VM, where a fixed loop ran 1.7 to 3 times
slower at one hour than at another, and its median over 2-second windows
moved by 40 % within one minute).  Process CPU time moves with it, so it
does not help.  The benchmark therefore times a fixed probe that uses no
package code right before and right after every request, and reports each
request time scaled to a reference speed:

    reported = measured * REFERENCE_S[kind] / median(probe points around it)

where each probe point is the median of REPS probe timings, and the points
around a request are the one right before it, the one right after it and
WINDOW more on each side.  Scaling each request by the speed around it,
not by one figure for the whole run, follows the machine's swings within a
run as well as between runs.  Set-up time, one stretch of about a second
before the requests, is scaled by the run's median probe point instead.

The probe does the same kind of machine work as the workload it runs in:
`interp` (a pure-Python integer loop and big-integer products) for the
route and lift workloads, and `array` (20 000 binary searches in a sorted
numpy array of 10^6 int64) for `graph-sweep`.  The array is 8 MB, larger
than a core's L2 cache, as are the arrays `graph-sweep` searches: a probe
whose data fit in L2 missed a 35 % slowdown of `graph-sweep`, most likely
from contention for the shared L3 cache.  The reference constants are
fixed; changing a probe or its constant moves every time metric, so a
later change must keep both.
"""

import statistics
import time
from typing import Callable, Dict, List

import numpy as np

# fixed probe times, near the medians seen at quiet times on the 2-core VM
# the benchmark was written on; a request timed at that speed is reported
# unscaled
REFERENCE_S: Dict[str, float] = {"interp": 1.5e-3, "array": 7.5e-3}
# probe timings per probe point
REPS = 3
# probe points on each side of an interval's own two that its scale uses
WINDOW = 2

_BIG = 3 ** 20000 | 1
_RNG = np.random.default_rng(0)
_KEYS = np.sort(_RNG.integers(0, 1 << 40, 1_000_000))
_QUERY = _RNG.integers(0, 1 << 40, 20_000)


def _interp() -> int:
    acc = 0
    for i in range(8000):
        acc += i * i % 7
    x = _BIG
    for _ in range(2):
        x = (x * _BIG) >> 31000
    return acc + (x & 1)


def _array() -> int:
    ids = np.minimum(np.searchsorted(_KEYS, _QUERY), len(_KEYS) - 1)
    return int(_KEYS[ids].sum())


PROBES: Dict[str, Callable[[], int]] = {"interp": _interp, "array": _array}


class Speed:
    """The probe points of one run, the intervals timed between them, and
    the scales derived from them."""

    def __init__(self, kind: str):
        self.kind = kind
        self.points: List[float] = []
        # per interval, the index of the probe point taken right before it
        self.intervals: List[int] = []

    def point(self) -> None:
        """Record a probe point: the median seconds of REPS probe timings."""
        fn = PROBES[self.kind]
        samples = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
        self.points.append(statistics.median(samples))

    def interval(self, fn: Callable[[], None], fresh: bool) -> None:
        """Run fn between two probe points; with fresh false, the last point
        taken serves as the one before."""
        if fresh or not self.points:
            self.point()
        self.intervals.append(len(self.points) - 1)
        fn()
        self.point()

    def scales(self) -> List[float]:
        """Per interval, the factor that puts it at the reference speed
        (below 1 when the machine ran slower): the reference time over the
        median of the points around it, WINDOW on each side beyond the two
        that bracket it.  The median keeps one disturbed probe point from
        rescaling a request."""
        return [REFERENCE_S[self.kind]
                / statistics.median(self.points[max(0, i - WINDOW):i + 2 + WINDOW])
                for i in self.intervals]

    @property
    def run_scale(self) -> float:
        """The scale of the run as a whole, from its median probe point."""
        return REFERENCE_S[self.kind] / statistics.median(self.points)
