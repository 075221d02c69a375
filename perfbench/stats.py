"""Summary statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics
import struct
import time

import numpy as np

#: percentiles a tail may be reported at, highest first
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10
#: relative errors below this are float64 rounding between two evaluation
#: orders of the same formula; they are reported as this floor
ERR_FLOOR = 1e-12
#: throughputs and closed-loop latencies come from the quietest quarter
#: of a run's repeated units of identical work, and from no fewer than
#: MIN_QUIET of them
QUIET_SHARE = 0.25
MIN_QUIET = 2
#: seconds the gauge's reference work takes on the nominal host, about a
#: two-core VM with nothing else running; every reported time is scaled
#: to that host
GAUGE_NOMINAL_S = 1.5e-3


def quietest(units: list, cost) -> list:
    """The :data:`QUIET_SHARE` of ``units`` (at least :data:`MIN_QUIET`)
    with the lowest ``cost``.

    The units must do identical work, so their costs differ only by what
    else ran on the host at the time: the selection drops the units that a
    slowdown of the host shorter than the run hit. :class:`Gauge` corrects
    for a slowdown that lasts the whole run.
    """
    ordered = sorted(units, key=cost)
    return ordered[:max(MIN_QUIET, math.ceil(QUIET_SHARE * len(ordered)))]


class Gauge:
    """The host's speed, read by timing a fixed reference computation.

    A co-tenant of a shared host can slow it by a third or more for
    minutes at a time, longer than a run. The program and the reference
    (an interpreter loop and a numpy sort, the two kinds of work the
    program does) slow down together, so reading the gauge next to a unit
    of work tells how fast the host ran it, and :func:`host_scale` scales
    the unit's seconds to the nominal host. The program slows more than
    the reference: scaling takes out about half of a slowdown.
    """

    #: timings per reading; the fastest is the reading
    REPEATS = 5

    def __init__(self):
        self._array = np.random.default_rng(0).random(40_000)

    def _reference(self) -> float:
        total = 0
        for i in range(15_000):
            total += i * i
        return float(np.sort(self._array)[-1]) + total

    def read(self) -> float:
        """Seconds of the reference work: the fastest of :attr:`REPEATS`."""
        best = math.inf
        for _ in range(self.REPEATS):
            start = time.perf_counter()
            self._reference()
            best = min(best, time.perf_counter() - start)
        return best


def host_scale(readings: list) -> float:
    """Factor that scales seconds timed at these gauge readings to the
    nominal host (divide a rate by it)."""
    return GAUGE_NOMINAL_S / median(readings)


def nearest_rank(sorted_values: list, q: float) -> float:
    """Nearest-rank ``q``-th percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(values: list) -> tuple:
    """``(percentile, value, samples beyond)`` for the highest percentile of
    :data:`TAIL_PERCENTILES` that has at least :data:`MIN_BEYOND` samples
    beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for q in TAIL_PERCENTILES:
        beyond = n - max(1, math.ceil(q / 100.0 * n))
        if beyond >= MIN_BEYOND:
            return q, nearest_rank(ordered, q), beyond
    raise ValueError(
        f"{n} samples leave fewer than {MIN_BEYOND} beyond the median"
    )


def median(values: list) -> float:
    return statistics.median(values)


def bit_equal(a, b) -> bool:
    """Exact equality down to the bits of every float and array element."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and a.tobytes() == b.tobytes()
        )
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(bit_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(bit_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    return bool(a == b)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

