"""Order statistics the ladder reports timings with."""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

#: Percentiles a tail may be reported at, lowest first.
TAIL_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)
#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def tail(values: Sequence[float]) -> tuple[float, float, int] | None:
    """The highest percentile with at least :data:`MIN_BEYOND` samples
    beyond it, as (percentile, value, sample count); None when even the
    median has fewer than that many samples above it.

    Nearest-rank: the p-th percentile is the ``ceil(p/100 * n)``-th
    smallest sample, and the samples beyond it are those ranked above.
    """
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= MIN_BEYOND:
            best = (p, ordered[rank - 1], n)
    return best
