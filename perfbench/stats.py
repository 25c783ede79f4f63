"""Percentiles with the sample-count rule, and run-to-run spread."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: A tail percentile is reported only when at least this many samples
#: lie beyond it; with fewer, the value is one or two outliers.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q <= 1) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile {q} outside (0, 1]")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def samples_beyond(count: int, q: float) -> int:
    """Samples ranked above the nearest-rank ``q``-quantile of ``count``."""
    return count - max(1, math.ceil(q * count))


def tail(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-quantile, or None when fewer than :data:`MIN_BEYOND`
    samples lie beyond it."""
    if samples_beyond(len(values), q) < MIN_BEYOND:
        return None
    return percentile(values, q)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
