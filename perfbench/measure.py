"""Order statistics shared by the end-to-end and per-layer metrics."""

from __future__ import annotations

import math

# candidate tail percentiles, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> float:
    """Highest ladder percentile that leaves at least ten samples beyond it.

    With fewer than twenty samples no percentile above the median leaves ten
    beyond it, so the median is the tail.
    """
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            return p
    return 50.0


def tail(values: list[float]) -> tuple[float, float]:
    """(tail percentile used, its value) for one set of samples."""
    p = tail_percentile(len(values))
    return p, percentile(values, p)


def growth_ratio(values: list[float]) -> float:
    """Mean of the last quarter of an ordered series over the mean of the first."""
    q = len(values) // 4
    if q == 0:
        raise ValueError("growth ratio needs at least four samples")
    first = sum(values[:q]) / q
    last = sum(values[-q:]) / q
    return last / first

