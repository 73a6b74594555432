"""Order statistics used by the benchmark report."""

import math
from fractions import Fraction

# Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _rank(count: int, p: float) -> int:
    """1-based nearest rank of the p-th percentile, computed exactly so that
    p = 99.9 of 10000 samples is rank 9990, not 9991."""
    share = Fraction(p).limit_denominator(1000) / 100
    return max(1, math.ceil(share * count))


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending list (p in (0, 100])."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    return sorted_values[_rank(len(sorted_values), p) - 1]


def beyond(count: int, p: float) -> int:
    """Samples ranked above the nearest-rank p-th percentile of `count`."""
    return count - _rank(count, p)


def tail(values):
    """(value, percentile, samples beyond) for the highest ladder percentile
    that has at least ten samples beyond it.

    With fewer than 20 samples no ladder percentile qualifies, and the
    maximum is reported as percentile 100 with no samples beyond it.
    """
    xs = sorted(values)
    for p in TAIL_LADDER:
        if beyond(len(xs), p) >= 10:
            return percentile(xs, p), p, beyond(len(xs), p)
    return xs[-1], 100.0, 0
