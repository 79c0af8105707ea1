"""Order statistics for latency samples."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

# Candidate tail percentiles, highest first.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_ABOVE = 10


def percentile(samples: Sequence[float], p: float) -> tuple[float, int]:
    """Nearest-rank p-th percentile of samples and the count of samples above its rank."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    idx = max(math.ceil(p / 100.0 * len(xs)) - 1, 0)
    return xs[idx], len(xs) - idx - 1


def tail_percentile(samples: Sequence[float],
                    min_above: int = MIN_ABOVE) -> Optional[tuple[float, float]]:
    """(p, value) for the highest candidate percentile with at least
    ``min_above`` samples above it, or None when even the median has fewer."""
    if not samples:
        return None
    for p in PERCENTILES:
        value, above = percentile(samples, p)
        if above >= min_above:
            return p, value
    return None


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def geometric_mean(samples: Sequence[float]) -> float:
    return statistics.geometric_mean(samples)
