"""Order statistics the ledger reports: medians, the percentile rule, spread."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence, Tuple

#: Percentiles a latency series may be summarized at, lowest first.
PERCENTILES: Tuple[float, ...] = (0.5, 0.9, 0.99, 0.999, 0.9999)

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def _rank(n: int, q: float) -> int:
    """Nearest rank (1-based) of the ``q`` percentile among ``n`` samples."""
    # The tolerance keeps 1000 * 0.999 = 999.0000000000001 at rank 999.
    return min(n, max(1, math.ceil(n * q - 1e-9)))


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending series."""
    if not sorted_values:
        raise ValueError("percentile of an empty series")
    return float(sorted_values[_rank(len(sorted_values), q) - 1])


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples rank above the ``q`` percentile."""
    return n - _rank(n, q) if n else 0


def highest_supported_percentile(n: int) -> float:
    """The highest of :data:`PERCENTILES` with >= 10 samples beyond it.

    Falls back to the median for tiny series: a tail read off fewer than ten
    samples is an anecdote, not a percentile.
    """
    best = PERCENTILES[0]
    for q in PERCENTILES:
        if samples_beyond(n, q) >= MIN_SAMPLES_BEYOND:
            best = q
    return best


def tail(sorted_values: Sequence[float], q: float) -> float:
    """The ``q`` percentile, or the highest supported one when ``q`` is not.

    A p99.9 named over 5,000 samples would be read off five of them; it is
    reported at p99 instead.
    """
    return percentile(sorted_values,
                      min(q, highest_supported_percentile(len(sorted_values))))


def spread(values: Sequence[float]) -> float:
    """Run-to-run spread: interquartile distance as a share of the median.

    The same rule the driver applies (``statistics.quantiles(values, n=4)``);
    below four samples the quartiles are not defined well enough, so the
    full range stands in (the conservative choice).
    """
    if len(values) < 2:
        return 0.0
    middle = median(values)
    if middle == 0:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(middle)
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(middle)


def summarize(values: List[float]) -> Dict[str, float]:
    return {"median": median(values), "min": min(values), "max": max(values),
            "n": len(values), "spread": spread(values)}
