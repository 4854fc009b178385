"""Order statistics used by the benchmark.

Percentiles use the nearest-rank rule, so a reported percentile is
always one of the measured samples.  A tail percentile is only reported
when at least ``MIN_BEYOND`` samples lie above it.
"""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10


def _rank(n, q):
    """1-based nearest rank of the q-th percentile among n samples."""
    if n < 1:
        raise ValueError("no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError("percentile must lie in (0, 100]")
    # round() guards against 0.99 * 1000 landing a hair above 990
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def samples_beyond(n, q):
    """Samples strictly above the nearest-rank q-th percentile."""
    return n - _rank(n, q)


def percentile(values, q):
    xs = sorted(values)
    return xs[_rank(len(xs), q) - 1]


def tail(values, q, min_beyond=MIN_BEYOND):
    """The q-th percentile, refusing one with too few samples beyond it."""
    have = samples_beyond(len(values), q)
    if have < min_beyond:
        raise ValueError(f"p{q:g} of {len(values)} samples has {have} "
                         f"beyond it, need {min_beyond}")
    return percentile(values, q)


def median(values):
    return statistics.median(values)


def quartile_spread(values):
    """(Q3 - Q1) / median, the run-to-run spread the bounds are set against."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
