"""Order statistics the ledger reports (stdlib only)."""

import statistics

median = statistics.median

#: A percentile is reported only when at least this many pooled
#: samples lie beyond it.
MIN_BEYOND = 10


def percentile(values, q):
    """Linear-interpolated ``q`` quantile (0..1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def supports_percentile(n_samples, q):
    """True when ``MIN_BEYOND`` of ``n_samples`` lie beyond ``q``."""
    return n_samples * (1.0 - q) >= MIN_BEYOND


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0
