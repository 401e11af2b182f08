"""Kullback-Leibler distance between histogram distributions.

Section II-C: each detector computes, at the end of every interval, the
KL distance between the current feature distribution and the previous
interval's distribution (used as the reference, avoiding training):

    D(p || q) = sum_i p_i * log2(p_i / q_i)

Coinciding distributions give 0; deviations give positive spikes at the
start and end of an anomaly.  The paper leaves empty-bin handling
unspecified; we use additive smoothing so the distance stays finite
(``DetectorConfig.pseudocount``; :func:`kl_rows` states the edge
cases).

The detector's distance is computed in exactly one place,
:func:`kl_rows` - a stack of histograms at a time, as the composition
of :func:`smooth_rows` and :func:`divergence_rows` - and each row of
its result is bit-identical to scoring that histogram alone, which is
what lets callers batch (clones of a feature, rounds of a bin
identification) and carry a smoothed histogram forward as the next
interval's reference without moving a checkpointed ``kl_series``
value or an alarm decision.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError

#: Default Laplace pseudo-count applied to both distributions.
DEFAULT_PSEUDOCOUNT = 0.5


def kl_distance(p: np.ndarray, q: np.ndarray) -> float:
    """KL distance (in bits) between two discrete distributions.

    Both inputs must be proper distributions on the same support: equal
    length, non-negative, each summing to ~1.  Zero p-bins contribute 0;
    a zero q-bin with positive p yields ``inf`` (use smoothing upstream
    to avoid this).
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ConfigError(f"shape mismatch: {p.shape} vs {q.shape}")
    if p.ndim != 1:
        raise ConfigError("distributions must be one-dimensional")
    if (p < 0).any() or (q < 0).any():
        raise ConfigError("distributions must be non-negative")
    if not np.isclose(p.sum(), 1.0, atol=1e-6) or not np.isclose(
        q.sum(), 1.0, atol=1e-6
    ):
        raise ConfigError("distributions must sum to 1")
    mask = p > 0
    if not mask.any():
        return 0.0
    with np.errstate(divide="ignore"):
        ratios = np.log2(p[mask] / q[mask])
    return float(np.sum(p[mask] * ratios))


def smooth_rows(
    counts: np.ndarray, pseudocount: float = DEFAULT_PSEUDOCOUNT
) -> tuple[np.ndarray, np.ndarray]:
    """The first half of :func:`kl_rows`: every row of a stack of bin
    counts Laplace-smoothed and normalised, and each row's smoothed
    total (``(R, 1)``; ``(1,)`` for one ``(m,)`` histogram).

    Counts must be non-negative with a finite total per row; anything
    else (NaN included) is a :class:`ConfigError` raised before the
    division, so numpy never warns.  A row whose smoothed total is 0
    (an empty histogram at ``pseudocount == 0``) normalises to NaN,
    which :func:`divergence_rows` reads through its total.  A detector
    keeps this pair for the interval's histograms and hands it back as
    the next interval's reference - the same bits :func:`kl_rows`
    would recompute from the raw counts.
    """
    # Nothing below may warn: what numpy would warn about is either
    # refused (a total that overflows, inf - inf) or has a defined
    # answer (an empty histogram, read through its total).
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rows, totals = smoothed_counts(counts, pseudocount)
        rows /= totals
    return rows, totals


def smoothed_counts(
    counts: np.ndarray, pseudocount: float = DEFAULT_PSEUDOCOUNT
) -> tuple[np.ndarray, np.ndarray]:
    """The first step of :func:`smooth_rows`: a fresh array of ``counts
    + pseudocount`` and its row totals, before normalising - and the
    detection layer's one refusal of counts (negative, NaN, or a total
    that is not finite) and of a pseudocount below 0.  A total that
    overflows is refused after numpy has warned about it: call this
    under ``np.errstate(over="ignore", invalid="ignore")``, as
    :func:`smooth_rows` does."""
    if not pseudocount >= 0:
        raise ConfigError(f"pseudocount must be >= 0: {pseudocount}")
    # A fresh C-ordered array whatever the layout of the input: the
    # row sums below must run over a contiguous axis, and the in-place
    # division must not write into the caller's counts.
    rows = np.add(counts, pseudocount, dtype=np.float64, order="C")
    totals = rows.sum(axis=-1, keepdims=True)
    # NaN fails the first comparison, inf the second.
    if rows.size and not (rows.min() >= 0 and totals.max() < np.inf):
        raise ConfigError(
            "bin counts must be non-negative with a finite total"
        )
    return rows, totals


def divergence_rows(
    current: np.ndarray,
    current_totals: np.ndarray,
    reference: np.ndarray,
    reference_totals: np.ndarray,
) -> np.ndarray:
    """The second half of :func:`kl_rows`: the KL distance (bits) of
    every row of ``current`` against the matching row of ``reference``
    (or against its one row), both as :func:`smooth_rows` returns them.
    Neither input is written."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = np.log2(current / reference)
        terms *= current
    distances = terms.sum(axis=-1)
    if np.isnan(distances).any():
        # A NaN has one source: a bin that is exactly 0 once normalised
        # (pseudocount 0, or a smoothed count that underflows), where
        # 0 * log2(0 / q) is 0 by convention, or a histogram that is
        # empty altogether.
        terms[current == 0] = 0.0
        empty = (current_totals == 0) | (reference_totals == 0)
        terms[empty.ravel()] = 0.0
        distances = terms.sum(axis=-1)
    return distances


def kl_rows(
    current: np.ndarray,
    reference: np.ndarray,
    pseudocount: float = DEFAULT_PSEUDOCOUNT,
) -> np.ndarray:
    """Smoothed KL distance of every row of a stack of bin counts.

    ``current`` is ``(R, m)``; ``reference`` is ``(R, m)`` (row ``i``
    is scored against row ``i``) or ``(m,)`` (every row against the one
    reference).  This is the only KL arithmetic of the detection layer,
    the composition of its two halves :func:`smooth_rows` and
    :func:`divergence_rows`.  Both callers use the halves: the detector
    scores a feature's ``C`` clones, carrying each interval's smoothed
    histograms forward as the next one's reference, and the bin
    identification scores a block of cleaning rounds against a
    reference it smoothed once.

    **Bit-identity contract.**  Row ``i`` of the result is bit for bit
    what a one-row call on ``current[i]`` returns, whatever else is in
    the stack: every step is elementwise or a sum over the contiguous
    last axis, which numpy accumulates pairwise *per row* - so stacking
    changes how many Python calls are made, never a float.  The
    operation order (``+ pseudocount``, row sum, divide,
    ``log2(p / q)``, ``* p``, row sum) is fixed for the same reason:
    the checkpointed ``kl_series`` and the alarm decisions depend on
    the last bit.  ``tests/detection/reference.py`` keeps the 1-D
    original this is checked against.

    Counts must be non-negative with a finite total per row; anything
    else (NaN included) is a :class:`ConfigError` raised before the
    division, so a distance is never NaN and numpy never warns.  With
    ``pseudocount == 0`` an empty current bin contributes 0 (summed in
    place rather than compressed away, so such a row agrees with the
    1-D original to ~1e-12, not to the bit), a positive current bin
    over an empty reference bin gives ``inf``, and a row whose current
    or reference histogram is entirely empty carries no information and
    scores 0.
    """
    if not pseudocount >= 0:
        raise ConfigError(f"pseudocount must be >= 0: {pseudocount}")
    shape = np.shape(current)
    if len(shape) != 2:
        raise ConfigError(
            f"need a (rows, bins) stack of counts, got shape {shape}"
        )
    if np.shape(reference) not in (shape, shape[1:]):
        raise ConfigError(
            f"shape mismatch: {shape} vs {np.shape(reference)}"
        )
    if 0 in shape:
        return np.zeros(shape[0])
    return divergence_rows(
        *smooth_rows(current, pseudocount),
        *smooth_rows(reference, pseudocount),
    )


def kl_from_counts(
    current: np.ndarray,
    reference: np.ndarray,
    pseudocount: float = DEFAULT_PSEUDOCOUNT,
) -> float:
    """KL distance computed from raw bin *counts* with smoothing.

    This is the exact quantity the detector tracks: counts are Laplace-
    smoothed with ``pseudocount`` and normalized before the distance is
    taken.  Smoothing guarantees finiteness even for bins that empty out
    between intervals.  It is the one-row call of :func:`kl_rows`.
    """
    cur = np.asarray(current, dtype=np.float64)
    ref = np.asarray(reference, dtype=np.float64)
    if cur.shape != ref.shape:
        raise ConfigError(f"shape mismatch: {cur.shape} vs {ref.shape}")
    if cur.ndim != 1:
        raise ConfigError("bin counts must be one-dimensional")
    return float(kl_rows(cur[np.newaxis], ref, pseudocount)[0])


def first_difference(series: np.ndarray) -> np.ndarray:
    """First difference of a KL time series; element ``t`` is
    ``series[t] - series[t-1]`` and index 0 is defined as 0.

    The paper observed this difference to be approximately normal with
    zero mean, which justifies the MAD-based threshold of
    :mod:`repro.detection.threshold`.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 1:
        raise ConfigError("KL series must be one-dimensional")
    if len(series) == 0:
        return np.empty(0, dtype=np.float64)
    diff = np.empty_like(series)
    diff[0] = 0.0
    diff[1:] = series[1:] - series[:-1]
    return diff
