"""Kullback-Leibler distance between histogram distributions.

Section II-C: each detector computes, at the end of every interval, the
KL distance between the current feature distribution and the previous
interval's distribution (used as the reference, avoiding training):

    D(p || q) = sum_i p_i * log2(p_i / q_i)

Coinciding distributions give 0; deviations give positive spikes at the
start and end of an anomaly.  The paper leaves empty-bin handling
unspecified; we use additive smoothing so the distance stays finite
(documented in DESIGN.md).

The detector's distance is computed in exactly one place,
:func:`kl_rows`, a stack of histograms at a time; each row of its
result is bit-identical to scoring that histogram alone, which is what
lets callers batch (clones of a feature, rounds of a bin
identification) without moving a checkpointed ``kl_series`` value or
an alarm decision.
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


def kl_rows(
    current: np.ndarray,
    reference: np.ndarray,
    pseudocount: float = DEFAULT_PSEUDOCOUNT,
) -> np.ndarray:
    """Smoothed KL distance of every row of a stack of bin counts.

    ``current`` is ``(R, m)``; ``reference`` is ``(R, m)`` (row ``i``
    is scored against row ``i``) or ``(m,)`` (every row against the one
    reference).  This is the only KL arithmetic of the detection layer:
    the detector scores a feature's ``C`` clones in one call and the
    bin identification a block of cleaning rounds in one call.

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
    # Fresh C-ordered arrays whatever the layout of the inputs: the
    # row sums below must run over a contiguous axis, and the in-place
    # steps must not write into the caller's counts.
    cur = np.add(current, pseudocount, dtype=np.float64, order="C")
    ref = np.add(reference, pseudocount, dtype=np.float64, order="C")
    if cur.ndim != 2:
        raise ConfigError(
            f"need a (rows, bins) stack of counts, got shape {cur.shape}"
        )
    if ref.shape not in (cur.shape, cur.shape[1:]):
        raise ConfigError(f"shape mismatch: {cur.shape} vs {ref.shape}")
    if cur.size == 0:
        return np.zeros(len(cur))
    # Nothing below may warn: what numpy would warn about is either
    # refused (a total that overflows, inf - inf) or has a defined
    # answer (an empty bin, handled after the sum).
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cur_total = cur.sum(axis=-1, keepdims=True)
        ref_total = ref.sum(axis=-1, keepdims=True)
        # The one refusal per stack: NaN fails the first two
        # comparisons, inf the last two.
        if not (
            cur.min() >= 0
            and ref.min() >= 0
            and cur_total.max() < np.inf
            and ref_total.max() < np.inf
        ):
            raise ConfigError(
                "bin counts must be non-negative with a finite total"
            )
        cur /= cur_total
        ref /= ref_total
        terms = np.log2(cur / ref)
        terms *= cur
    distances = terms.sum(axis=-1)
    if np.isnan(distances).any():
        # After the refusal above a NaN has one source: a bin that is
        # exactly 0 once normalised (pseudocount 0, or a smoothed count
        # that underflows), where 0 * log2(0 / q) is 0 by convention,
        # or a histogram that is empty altogether.
        terms[cur == 0] = 0.0
        terms[((cur_total == 0) | (ref_total == 0)).ravel()] = 0.0
        distances = terms.sum(axis=-1)
    return distances


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
