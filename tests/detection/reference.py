"""One-histogram-at-a-time reference for the detection layer's scoring.

The 1-D smoothed KL and the one-bin-per-round cleaning loop exactly as
``repro.detection`` ran them before scoring was stacked into
``kl_rows`` and bin identification into blocks of rounds.  Kept in the
test tree, like ``tests/mining/reference.py``: simple enough to be
obviously the paper's Fig. 5 procedure, and the independent
implementation the stacked kernel must equal bit for bit.
"""

from __future__ import annotations

import numpy as np


def reference_kl(
    current: np.ndarray, reference: np.ndarray, pseudocount: float
) -> float:
    """Smoothed KL distance (bits) of one histogram against one
    reference; invalid counts are the caller's problem."""
    cur = np.asarray(current, dtype=np.float64) + pseudocount
    ref = np.asarray(reference, dtype=np.float64) + pseudocount
    cur_total = cur.sum()
    ref_total = ref.sum()
    if cur_total == 0 or ref_total == 0:
        return 0.0
    p = cur / cur_total
    q = ref / ref_total
    mask = p > 0
    if not mask.any():
        return 0.0
    with np.errstate(divide="ignore"):
        ratios = np.log2(p[mask] / q[mask])
    return float(np.sum(p[mask] * ratios))


def reference_identify_bins(
    current: np.ndarray,
    reference: np.ndarray,
    threshold_value: float,
    previous_kl: float,
    pseudocount: float,
    max_rounds: int | None = None,
) -> tuple[tuple[int, ...], tuple[float, ...], bool]:
    """``(bins, kl_trace, converged)`` of the Fig. 5 loop: reset the bin
    with the largest ``|cur - ref|``, re-take the KL, stop when quiet."""
    cur = np.asarray(current, dtype=np.float64).copy()
    ref = np.asarray(reference, dtype=np.float64)
    if max_rounds is None:
        max_rounds = len(cur)
    kl = reference_kl(cur, ref, pseudocount)
    trace = [kl]
    chosen: list[int] = []
    while kl - previous_kl > threshold_value and len(chosen) < max_rounds:
        diffs = np.abs(cur - ref)
        bin_idx = int(np.argmax(diffs))
        if diffs[bin_idx] == 0.0:
            # The alarm stands with nothing left to reset.
            return tuple(chosen), tuple(trace), False
        cur[bin_idx] = ref[bin_idx]
        chosen.append(bin_idx)
        kl = reference_kl(cur, ref, pseudocount)
        trace.append(kl)
    return tuple(chosen), tuple(trace), kl - previous_kl <= threshold_value
