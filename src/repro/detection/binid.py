"""Iterative identification of anomalous histogram bins (paper Fig. 5).

When a clone alarms in interval ``t``, the detector must find which bins
caused the KL spike.  The paper's algorithm *simulates the removal of
suspicious flows*: in each round it takes the bin with the largest
absolute count difference between the current and reference histograms
and resets its count to the reference value; it stops as soon as the
"cleaned" histogram no longer raises an alert.  The per-round KL values
converge to the previous interval's level, dropping sharply after the
first round for concentrated anomalies.

The removal order never depends on a KL value: round ``i`` takes the
``argmax`` of ``|cur - ref|`` over the bins not yet reset (lowest index
on ties; a reset bin's difference is 0), so the whole order is the
stable descending sort of the initial differences, and the histogram
after round ``r`` is "the first ``r`` bins of that order reset".  So
every round is known before any is scored, and the simulation runs in
two steps:

* **Screen.**  With ``a = cur + pseudocount`` and ``b = ref +
  pseudocount`` per bin, round ``r``'s smoothed KL is ``W_r / A_r -
  log2(A_r / B)``, where ``A_r`` is the round's smoothed total, ``B``
  the reference's, and ``W_r`` the sum of ``a * log2(a / b)`` over the
  bins not yet reset (a reset bin's term is 0).  Running sums along the
  order give every round's value in O(m) (:func:`_screen`).  A round
  whose screened excess is above the threshold by more than its
  rounding bound is certainly loud: the exact kernel would say so too.
* **Confirm.**  The rounds the screen cannot clear - near the
  threshold, below it, or not finite (an unsmoothed empty bin) - are
  scored exactly by the KL kernel - :func:`~repro.detection.kl.kl_rows`
  as its two halves, the reference smoothed once - in order and a block
  at a time (1, 4, 16, ... rows: the first round left is most often
  the stop), up to the first that is quiet.  So ``bins`` and
  ``converged`` rest on the same exact comparison as the
  one-bin-at-a-time loop (kept as ``tests/detection/reference.py``);
  the screen only decides which rounds need not be scored.

The Fig. 5 series ``kl_trace`` is scored when first read: rounds ``0``
to the stop in blocks of 4, 16, 64, ... rows, each block one kernel
call whose rows are bit-identical to one-row calls - so the trace too
is bit for bit the reference loop's.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.detection.kl import (
    DEFAULT_PSEUDOCOUNT,
    divergence_rows,
    smooth_rows,
    smoothed_counts,
)
from repro.detection.threshold import AlarmThreshold
from repro.errors import DetectionError

#: Rows of the trace's first block; each later block is four times the
#: last (4, 16, 64, ...).
_FIRST_BLOCK_ROWS = 4

#: Cap on a block's ``rows * bins``: 1 MiB of float64 per temporary (128
#: rows at 1024 bins).  Keeps a block in cache - peak memory does not
#: grow with ``bins``.
_BLOCK_ELEMENTS = 1 << 17

#: Scale of the screen's rounding bound, in units of ``(m + 8) * eps``
#: (derived in :func:`_screen`).
_ROUNDING = 8


class BinIdentification:
    """Result of the iterative cleaning simulation.

    Attributes:
        bins: anomalous bin indices in removal order (most disruptive
            first).
        kl_trace: KL distance after each round; ``kl_trace[0]`` is the
            un-cleaned distance, ``kl_trace[i]`` the distance after
            resetting ``bins[:i]``.  This is exactly the Fig. 5 series,
            scored when first read (the identification keeps compact
            copies of the two histograms until then).
        converged: False when every bin was reset and the alarm still
            stood (pathological; should not happen with real data).
        scored: rounds the identification scored exactly to find the
            stop - the trace's rounds are not counted.
    """

    __slots__ = ("bins", "converged", "scored", "_trace")
    bins: tuple[int, ...]
    converged: bool
    scored: int
    _trace: tuple[float, ...] | _Trace

    def __init__(
        self,
        bins: tuple[int, ...],
        kl_trace: tuple[float, ...] | _Trace = (),
        converged: bool = True,
        scored: int = 0,
    ):
        for name, value in (
            ("bins", bins),
            ("converged", converged),
            ("scored", scored),
            ("_trace", kl_trace),
        ):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"BinIdentification is immutable: {name}")

    @property
    def kl_trace(self) -> tuple[float, ...]:
        trace = self._trace
        if isinstance(trace, _Trace):
            scores = trace.scores()
            object.__setattr__(self, "_trace", scores)
            return scores
        return trace

    @property
    def rounds(self) -> int:
        return len(self.bins)

    def _key(self) -> tuple[object, ...]:
        return self.bins, self.kl_trace, self.converged

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinIdentification):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self) -> tuple[type[BinIdentification], tuple[object, ...]]:
        return BinIdentification, (*self._key(), self.scored)

    def __repr__(self) -> str:
        return (
            f"BinIdentification(bins={self.bins!r}, "
            f"kl_trace={self.kl_trace!r}, converged={self.converged!r})"
        )


def _compact(counts: np.ndarray) -> np.ndarray:
    """``counts`` in two bytes a bin when that holds every value exactly
    (integer counts below 2^16, the common case), else as they are: a
    pending trace keeps its histograms until it is read."""
    with np.errstate(invalid="ignore"):  # out of range: compared below
        small = counts.astype(np.uint16)
    return small if (small == counts).all() else counts


class _Trace:
    """What scoring a trace needs: the current and reference histograms
    as one ``(2, m)`` copy, and the reset order up to the stop."""

    __slots__ = ("counts", "bins", "pseudocount")

    def __init__(
        self, counts: np.ndarray, bins: tuple[int, ...], pseudocount: float
    ) -> None:
        self.counts = _compact(counts)
        self.bins = bins
        self.pseudocount = pseudocount

    def scores(self) -> tuple[float, ...]:
        cur, ref = self.counts.astype(np.float64)
        order = np.array(self.bins, dtype=np.intp)
        return tuple(
            kl
            for _, kls in _score_rounds(
                cur,
                ref,
                smooth_rows(ref, self.pseudocount),
                order,
                np.arange(len(order) + 1),
                self.pseudocount,
                _FIRST_BLOCK_ROWS,
            )
            for kl in kls.tolist()
        )


def _score_rounds(
    cur: np.ndarray,
    ref: np.ndarray,
    reference: tuple[np.ndarray, np.ndarray],
    order: np.ndarray,
    rounds: np.ndarray,
    pseudocount: float,
    rows: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(block, kls)``: the exact KL after each round of
    ``block``, for ascending ``rounds`` taken ``rows`` at a time in the
    first block and four times as many in each next one (capped by the
    element budget).  ``reference`` is ``smooth_rows(ref)``: each row
    is what ``kl_rows(stack, ref)`` returns, bit for bit."""
    cap = max(1, _BLOCK_ELEMENTS // max(len(cur), 1))
    # A bin is reset from round rank + 1 on; a bin not in ``order`` never.
    rank = np.full(len(cur), len(cur))
    rank[order] = np.arange(len(order))
    at = 0
    while at < len(rounds):
        block = rounds[at : at + min(rows, cap)]
        # Row j is the histogram after round block[j].
        stack = np.where(rank < block[:, np.newaxis], ref, cur)
        yield block, divergence_rows(
            *smooth_rows(stack, pseudocount), *reference
        )
        at += len(block)
        rows *= 4


def _screen(
    smoothed: np.ndarray,
    reference_total: float,
    order: np.ndarray,
    last: int,
    value: float,
    previous_kl: float,
) -> np.ndarray:
    """Which of rounds ``0..last`` are certainly loud: a bool per round.

    ``smoothed`` holds the rows ``a = cur + pseudocount`` and ``b = ref
    + pseudocount``, and ``reference_total`` is ``B``.  Round ``r``'s KL
    is ``W_r / A_r - log2(A_r / B)`` (module docstring), computed here
    from running sums along ``order``: ``A_r`` as the prefix of ``b``
    plus the suffix of ``a`` (positive terms only), ``W_r`` as the
    suffix of ``w = a * log2(a / b)``.

    **Rounding bound.**  With unit roundoff ``u = eps / 2``, any
    float sum of ``n`` terms errs by at most ``(n - 1) u`` times the
    sum of their magnitudes, whatever the order of the additions.  Let
    ``M_r = |W| / A_r + |log2(A_r / B)|``, where ``|W|`` sums ``|w|``
    over all bins; ``M_r`` bounds ``sum p |log2(p / q)|`` over the
    round's normalised histograms.  The kernel's row
    (a smoothed sum, a division, a ratio, a ``log2``, a product and an
    ``m``-term sum per bin) then errs from the true KL by at most
    ``(2m + 6) u M_r + (2m + 5) u / ln 2``; the screen (one ratio,
    ``log2`` and product per bin, ``m``-term running sums, one
    division and one ``log2`` of a total ratio) by at most ``(2m + 10)
    u M_r + (2m + 9) u / ln 2``.  Subtracting ``previous_kl`` on both
    sides and adding the bound to ``value`` add ``3 u`` times their
    magnitudes.  Underflow (a smoothed bin below the smallest normal
    float at a tiny pseudocount) adds at most ``m * 2^-1060`` more.
    Together that is below ``(4m + 16) u (M_r + |previous_kl| +
    |value| + 3)``; the bound used, ``k = 8 (m + 8) eps`` times the same
    magnitudes, is four times that, which also covers a ``log2`` that
    is off by a few ulp and the few roundings of the comparison as it
    is laid out (``(W_r - k |W|) / A_r - L - k |L| > value +
    previous_kl + k (|previous_kl| + |value| + 3)`` with ``L =
    log2(A_r / B)``).  A screened excess above ``value`` plus the bound
    is therefore above ``value`` in the kernel too.  A screen value
    that is not finite (an empty bin without smoothing, an overflow)
    is never loud: an infinite or NaN ``w`` makes ``|W|`` infinite or
    NaN, and an infinite ``L`` comes with an infinite ``k |L|``, so the
    left side is NaN or -inf.
    """
    m = len(order)
    with np.errstate(all="ignore"):
        a, b = smoothed.take(order, axis=1)
        w = np.log2(a / b)
        w *= a
        # Column r: the sums of ``a`` and ``w`` from r on (0 at r = m).
        suffix = np.zeros((2, m + 1))
        np.cumsum(np.array((a, w))[:, ::-1], axis=1, out=suffix[:, :m][:, ::-1])
        totals, kept = suffix[:, : last + 1]
        totals[1:] += np.cumsum(b[:last])
        log_ratio = np.log2(totals / reference_total)
        # excess - bound > value, laid out for few passes.
        k = _ROUNDING * (m + 8) * np.finfo(np.float64).eps
        margin = kept - k * np.abs(w).sum()
        margin /= totals
        margin -= log_ratio
        margin -= k * np.abs(log_ratio)
        return margin > value + previous_kl + k * (
            abs(previous_kl) + abs(value) + 3
        )


def identify_anomalous_bins(
    current: np.ndarray,
    reference: np.ndarray,
    threshold: AlarmThreshold,
    previous_kl: float,
    pseudocount: float = DEFAULT_PSEUDOCOUNT,
    max_rounds: int | None = None,
) -> BinIdentification:
    """Run the iterative cleaning simulation.

    Args:
        current: bin counts of the alarming interval.
        reference: bin counts of the previous (reference) interval.
        threshold: the alarm rule that fired.
        previous_kl: KL distance observed at interval ``t-1``; the alert
            condition is ``KL(cleaned, reference) - previous_kl >
            threshold.value``, mirroring the first-difference rule.
        pseudocount: smoothing used for the KL computation.
        max_rounds: optional cap on rounds (defaults to the bin count).

    Returns:
        A :class:`BinIdentification` with removal order and KL trace.
    """
    cur = np.asarray(current, dtype=np.float64)
    ref = np.asarray(reference, dtype=np.float64)
    if cur.shape != ref.shape or cur.ndim != 1:
        raise DetectionError(
            f"histogram shape mismatch: {cur.shape} vs {ref.shape}"
        )
    # A copy: the trace is scored from it when first read.
    pair = np.array((cur, ref))
    # The kernel's own refusal of both histograms, up front: a round the
    # screen clears is never handed to the kernel.
    with np.errstate(over="ignore", invalid="ignore"):
        smoothed, totals = smoothed_counts(pair, pseudocount)
    diffs = np.abs(cur - ref)
    order = np.argsort(-diffs, kind="stable")
    # Rounds run from 0 (un-cleaned) to ``last``: a zero-difference bin
    # is never reset, so the differing bins bound the rounds.
    last = int(np.count_nonzero(diffs))
    if max_rounds is not None:
        last = min(last, max(max_rounds, 0))
    value = threshold.value
    loud = _screen(smoothed, totals[1, 0], order, last, value, previous_kl)
    # The first round left is most often the stop: score it alone.
    stop, converged, scored = last, False, 0
    # The reference as smooth_rows(ref) has it: the same add, the same
    # row sum, the same division.
    reference = (smoothed[1] / totals[1], totals[1])
    for block, kls in _score_rounds(
        cur, ref, reference, order, np.flatnonzero(~loud), pseudocount, 1
    ):
        scored += len(block)
        excess = kls - previous_kl
        quiet = np.flatnonzero(~(excess > value))
        if quiet.size:
            stop = int(block[quiet[0]])
            converged = bool(excess[quiet[0]] <= value)
            break
    # Failing a quiet round, the alarm stands with every allowed round
    # spent (or nothing left to reset): ``converged`` stays False.
    bins = tuple(order[:stop].tolist())
    return BinIdentification(
        bins=bins,
        kl_trace=_Trace(pair, bins, pseudocount),
        converged=converged,
        scored=scored,
    )
