"""Iterative identification of anomalous histogram bins (paper Fig. 5).

When a clone alarms in interval ``t``, the detector must find which bins
caused the KL spike.  The paper's algorithm *simulates the removal of
suspicious flows*: in each round it takes the bin with the largest
absolute count difference between the current and reference histograms
and resets its count to the reference value; it stops as soon as the
"cleaned" histogram no longer raises an alert.  The per-round KL values
converge to the previous interval's level, dropping sharply after the
first round for concentrated anomalies.

The rounds are *evaluated* a block at a time, which is legal because
the removal order never depends on a KL value: round ``i`` takes the
``argmax`` of ``|cur - ref|`` over the bins not yet reset (lowest index
on ties; a reset bin's difference is 0), so the whole order is the
stable descending sort of the initial differences, and the histogram
after round ``i`` is "the first ``i`` bins of that order reset".  A
block of such histograms is scored in one
:func:`~repro.detection.kl.kl_rows` call, whose rows are bit-identical
to one-row calls, and the scan stops at the first quiet row - so
``bins``, ``kl_trace`` and ``converged`` are bit for bit what the
one-bin-at-a-time loop (kept as ``tests/detection/reference.py``)
produces; only rounds past the stopping row are computed in vain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.detection.kl import DEFAULT_PSEUDOCOUNT, kl_rows
from repro.detection.threshold import AlarmThreshold
from repro.errors import DetectionError

#: Rows of the first block; most identifications stop after one round,
#: and each later block is four times the last (4, 16, 64, ...).
_FIRST_BLOCK_ROWS = 4

#: Cap on a block's ``rows * bins``: 1 MiB of float64 per temporary (128
#: rows at 1024 bins).  Bounds the rounds computed past the stopping row
#: and keeps a block in cache - peak memory does not grow with ``bins``.
_BLOCK_ELEMENTS = 1 << 17


@dataclass(frozen=True, slots=True)
class BinIdentification:
    """Result of the iterative cleaning simulation.

    Attributes:
        bins: anomalous bin indices in removal order (most disruptive
            first).
        kl_trace: KL distance after each round; ``kl_trace[0]`` is the
            un-cleaned distance, ``kl_trace[i]`` the distance after
            resetting ``bins[:i]``.  This is exactly the Fig. 5 series.
        converged: False when every bin was reset and the alarm still
            stood (pathological; should not happen with real data).
    """

    bins: tuple[int, ...]
    kl_trace: tuple[float, ...] = field(default=())
    converged: bool = True

    @property
    def rounds(self) -> int:
        return len(self.bins)


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
    with np.errstate(invalid="ignore"):
        # inf - inf would warn here; the kernel refuses such counts
        # below with a typed error.
        diffs = np.abs(cur - ref)
    order = np.argsort(-diffs, kind="stable")
    # Rounds run from 0 (un-cleaned) to ``last``: a zero-difference bin
    # is never reset, so the differing bins bound the rounds.
    last = int(np.count_nonzero(diffs))
    if max_rounds is not None:
        last = min(last, max(max_rounds, 0))
    row_cap = max(1, _BLOCK_ELEMENTS // max(len(cur), 1))
    trace: list[float] = []
    base = cur.copy()  # the histogram after round ``done``
    done = 0
    rows = _FIRST_BLOCK_ROWS
    while True:
        rows = min(rows, row_cap, last + 1 - done)
        # Row j is the histogram after round ``done + j``: the strict
        # lower triangle resets the block's first j bins.
        cols = order[done : done + rows - 1]
        block = np.tile(base, (rows, 1))
        block[:, cols] = np.where(
            np.tri(rows, rows - 1, -1, dtype=bool), ref[cols], base[cols]
        )
        kls = kl_rows(block, ref, pseudocount)
        excess = kls - previous_kl
        quiet = np.flatnonzero(~(excess > threshold.value))
        if quiet.size or done + rows > last:
            # The first quiet row ends the simulation; failing that,
            # the alarm stands with every allowed round spent (or
            # nothing left to reset) and ``converged`` comes out False.
            stop = int(quiet[0]) if quiet.size else rows - 1
            trace.extend(kls[: stop + 1].tolist())
            return BinIdentification(
                bins=tuple(order[: done + stop].tolist()),
                kl_trace=tuple(trace),
                converged=bool(excess[stop] <= threshold.value),
            )
        trace.extend(kls.tolist())
        reset = order[done : done + rows]
        base[reset] = ref[reset]
        done += rows
        rows *= 4
