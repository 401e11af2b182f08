"""Sorted distinct values - the one sort the sketch layer pays per column.

Every sketch of a feature column needs the same two facts about it:
which values occur and how often.  Computing them is one ``np.sort``
plus a neighbour-inequality mask; everything downstream (the ``C``
clone histograms, the count-min rows, the observed-value back-map)
then hashes each *distinct* value once and scatters its run length,
instead of hashing every flow and re-deriving the distinct set per
clone.  The helpers stay on sort + mask because numpy's own set
routines (unique / union without ``return_counts``) take a
hash-then-sort path on numpy >= 2.3 that is 12-15x slower at
interval-sized inputs.
"""

from __future__ import annotations

import numpy as np

from repro.sketch.hashing import checked_keys


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Index of the first element of every run of equal neighbours
    (``ordered`` must be sorted and non-empty)."""
    first = np.empty(ordered.size, dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return np.flatnonzero(first)


def sorted_distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct entries of ``values`` and their multiplicities.

    Returns ``(distinct, counts)``: ``distinct`` is read-only uint64,
    sorted ascending, duplicate-free (the array numpy's ``unique``
    yields); ``counts`` is the float64 run length of each distinct
    value - integer-valued, so adding it into a float64 histogram is
    exact.  A signed column holding a negative value is refused with
    :class:`~repro.errors.SketchError` (see ``checked_keys``).
    """
    vals = checked_keys(values)
    if vals.size == 0:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.float64)
    # Unsigned columns sort in their own (narrower, faster) dtype: the
    # widening below keeps the order.  Anything else (non-negative by
    # now) is cast first so the order is the uint64 order callers see.
    if vals.dtype.kind != "u":
        vals = vals.astype(np.uint64)
    ordered = np.sort(vals, axis=None)
    starts = _run_starts(ordered)
    counts = np.empty(starts.size, dtype=np.float64)
    np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    counts[-1] = ordered.size - starts[-1]
    distinct = ordered[starts].astype(np.uint64, copy=False)
    distinct.setflags(write=False)
    return distinct, counts


def sorted_union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted union of two sorted duplicate-free uint64 arrays.

    Concatenate + stable sort is one merge of two sorted runs; the
    neighbour mask drops the values both sides hold.  When either side
    is empty the other is returned *as is* (no copy): a histogram's
    first update of an interval adopts the incoming array.
    """
    if a.size == 0:
        return b
    if b.size == 0:
        return a
    merged = np.concatenate((a, b))
    merged.sort(kind="stable")
    union = merged[_run_starts(merged)]
    union.setflags(write=False)
    return union


def union_counts(
    a: np.ndarray,
    a_counts: np.ndarray,
    b: np.ndarray,
    b_counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`sorted_union` of two ``sorted_distinct`` columns, with
    the counts of a value both sides hold added.

    One stable argsort merges the two sorted runs; the counts follow
    the same order and ``reduceat`` adds each run of equal values.  An
    empty side returns the other as is, like :func:`sorted_union`.
    """
    if a.size == 0:
        return b, b_counts
    if b.size == 0:
        return a, a_counts
    merged = np.concatenate((a, b))
    order = np.argsort(merged, kind="stable")
    merged = merged[order]
    starts = _run_starts(merged)
    union = merged[starts]
    counts = np.concatenate((a_counts, b_counts))[order]
    counts = np.add.reduceat(counts, starts)
    union.setflags(write=False)
    counts.setflags(write=False)
    return union, counts
