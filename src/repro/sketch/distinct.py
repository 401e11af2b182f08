"""Sorted distinct values - the one sort the sketch layer pays per column.

Every summary of a feature column needs the same two facts about it:
which values occur and how often.  :func:`sorted_distinct` computes
them with one ``np.sort`` plus a neighbour-inequality mask, and
:func:`union_all` merges ``k`` such summaries (an interval's site
digests, a clone set fed in chunks) in one sort.  Everything
downstream - the ``C`` clone histograms, the observed-value back-map -
hashes each *distinct* value once and scatters its count, instead of
hashing every flow.  The
helpers stay on sort + mask because numpy's own set routines (unique /
union without ``return_counts``) take a hash-then-sort path on numpy
>= 2.3 that is 12-15x slower at interval-sized inputs.
"""

from __future__ import annotations

from collections.abc import Sequence

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


def union_all(
    columns: Sequence[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted union of ``k >= 1`` ``sorted_distinct`` columns, each a
    ``(values, counts)`` pair, with the counts of a value several
    columns hold added.

    The columns are concatenated once and one stable argsort orders
    them - timsort finds the ``k`` sorted runs and merges them - so the
    counts follow the same order and one ``reduceat`` adds each run of
    equal values.  When at most one column is non-empty it is returned
    as is (no copy).
    """
    filled = [column for column in columns if column[0].size]
    if len(filled) <= 1:
        return filled[0] if filled else columns[-1]
    merged = np.concatenate([values for values, _ in filled])
    order = np.argsort(merged, kind="stable")
    merged = merged[order]
    starts = _run_starts(merged)
    union = merged[starts]
    counts = np.concatenate([counts for _, counts in filled])[order]
    counts = np.add.reduceat(counts, starts)
    union.setflags(write=False)
    counts.setflags(write=False)
    return union, counts


def union_counts(
    a: np.ndarray,
    a_counts: np.ndarray,
    b: np.ndarray,
    b_counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The two-column :func:`union_all`."""
    return union_all(((a, a_counts), (b, b_counts)))
