"""Histogram clones: hash-binnings of one interval's value counts.

A clone set is ``C`` hashed histograms over the same feature, each with
an independent universal hash function (paper Section II-D).  Clones
provide alternative random binnings; the voting step intersects their
views to weed out normal feature values that collide into anomalous
bins.

Every clone histogram is a function of the interval's sorted distinct
values and their flow counts - the summary a collector ships and a
detector bank reads.  :func:`clone_counts` is the one binning: every
feature's values hashed by one :func:`~repro.sketch.hashing.hash_rows`
call and added by one weighted ``bincount``.  A detector bank bins its
``F`` features at once; a detector, a :class:`CloneSet` and a digest
are the ``F = 1`` calls.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import accumulate

import numpy as np

from repro.errors import ConfigError
from repro.sketch.distinct import sorted_distinct, union_counts
from repro.sketch.hashing import (
    HashFamily,
    HashMatrix,
    checked_keys,
    hash_rows,
)
from repro.sketch.histogram import HistogramSnapshot

#: One feature's interval summary: its sorted distinct uint64 values
#: and the (integer-valued) number of flows carrying each.
ValueCounts = tuple[np.ndarray, np.ndarray]


def clone_counts(
    hashes: HashMatrix, value_counts: Sequence[ValueCounts]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Bin feature ``f``'s ``value_counts[f]`` by column ``f`` of
    ``hashes``: a read-only ``(F, C, m)`` float64 block whose
    ``[f, c]`` row is clone ``c``'s histogram of feature ``f``, and the
    cells - per feature a read-only ``(C, n_f)`` int64 array whose
    ``[c, j]`` entry is the bin clone ``c`` puts value ``j`` in (the
    bin->values back-map, with no second hash).

    The values of all features are concatenated and hashed in one
    call, then scattered by one weighted ``bincount`` at offset ``(f*C
    + c)*m``.  The counts are integers, so every bin is the exact sum
    a per-clone ``bincount`` (or one ``+1.0`` per flow) would give.
    A signed value column holding a negative key is refused with
    :class:`~repro.errors.SketchError`, as ``sorted_distinct`` does.
    """
    features = len(value_counts)
    clones, bins = len(hashes.columns[0]), hashes.bins
    if features != len(hashes.columns):
        raise ConfigError(
            f"{features} value-count columns for a hash matrix of "
            f"{len(hashes.columns)} features"
        )
    sizes = [len(values) for values, _ in value_counts]
    values = checked_keys(np.concatenate([v for v, _ in value_counts]))
    weights = np.concatenate([counts for _, counts in value_counts])
    cells = hash_rows(hashes, values, sizes)
    cells.setflags(write=False)
    # Row (f, c) of the block starts at (f*C + c)*m.
    starts = np.arange(0, features * clones * bins, bins)
    flat = np.repeat(starts.reshape(features, clones).T, sizes, axis=1)
    flat += cells
    block = np.bincount(
        flat.ravel(),
        weights=np.tile(weights, clones),
        minlength=features * clones * bins,
    ).reshape(features, clones, bins)
    block.setflags(write=False)
    return block, [
        cells[:, end - size : end]
        for size, end in zip(sizes, accumulate(sizes), strict=True)
    ]


def clone_snapshots(
    hashes: HashMatrix, observed: np.ndarray, counts: np.ndarray
) -> list[HistogramSnapshot]:
    """The ``C`` clone histograms of one feature (``hashes`` has one
    column), frozen as snapshots sharing the one observed array."""
    (rows,), (cells,) = clone_counts(hashes, [(observed, counts)])
    return [
        HistogramSnapshot(fn, row, observed, row_cells)
        for fn, row, row_cells in zip(
            hashes.columns[0], rows, cells, strict=True
        )
    ]


class CloneSet:
    """``C`` independent hashed histograms of one traffic feature.

    The set accumulates the interval's value counts; its histograms are
    their :func:`clone_counts` binning, taken when first read after an
    update.
    """

    def __init__(self, clones: int, bins: int, seed: int = 0):
        if clones < 1:
            raise ConfigError(f"need at least one clone: {clones}")
        self._hashes = HashMatrix(
            [HashFamily(bins=bins, seed=seed).take(clones)]
        )
        self.reset()

    def __len__(self) -> int:
        return len(self._hashes.columns[0])

    def __iter__(self) -> Iterator[HistogramSnapshot]:
        return iter(self.snapshots())

    def __getitem__(self, index: int) -> HistogramSnapshot:
        return self.snapshots()[index]

    @property
    def bins(self) -> int:
        return self._hashes.bins

    def reset(self) -> None:
        """Start a new measurement interval on every clone."""
        observed = np.empty(0, dtype=np.uint64)
        observed.setflags(write=False)
        self._values: ValueCounts = (observed, np.empty(0))
        self._snapshots: list[HistogramSnapshot] | None = None

    def update(self, values: np.ndarray) -> None:
        """Feed one interval's feature column to every clone."""
        self.update_distinct(*sorted_distinct(values))

    def update_distinct(
        self, distinct: np.ndarray, run_lengths: np.ndarray
    ) -> None:
        """Feed a column already in ``sorted_distinct`` form: one sort
        per column, however many clones bin it."""
        if distinct.size == 0:
            return
        self._values = union_counts(*self._values, distinct, run_lengths)
        self._snapshots = None

    def snapshots(self) -> list[HistogramSnapshot]:
        """Freeze every clone's interval state."""
        if self._snapshots is None:
            self._snapshots = clone_snapshots(self._hashes, *self._values)
        return list(self._snapshots)
