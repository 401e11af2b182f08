"""Clone histogram snapshots and the bin->values back-map.

A :class:`HistogramSnapshot` is one clone's histogram of one
interval: the flow count per bin, where the bin of a flow is the
universal hash of one of its feature values, together with the
interval's distinct feature values, so that anomalous bins can later
be mapped back to the values that hashed into them (paper Section
II-C, step 2).  :func:`~repro.sketch.cloning.clone_snapshots` derives
them from an interval's value counts.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.sketch.hashing import UniversalHash


def values_in_bins(
    hash_fn: UniversalHash,
    observed: np.ndarray,
    bins: np.ndarray | list[int],
) -> np.ndarray:
    """The bin->values back-map: entries of ``observed`` that
    ``hash_fn`` places in any of ``bins``."""
    wanted = np.asarray(bins, dtype=np.int64)
    if wanted.size == 0 or observed.size == 0:
        return np.empty(0, dtype=np.uint64)
    if wanted.min() < 0 or wanted.max() >= hash_fn.bins:
        raise ConfigError(
            f"bin index out of range [0, {hash_fn.bins}): {wanted}"
        )
    return observed[np.isin(hash_fn.hash_array(observed), wanted)]


class HistogramSnapshot:
    """Immutable histogram of one clone at interval end.

    Snapshots are what :func:`~repro.sketch.cloning.clone_snapshots`
    freezes for a clone set or a digest, and what a detector's
    ``observe_snapshots`` reads.  The ``C`` clones of a feature share
    one read-only observed set: it is a property of the feature's
    interval, not of any one binning.  ``cells`` (the bin of each
    observed value) is the binning's own when it passes them.
    """

    __slots__ = ("hash_fn", "_counts", "_observed", "_cells")

    def __init__(
        self,
        hash_fn: UniversalHash,
        counts: np.ndarray,
        observed: np.ndarray,
        cells: np.ndarray | None = None,
    ):
        if len(counts) != hash_fn.bins:
            raise ConfigError(
                f"snapshot counts length {len(counts)} != bins {hash_fn.bins}"
            )
        self.hash_fn = hash_fn
        # Arrays that are already read-only are shared, not copied: a
        # clone's counts are a row of the read-only ``clone_counts``
        # block, and the clones of a feature all hold the one observed
        # array of the interval.
        bins = np.asarray(counts)
        if bins.dtype != np.float64 or bins.flags.writeable:
            bins = bins.astype(np.float64)
            bins.setflags(write=False)
        self._counts = bins
        seen = np.asarray(observed)
        if seen.dtype != np.uint64 or seen.flags.writeable:
            seen = seen.astype(np.uint64)
            seen.setflags(write=False)
        self._observed = seen
        if cells is not None and len(cells) != len(seen):
            raise ConfigError(
                f"snapshot has {len(cells)} cells for {len(seen)} observed "
                f"values"
            )
        self._cells = cells

    @property
    def counts(self) -> np.ndarray:
        return self._counts

    @property
    def observed(self) -> np.ndarray:
        return self._observed

    @property
    def cells(self) -> np.ndarray:
        """The bin of each observed value: the ``cells`` row the
        binning passed in, or hashed when first read."""
        if self._cells is None:
            cells = self.hash_fn.hash_array(self._observed)
            cells.setflags(write=False)
            self._cells = cells
        return self._cells

    @property
    def bins(self) -> int:
        return self.hash_fn.bins

    @property
    def total(self) -> float:
        return float(self._counts.sum())

    def values_in_bins(self, bins: np.ndarray | list[int]) -> np.ndarray:
        """Observed feature values hashing into any of ``bins``."""
        return values_in_bins(self.hash_fn, self._observed, bins)
