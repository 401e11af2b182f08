"""Hashed histograms - the per-clone data structure of the detector.

A :class:`HashedHistogram` counts flows per bin, where the bin of a flow
is the universal hash of one of its feature values.  It also retains the
set of distinct feature values observed per interval so that anomalous
bins can later be mapped back to the feature values that hashed into
them (paper Section II-C, step 2).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.sketch.distinct import sorted_distinct, sorted_union
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


class HashedHistogram:
    """Histogram over ``m`` bins with a value->bin map for the current
    interval.

    The paper's clone keeps "a map of bins and corresponding feature
    values"; we store the observed distinct values and compute their bins
    on demand (the hash is deterministic), which is equivalent and
    smaller.
    """

    __slots__ = ("_hash", "_counts", "_observed")

    def __init__(self, hash_fn: UniversalHash):
        self._hash = hash_fn
        self._counts = np.zeros(hash_fn.bins, dtype=np.float64)
        self._observed: np.ndarray = np.empty(0, dtype=np.uint64)

    @property
    def bins(self) -> int:
        return self._hash.bins

    @property
    def hash_fn(self) -> UniversalHash:
        return self._hash

    @property
    def counts(self) -> np.ndarray:
        """Per-bin flow counts for the current interval (read-only copy)."""
        return self._counts.copy()

    @property
    def total(self) -> float:
        return float(self._counts.sum())

    def reset(self) -> None:
        """Clear counts and the observed-value set for a new interval."""
        self._counts[:] = 0.0
        self._observed = np.empty(0, dtype=np.uint64)

    def update(self, values: np.ndarray) -> None:
        """Add one flow per entry of ``values`` (a feature column)."""
        self.update_distinct(*sorted_distinct(values))

    def update_distinct(
        self, distinct: np.ndarray, run_lengths: np.ndarray
    ) -> None:
        """Add ``run_lengths[i]`` flows of feature value ``distinct[i]``.

        Takes a column in :func:`~repro.sketch.distinct.sorted_distinct`
        form, so each value is hashed once however many flows carry it.
        The run lengths are integer-valued float64: the weighted
        ``bincount`` adds up exactly what one ``+1.0`` per flow would.
        On the first update of an interval the histogram adopts
        ``distinct`` itself as its observed set (see ``sorted_union``).
        """
        if distinct.size == 0:
            return
        self._counts += np.bincount(
            self._hash.hash_array(distinct),
            weights=run_lengths,
            minlength=self.bins,
        )
        self._observed = sorted_union(self._observed, distinct)

    def observed_values(self) -> np.ndarray:
        """Distinct feature values seen in the current interval."""
        return self._observed.copy()

    def values_in_bins(self, bins: np.ndarray | list[int]) -> np.ndarray:
        """Observed feature values that hash into any of ``bins``.

        This is the bin->values back-map used after anomalous bins have
        been identified.
        """
        return values_in_bins(self._hash, self._observed, bins)

    def distribution(self, pseudocount: float = 0.0) -> np.ndarray:
        """Normalized bin distribution, optionally Laplace-smoothed."""
        if pseudocount < 0:
            raise ConfigError(f"pseudocount must be >= 0: {pseudocount}")
        smoothed = self._counts + pseudocount
        total = smoothed.sum()
        if total == 0:
            # Degenerate empty interval: fall back to uniform.
            return np.full(self.bins, 1.0 / self.bins)
        return smoothed / total

    def snapshot(self) -> "HistogramSnapshot":
        """Freeze the current interval state (counts + observed values)."""
        return HistogramSnapshot(self._hash, self._counts, self._observed)


class HistogramSnapshot:
    """Immutable state of a :class:`HashedHistogram` at interval end.

    Snapshots are what :func:`~repro.sketch.cloning.clone_snapshots`
    freezes for a clone set or a digest, and what a detector's
    ``observe_snapshots`` reads.  The ``C`` clones of a feature share
    one read-only observed set: it is a property of the feature's
    interval, not of any one binning.
    """

    __slots__ = ("hash_fn", "_counts", "_observed")

    def __init__(
        self, hash_fn: UniversalHash, counts: np.ndarray, observed: np.ndarray
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

    @property
    def counts(self) -> np.ndarray:
        return self._counts

    @property
    def observed(self) -> np.ndarray:
        return self._observed

    @property
    def bins(self) -> int:
        return self.hash_fn.bins

    @property
    def total(self) -> float:
        return float(self._counts.sum())

    def values_in_bins(self, bins: np.ndarray | list[int]) -> np.ndarray:
        """Observed feature values hashing into any of ``bins``."""
        return values_in_bins(self.hash_fn, self._observed, bins)
