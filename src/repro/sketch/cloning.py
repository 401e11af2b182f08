"""Histogram clone sets.

A clone set is ``C`` hashed histograms over the same feature, each with an
independent universal hash function (paper Section II-D).  Clones provide
alternative random binnings; the voting step intersects their views to
weed out normal feature values that collide into anomalous bins.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.errors import ConfigError
from repro.sketch.distinct import sorted_distinct
from repro.sketch.hashing import HashFamily, hash_rows
from repro.sketch.histogram import HashedHistogram, HistogramSnapshot


class CloneSet:
    """``C`` independent hashed histograms of one traffic feature."""

    def __init__(self, clones: int, bins: int, seed: int = 0):
        if clones < 1:
            raise ConfigError(f"need at least one clone: {clones}")
        self._hashes = HashFamily(bins=bins, seed=seed).take(clones)
        self._histograms = [HashedHistogram(fn) for fn in self._hashes]

    def __len__(self) -> int:
        return len(self._histograms)

    def __iter__(self) -> Iterator[HashedHistogram]:
        return iter(self._histograms)

    def __getitem__(self, index: int) -> HashedHistogram:
        return self._histograms[index]

    @property
    def bins(self) -> int:
        return self._histograms[0].bins

    def reset(self) -> None:
        """Start a new measurement interval on every clone."""
        for histogram in self._histograms:
            histogram.reset()

    def update(self, values: np.ndarray) -> None:
        """Feed one interval's feature column to every clone."""
        self.update_distinct(*sorted_distinct(values))

    def update_distinct(
        self, distinct: np.ndarray, run_lengths: np.ndarray
    ) -> None:
        """Feed a column already in ``sorted_distinct`` form to every
        clone: one sort and one hash pass per column, however many
        clones bin it."""
        if distinct.size == 0:
            return
        rows = hash_rows(self._hashes, distinct)
        for histogram, bins in zip(self._histograms, rows, strict=True):
            histogram.update_binned(bins, distinct, run_lengths)

    def snapshots(self) -> list[HistogramSnapshot]:
        """Freeze every clone's interval state."""
        return [histogram.snapshot() for histogram in self._histograms]
