"""Unit tests for hashed histograms and snapshots."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.sketch.hashing import HashFamily
from repro.sketch.histogram import HashedHistogram, HistogramSnapshot


@pytest.fixture()
def histogram():
    fn = HashFamily(bins=32, seed=7).fresh()
    return HashedHistogram(fn)


class TestHashedHistogram:
    def test_update_counts_total(self, histogram):
        histogram.update(np.array([1, 2, 3, 1, 1], dtype=np.uint64))
        assert histogram.total == 5.0

    def test_counts_land_in_hashed_bins(self, histogram):
        histogram.update(np.array([42], dtype=np.uint64))
        expected_bin = histogram.hash_fn(42)
        assert histogram.counts[expected_bin] == 1.0

    def test_observed_values_distinct(self, histogram):
        histogram.update(np.array([5, 5, 6], dtype=np.uint64))
        assert sorted(histogram.observed_values()) == [5, 6]

    def test_reset_clears_state(self, histogram):
        histogram.update(np.array([1, 2], dtype=np.uint64))
        histogram.reset()
        assert histogram.total == 0.0
        assert len(histogram.observed_values()) == 0

    def test_update_empty_is_noop(self, histogram):
        histogram.update(np.array([], dtype=np.uint64))
        assert histogram.total == 0.0

    def test_values_in_bins_back_map(self, histogram):
        values = np.arange(100, dtype=np.uint64)
        histogram.update(values)
        target_bin = histogram.hash_fn(17)
        found = histogram.values_in_bins([target_bin])
        assert 17 in found
        assert all(histogram.hash_fn(int(v)) == target_bin for v in found)

    def test_values_in_bins_empty_request(self, histogram):
        histogram.update(np.array([1], dtype=np.uint64))
        assert len(histogram.values_in_bins([])) == 0

    def test_values_in_bins_range_checked(self, histogram):
        histogram.update(np.array([1], dtype=np.uint64))
        with pytest.raises(ConfigError):
            histogram.values_in_bins([99])

    def test_distribution_sums_to_one(self, histogram):
        histogram.update(np.arange(50, dtype=np.uint64))
        assert histogram.distribution().sum() == pytest.approx(1.0)
        assert histogram.distribution(pseudocount=0.5).sum() == pytest.approx(1.0)

    def test_distribution_of_empty_histogram_is_uniform(self, histogram):
        dist = histogram.distribution()
        assert np.allclose(dist, 1.0 / histogram.bins)

    def test_negative_pseudocount_rejected(self, histogram):
        with pytest.raises(ConfigError):
            histogram.distribution(pseudocount=-0.1)

    def test_counts_property_is_copy(self, histogram):
        histogram.update(np.array([1], dtype=np.uint64))
        counts = histogram.counts
        counts[:] = 0
        assert histogram.total == 1.0


class TestSnapshot:
    def test_snapshot_freezes_state(self, histogram):
        histogram.update(np.array([1, 2, 3], dtype=np.uint64))
        snap = histogram.snapshot()
        histogram.reset()
        assert snap.total == 3.0
        assert len(snap.observed) == 3

    def test_snapshot_counts_read_only(self, histogram):
        histogram.update(np.array([1], dtype=np.uint64))
        snap = histogram.snapshot()
        with pytest.raises(ValueError):
            snap.counts[0] = 5

    def test_snapshot_values_in_bins(self, histogram):
        histogram.update(np.arange(64, dtype=np.uint64))
        snap = histogram.snapshot()
        bin_of_7 = snap.hash_fn(7)
        assert 7 in snap.values_in_bins([bin_of_7])

    def test_snapshot_values_in_bins_range_checked(self, histogram):
        """One back-map body: the snapshot refuses an out-of-range bin
        like the live histogram does, instead of answering "nothing"."""
        histogram.update(np.array([1], dtype=np.uint64))
        snap = histogram.snapshot()
        with pytest.raises(ConfigError, match="out of range"):
            snap.values_in_bins([histogram.bins])
        with pytest.raises(ConfigError, match="out of range"):
            snap.values_in_bins([-1])

    def test_snapshot_survives_later_updates_and_reset(self, histogram):
        histogram.update(np.array([3, 1, 3], dtype=np.uint64))
        snap = histogram.snapshot()
        counts, observed = snap.counts.copy(), snap.observed.copy()
        histogram.update(np.array([9, 1], dtype=np.uint64))
        histogram.reset()
        histogram.update(np.array([4], dtype=np.uint64))
        assert np.array_equal(snap.counts, counts)
        assert snap.observed.tolist() == observed.tolist() == [1, 3]

    def test_snapshot_copies_a_writable_observed_array(self, histogram):
        observed = np.array([1, 2], dtype=np.uint64)
        snap = HistogramSnapshot(
            histogram.hash_fn, np.zeros(histogram.bins), observed
        )
        observed[0] = 99
        assert snap.observed.tolist() == [1, 2]
        with pytest.raises(ValueError):
            snap.observed[0] = 5

    def test_snapshot_shares_a_read_only_observed_array(self, histogram):
        """The clones of a feature hold one observed set: a read-only
        array is adopted as it is, not copied."""
        observed = np.array([1, 2], dtype=np.uint64)
        observed.setflags(write=False)
        snaps = [
            HistogramSnapshot(histogram.hash_fn, np.zeros(histogram.bins), observed)
            for _ in range(3)
        ]
        assert all(snap.observed is observed for snap in snaps)

    def test_length_mismatch_rejected(self, histogram):
        with pytest.raises(ConfigError):
            HistogramSnapshot(
                histogram.hash_fn,
                counts=np.zeros(3),
                observed=np.array([], dtype=np.uint64),
            )
