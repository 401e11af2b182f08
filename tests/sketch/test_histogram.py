"""Unit tests for clone histogram snapshots."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.sketch.cloning import clone_snapshots
from repro.sketch.distinct import sorted_distinct
from repro.sketch.hashing import HashFamily, HashMatrix
from repro.sketch.histogram import HistogramSnapshot, values_in_bins


@pytest.fixture()
def hash_fn():
    return HashFamily(bins=32, seed=7).fresh()


def _snapshot(hash_fn, values):
    """One clone's snapshot of an interval whose feature column is
    ``values``."""
    column = np.asarray(values, dtype=np.uint64)
    hashes = HashMatrix([[hash_fn]])
    (snap,) = clone_snapshots(hashes, *sorted_distinct(column))
    return snap


class TestBinning:
    """A clone's snapshot of an interval bins every flow by the hash of
    its feature value."""

    def test_total_counts_every_flow(self, hash_fn):
        assert _snapshot(hash_fn, [1, 2, 3, 1, 1]).total == 5.0

    def test_counts_land_in_hashed_bins(self, hash_fn):
        snap = _snapshot(hash_fn, [42])
        expected = np.zeros(hash_fn.bins)
        expected[hash_fn(42)] = 1.0
        assert np.array_equal(snap.counts, expected)

    def test_repeated_value_adds_its_flow_count(self, hash_fn):
        snap = _snapshot(hash_fn, [9, 9, 9])
        assert snap.counts[hash_fn(9)] == 3.0

    def test_observed_values_distinct(self, hash_fn):
        assert _snapshot(hash_fn, [5, 5, 6]).observed.tolist() == [5, 6]

    def test_empty_interval_is_an_empty_snapshot(self, hash_fn):
        snap = _snapshot(hash_fn, [])
        assert snap.total == 0.0
        assert snap.counts.tolist() == [0.0] * hash_fn.bins
        assert snap.observed.size == 0

    def test_bins_follow_the_hash(self, hash_fn):
        assert _snapshot(hash_fn, [1]).bins == hash_fn.bins == 32


class TestValuesInBins:
    """The bin->values back-map every snapshot answers through."""

    def test_back_map_is_complete(self, hash_fn):
        observed = np.arange(100, dtype=np.uint64)
        target = hash_fn(17)
        found = values_in_bins(hash_fn, observed, [target])
        expected = [v for v in range(100) if hash_fn(v) == target]
        assert found.tolist() == expected

    def test_several_bins_answer_their_union(self, hash_fn):
        observed = np.arange(100, dtype=np.uint64)
        bins = [hash_fn(3), hash_fn(50)]
        found = values_in_bins(hash_fn, observed, np.array(bins))
        expected = [v for v in range(100) if hash_fn(v) in bins]
        assert found.tolist() == expected

    def test_empty_request(self, hash_fn):
        found = values_in_bins(hash_fn, np.arange(4, dtype=np.uint64), [])
        assert found.dtype == np.uint64 and found.size == 0

    def test_nothing_observed(self, hash_fn):
        found = values_in_bins(hash_fn, np.empty(0, dtype=np.uint64), [0])
        assert found.dtype == np.uint64 and found.size == 0

    def test_range_checked(self, hash_fn):
        observed = np.array([1], dtype=np.uint64)
        with pytest.raises(ConfigError, match="out of range"):
            values_in_bins(hash_fn, observed, [99])


class TestSnapshot:
    def test_snapshot_freezes_state(self, hash_fn):
        column = np.array([42, 1, 2, 3, 42], dtype=np.uint64)
        snap = _snapshot(hash_fn, column)
        assert snap.total == 5.0
        assert snap.observed.tolist() == [1, 2, 3, 42]
        expected = np.bincount(hash_fn.hash_array(column), minlength=32)
        assert np.array_equal(snap.counts, expected)

    def test_snapshot_counts_read_only(self, hash_fn):
        snap = _snapshot(hash_fn, [1])
        with pytest.raises(ValueError):
            snap.counts[0] = 5

    def test_snapshot_values_in_bins(self, hash_fn):
        snap = _snapshot(hash_fn, np.arange(64))
        bin_of_7 = snap.hash_fn(7)
        found = snap.values_in_bins([bin_of_7])
        assert 7 in found
        assert all(hash_fn(int(v)) == bin_of_7 for v in found)
        assert len(snap.values_in_bins([])) == 0

    def test_snapshot_values_in_bins_range_checked(self, hash_fn):
        """One back-map body: an out-of-range bin is refused instead of
        answering "nothing"."""
        snap = _snapshot(hash_fn, [1])
        with pytest.raises(ConfigError, match="out of range"):
            snap.values_in_bins([hash_fn.bins])
        with pytest.raises(ConfigError, match="out of range"):
            snap.values_in_bins([-1])

    def test_snapshot_survives_later_binnings(self, hash_fn):
        snap = _snapshot(hash_fn, [3, 1, 3])
        counts, observed = snap.counts.copy(), snap.observed.copy()
        _snapshot(hash_fn, [9, 1])
        _snapshot(hash_fn, [4])
        assert np.array_equal(snap.counts, counts)
        assert snap.observed.tolist() == observed.tolist() == [1, 3]

    def test_snapshot_copies_a_writable_observed_array(self, hash_fn):
        observed = np.array([1, 2], dtype=np.uint64)
        snap = HistogramSnapshot(hash_fn, np.zeros(hash_fn.bins), observed)
        observed[0] = 99
        assert snap.observed.tolist() == [1, 2]
        with pytest.raises(ValueError):
            snap.observed[0] = 5

    def test_snapshot_shares_a_read_only_observed_array(self, hash_fn):
        """The clones of a feature hold one observed set: a read-only
        array is adopted as it is, not copied."""
        observed = np.array([1, 2], dtype=np.uint64)
        observed.setflags(write=False)
        snaps = [
            HistogramSnapshot(hash_fn, np.zeros(hash_fn.bins), observed)
            for _ in range(3)
        ]
        assert all(snap.observed is observed for snap in snaps)

    def test_snapshot_shares_a_read_only_counts_row(self, hash_fn):
        """A clone's counts are a row of the read-only binning block:
        adopted as they are, not copied."""
        counts = np.zeros(hash_fn.bins)
        counts.setflags(write=False)
        snap = HistogramSnapshot(hash_fn, counts, np.empty(0, np.uint64))
        assert snap.counts is counts

    def test_snapshot_copies_writable_counts_as_float64(self, hash_fn):
        counts = np.ones(hash_fn.bins, dtype=np.int64)
        snap = HistogramSnapshot(hash_fn, counts, np.empty(0, np.uint64))
        counts[0] = 7
        assert snap.counts.dtype == np.float64
        assert snap.counts[0] == 1.0
        assert not snap.counts.flags.writeable

    def test_length_mismatch_rejected(self, hash_fn):
        with pytest.raises(ConfigError):
            HistogramSnapshot(
                hash_fn,
                counts=np.zeros(3),
                observed=np.array([], dtype=np.uint64),
            )

    def test_cells_are_the_binning_or_hashed_when_read(self, hash_fn):
        """A snapshot holds each observed value's bin: the binning's own
        cells, or - built by hand without them - hashed on first read."""
        binned = _snapshot(hash_fn, [9, 1, 9, 40])
        expected = hash_fn.hash_array(binned.observed).tolist()
        assert binned.cells.tolist() == expected
        by_hand = HistogramSnapshot(hash_fn, binned.counts, binned.observed)
        assert by_hand.cells.tolist() == expected
        assert not by_hand.cells.flags.writeable
        with pytest.raises(ConfigError, match="2 cells for 3 observed"):
            HistogramSnapshot(
                hash_fn, binned.counts, binned.observed, np.zeros(2, np.int64)
            )
