"""Unit tests for clone sets."""

import numpy as np
import pytest

from repro.errors import ConfigError, SketchError
from repro.sketch.cloning import CloneSet, clone_counts, clone_snapshots
from repro.sketch.distinct import sorted_distinct
from repro.sketch.hashing import HashFamily, HashMatrix
from tests.sketch.reference import reference_hash_array


def _matrix(features, clones, bins=16, seed=3):
    """A hash matrix of ``features`` columns of ``clones`` functions."""
    family = HashFamily(bins=bins, seed=seed)
    return HashMatrix([family.take(clones) for _ in range(features)])


def _column(values):
    return sorted_distinct(np.asarray(values, dtype=np.uint64))


class TestCloneCounts:
    def test_block_shape_and_read_only(self):
        block, cells = clone_counts(
            _matrix(2, 3), [_column([1, 2]), _column([5])]
        )
        assert block.shape == (2, 3, 16)
        assert block.dtype == np.float64
        assert not block.flags.writeable
        assert [c.shape for c in cells] == [(3, 2), (3, 1)]
        assert all(c.dtype == np.int64 for c in cells)
        assert not any(c.flags.writeable for c in cells)

    def test_each_row_is_its_clones_bincount(self, rng):
        values = rng.integers(0, 1000, 300).astype(np.uint64)
        hashes = _matrix(1, 4, bins=37)
        observed, counts = _column(values)
        (rows,), (cells,) = clone_counts(hashes, [(observed, counts)])
        for fn, row, row_cells in zip(
            hashes.columns[0], rows, cells, strict=True
        ):
            expected = np.bincount(
                reference_hash_array(fn, values), minlength=37
            )
            assert np.array_equal(row, expected)
            # The cells are each observed value's bin: the back-map.
            assert np.array_equal(
                row_cells, reference_hash_array(fn, observed)
            )

    def test_features_binned_by_their_own_column(self, rng):
        columns = [
            _column(rng.integers(0, 50, 80)),
            _column(rng.integers(0, 9, 40)),
        ]
        hashes = _matrix(2, 3)
        block, cells = clone_counts(hashes, columns)
        for f, column in enumerate(columns):
            (rows,), (alone,) = clone_counts(
                HashMatrix([hashes.columns[f]]), [column]
            )
            assert np.array_equal(block[f], rows)
            assert np.array_equal(cells[f], alone)

    def test_counts_weigh_each_value(self):
        hashes = _matrix(1, 2)
        values = np.array([4, 8], dtype=np.uint64)
        (rows,), _ = clone_counts(hashes, [(values, np.array([3.0, 5.0]))])
        for fn, row in zip(hashes.columns[0], rows, strict=True):
            assert row[fn(4)] + row[fn(8)] == 8.0
            assert row.sum() == 8.0

    def test_empty_feature_gives_zero_rows(self):
        block, cells = clone_counts(
            _matrix(2, 2), [_column([]), _column([3, 3])]
        )
        assert not block[0].any()
        assert cells[0].shape == (2, 0)
        assert block[1].sum(axis=-1).tolist() == [2.0, 2.0]

    def test_feature_count_mismatch_refused(self):
        with pytest.raises(ConfigError, match="2 value-count columns"):
            clone_counts(_matrix(3, 2), [_column([1]), _column([2])])

    def test_negative_signed_key_refused(self):
        signed = (np.array([-1, 2], dtype=np.int64), np.ones(2))
        with pytest.raises(SketchError, match="non-negative"):
            clone_counts(_matrix(1, 2), [signed])


class TestCloneSnapshots:
    def test_one_snapshot_per_clone_function(self):
        hashes = _matrix(1, 3)
        snaps = clone_snapshots(hashes, *_column([1, 2, 2]))
        assert [snap.hash_fn for snap in snaps] == list(hashes.columns[0])

    def test_snapshot_counts_are_the_binning_rows(self):
        hashes = _matrix(1, 3)
        column = _column([7, 1, 7, 30])
        (rows,), (cells,) = clone_counts(hashes, [column])
        snaps = clone_snapshots(hashes, *column)
        for snap, row, row_cells in zip(snaps, rows, cells, strict=True):
            assert np.array_equal(snap.counts, row)
            assert snap.total == 4.0
            assert snap.cells is not None
            assert np.array_equal(snap.cells, row_cells)

    def test_snapshots_share_the_observed_array(self):
        observed, counts = _column([3, 9, 3])
        snaps = clone_snapshots(_matrix(1, 3), observed, counts)
        assert all(snap.observed is observed for snap in snaps)


class TestCloneSet:
    def test_clone_count(self):
        clones = CloneSet(clones=4, bins=16, seed=1)
        assert len(clones) == 4
        assert clones.bins == 16

    def test_needs_at_least_one_clone(self):
        with pytest.raises(ConfigError):
            CloneSet(clones=0, bins=16)

    def test_clones_use_distinct_hashes(self):
        clones = CloneSet(clones=3, bins=1024, seed=2)
        params = {(c.hash_fn.a, c.hash_fn.b) for c in clones}
        assert len(params) == 3

    def test_update_feeds_all_clones(self):
        clones = CloneSet(clones=3, bins=16, seed=0)
        clones.update(np.array([1, 2, 3], dtype=np.uint64))
        assert all(c.total == 3.0 for c in clones)

    def test_update_with_empty_column_is_noop(self):
        clones = CloneSet(clones=2, bins=16, seed=0)
        clones.update(np.array([4], dtype=np.uint64))
        clones.update(np.array([], dtype=np.uint64))
        assert all(c.total == 1.0 for c in clones)
        assert clones[0].observed.tolist() == [4]

    def test_update_distinct_equals_update(self):
        column = np.array([8, 3, 8, 8, 1], dtype=np.uint64)
        whole = CloneSet(clones=3, bins=16, seed=4)
        whole.update(column)
        distinct = CloneSet(clones=3, bins=16, seed=4)
        distinct.update_distinct(*sorted_distinct(column))
        for a, b in zip(whole, distinct, strict=True):
            assert np.array_equal(a.counts, b.counts)
            assert np.array_equal(a.observed, b.observed)

    def test_snapshots_list_is_a_copy(self):
        clones = CloneSet(clones=2, bins=16, seed=0)
        clones.update(np.array([1], dtype=np.uint64))
        clones.snapshots().clear()
        assert len(clones.snapshots()) == 2

    def test_reset_clears_all_clones(self):
        clones = CloneSet(clones=2, bins=16, seed=0)
        clones.update(np.array([1], dtype=np.uint64))
        clones.reset()
        assert all(c.total == 0.0 for c in clones)

    def test_snapshots_align_with_clones(self):
        clones = CloneSet(clones=2, bins=16, seed=0)
        clones.update(np.array([5, 6], dtype=np.uint64))
        snaps = clones.snapshots()
        assert len(snaps) == 2
        for clone, snap in zip(clones, snaps):
            assert np.array_equal(snap.counts, clone.counts)

    def test_clones_share_one_observed_array(self):
        """The column is sorted once; every clone's snapshot holds that
        one read-only distinct-value array, not a copy each."""
        clones = CloneSet(clones=3, bins=16, seed=0)
        clones.update(np.array([7, 5, 7, 6], dtype=np.uint32))
        first, *rest = clones.snapshots()
        assert first.observed.tolist() == [5, 6, 7]
        assert first.observed.dtype == np.uint64
        assert not first.observed.flags.writeable
        assert all(snap.observed is first.observed for snap in rest)

    def test_same_seed_reproducible(self):
        a = CloneSet(clones=2, bins=64, seed=5)
        b = CloneSet(clones=2, bins=64, seed=5)
        values = np.arange(100, dtype=np.uint64)
        a.update(values)
        b.update(values)
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.counts, cb.counts)

    def test_indexing(self):
        clones = CloneSet(clones=3, bins=8, seed=0)
        assert clones[0] is list(iter(clones))[0]
