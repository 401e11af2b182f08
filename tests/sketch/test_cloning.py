"""Unit tests for clone sets."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.sketch.cloning import CloneSet


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
