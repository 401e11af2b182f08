"""The fused hash pass equals the one-function-at-a-time paths.

A clone set hashes its ``C`` functions, and a count-min its ``depth``
rows, in one ``hash_rows`` call; these tests hold the fused updates,
the vectorised point query and the lazily drawn count-min functions to
the per-row results they replaced.
"""

import numpy as np
import pytest

from repro.errors import SketchError
from repro.sketch.cloning import CloneSet
from repro.sketch.countmin import CountMinSketch
from repro.sketch.hashing import MERSENNE_PRIME, HashFamily, hash_rows
from tests.sketch.reference import reference_hash_array


def _column(rng, size=2_000):
    """A duplicate-heavy uint64 column reaching past 2^63."""
    small = rng.integers(0, 300, size=size // 2).astype(np.uint64)
    wide = rng.integers(0, 2**64, size=size // 2, dtype=np.uint64)
    return np.concatenate([small, wide, small[:50]])


@pytest.mark.parametrize("bins", [1, 64, 1024, 977])
def test_clone_set_equals_per_clone_histograms(rng, bins):
    values = _column(rng)
    clones = CloneSet(clones=4, bins=bins, seed=11)
    clones.update(values)
    for clone, fn in zip(clones, HashFamily(bins, seed=11).take(4)):
        assert np.array_equal(clone.observed, np.unique(values))
        expected = np.bincount(
            reference_hash_array(fn, values), minlength=bins
        )
        assert np.array_equal(clone.counts, expected)


@pytest.mark.parametrize("width,depth", [(1, 1), (64, 4), (2719, 4), (5, 8)])
def test_countmin_update_equals_per_row_scatter(rng, width, depth):
    values = _column(rng)
    sketch = CountMinSketch(width=width, depth=depth, seed=5)
    sketch.update_array(values)
    fns = HashFamily(bins=width, seed=5).take(depth)
    expected = np.stack(
        [
            np.bincount(reference_hash_array(fn, values), minlength=width)
            for fn in fns
        ]
    )
    assert sketch.to_dict()["table"] == CountMinSketch(
        width, depth, 5, table=expected.astype(np.int64)
    ).to_dict()["table"]
    assert sketch.total == values.size


def test_estimate_array_equals_scalar_estimates(rng):
    values = _column(rng)
    sketch = CountMinSketch(width=97, depth=4, seed=2)
    sketch.update_array(values)
    probes = np.concatenate(
        [values[:300], np.array([0, MERSENNE_PRIME, 2**64 - 1], np.uint64)]
    )
    estimates = sketch.estimate_array(probes)
    assert estimates.dtype == np.int64
    assert estimates.tolist() == [sketch.estimate(int(v)) for v in probes]
    assert sketch.estimate_array(np.empty(0, np.uint64)).size == 0


def test_heavy_hitters_match_scalar_estimates(rng):
    values = rng.zipf(1.5, size=5_000) % 200
    sketch = CountMinSketch(width=128, depth=4, seed=3)
    sketch.update_array(values)
    hits = sketch.heavy_hitters(np.arange(200), threshold=40)
    expected = sorted(
        (
            (v, sketch.estimate(v))
            for v in range(200)
            if sketch.estimate(v) >= 40
        ),
        key=lambda pair: (-pair[1], pair[0]),
    )
    assert hits == expected and hits


def test_hash_rows_of_nothing():
    fns = HashFamily(bins=8, seed=0).take(3)
    assert hash_rows(fns, np.empty(0, np.uint64)).shape == (3, 0)


class TestLazyDraw:
    def test_decoded_sketch_draws_nothing_until_queried(self, rng):
        sketch = CountMinSketch(width=64, depth=4, seed=9)
        sketch.update_array(_column(rng))
        decoded = CountMinSketch.from_dict(sketch.to_dict())
        assert decoded._drawn is None
        assert decoded.to_dict() == sketch.to_dict()
        assert decoded._drawn is None
        assert decoded.estimate(7) == sketch.estimate(7)
        assert decoded._drawn == HashFamily(bins=64, seed=9).take(4)

    def test_merged_is_the_sum_and_leaves_inputs_alone(self, rng):
        a = CountMinSketch(width=64, depth=3, seed=4)
        b = CountMinSketch(width=64, depth=3, seed=4)
        a.update_array(_column(rng, 500))
        b.update_array(_column(rng, 700))
        before = (a.to_dict(), b.to_dict())
        merged = a.merged(b)
        assert merged._drawn is None
        assert (a.to_dict(), b.to_dict()) == before
        in_place = CountMinSketch(width=64, depth=3, seed=4)
        in_place.merge(a)
        in_place.merge(b)
        assert merged.to_dict() == in_place.to_dict()

    def test_merged_refuses_other_seed(self):
        with pytest.raises(SketchError, match="different parameters"):
            CountMinSketch(8, 2, seed=1).merged(CountMinSketch(8, 2, seed=2))
