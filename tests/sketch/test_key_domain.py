"""Keys are the integers of [0, 2^64): outside it, every path refuses.

A signed column used to be cast to uint64 (``-5`` hashed as
``2^64 - 5``) while the scalar path hashed Python's ``-5 mod p``, so a
count-min fed ``-5`` ten times estimated it at 0 - an *under*-estimate
the sketch promises never to make.  Both paths now refuse such keys
with :class:`~repro.errors.SketchError`.
"""

import numpy as np
import pytest

from repro.errors import SketchError
from repro.sketch.cloning import CloneSet
from repro.sketch.countmin import CountMinSketch
from repro.sketch.distinct import sorted_distinct
from repro.sketch.hashing import MERSENNE_PRIME, UniversalHash


class TestKeyDomain:
    """Scalar and array paths hash the same keys - or both refuse."""

    def test_negative_column_refused_not_wrapped(self):
        sketch = CountMinSketch(width=64, depth=4)
        with pytest.raises(SketchError, match="minimum -5"):
            sketch.update_array(np.array([-5] * 10))
        with pytest.raises(SketchError):
            sketch.estimate(-5)
        assert sketch.total == 0

    def test_sorted_distinct_refuses_negative_signed_input(self):
        with pytest.raises(SketchError, match="minimum -3"):
            sorted_distinct(np.array([4, -3, 2], dtype=np.int32))
        distinct, counts = sorted_distinct(np.array([4, 2, 4], np.int64))
        assert distinct.tolist() == [2, 4] and counts.tolist() == [1, 2]

    def test_clone_set_refuses_negative_column(self):
        with pytest.raises(SketchError):
            CloneSet(clones=2, bins=16).update(np.array([1, -1]))

    @pytest.mark.parametrize("value", [-1, 2**64, 2**70])
    def test_scalar_hash_refuses_keys_outside_uint64(self, value):
        fn = UniversalHash(a=3, b=5, bins=16)
        with pytest.raises(SketchError, match=r"\[0, 2\^64\)"):
            fn(value)
        with pytest.raises(SketchError):
            CountMinSketch(width=8, depth=2).update(value)

    def test_top_of_range_agrees(self):
        fn = UniversalHash(a=MERSENNE_PRIME - 1, b=1, bins=1000)
        top = 2**64 - 1
        assert fn(top) == fn.hash_array(np.array([top], np.uint64))[0]
        sketch = CountMinSketch(width=64, depth=4)
        sketch.update_array(np.array([top] * 10, dtype=np.uint64))
        assert sketch.estimate(top) == 10
