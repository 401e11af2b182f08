"""Unit tests for the universal hash family."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.sketch.hashing import MERSENNE_PRIME, HashFamily, UniversalHash


class TestUniversalHash:
    def test_scalar_matches_vector(self):
        fn = UniversalHash(a=12345, b=678, bins=64)
        values = np.arange(1000, dtype=np.uint64)
        vector = fn.hash_array(values)
        scalars = [fn(int(v)) for v in values]
        assert list(vector) == scalars

    def test_output_range(self):
        fn = UniversalHash(a=99991, b=17, bins=10)
        hashed = fn.hash_array(np.arange(10_000, dtype=np.uint64))
        assert hashed.min() >= 0
        assert hashed.max() < 10

    def test_deterministic(self):
        fn = UniversalHash(a=31337, b=4242, bins=128)
        values = np.arange(256, dtype=np.uint64)
        assert np.array_equal(fn.hash_array(values), fn.hash_array(values))

    def test_large_multiplier_no_overflow(self):
        # Multipliers close to the Mersenne prime stress the split
        # multiply; scalar (exact Python int) and vector paths must agree.
        fn = UniversalHash(a=MERSENNE_PRIME - 5, b=MERSENNE_PRIME - 11, bins=1024)
        values = np.array([0, 1, 2**31, 2**32 - 1], dtype=np.uint64)
        assert list(fn.hash_array(values)) == [fn(int(v)) for v in values]

    def test_roughly_uniform(self):
        fn = UniversalHash(a=7919, b=104729, bins=16)
        hashed = fn.hash_array(np.arange(160_000, dtype=np.uint64))
        counts = np.bincount(hashed, minlength=16)
        # Each bin should get ~10k; allow generous slack.
        assert counts.min() > 8_000
        assert counts.max() < 12_000

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(a=0, b=0, bins=16),
            dict(a=MERSENNE_PRIME, b=0, bins=16),
            dict(a=1, b=-1, bins=16),
            dict(a=1, b=MERSENNE_PRIME, bins=16),
            dict(a=1, b=0, bins=0),
        ],
    )
    def test_parameter_validation(self, kwargs):
        with pytest.raises(ConfigError):
            UniversalHash(**kwargs)


class TestHashFamily:
    def test_same_seed_same_functions(self):
        fam1 = HashFamily(bins=64, seed=9).take(3)
        fam2 = HashFamily(bins=64, seed=9).take(3)
        assert fam1 == fam2

    def test_different_seed_different_functions(self):
        fam1 = HashFamily(bins=64, seed=1).take(3)
        fam2 = HashFamily(bins=64, seed=2).take(3)
        assert fam1 != fam2

    def test_functions_within_family_differ(self):
        functions = HashFamily(bins=64, seed=5).take(4)
        params = {(fn.a, fn.b) for fn in functions}
        assert len(params) == 4

    def test_clone_independence(self):
        # Two clones should disagree on bin placement for most values.
        f1, f2 = HashFamily(bins=1024, seed=3).take(2)
        values = np.arange(10_000, dtype=np.uint64)
        agree = (f1.hash_array(values) == f2.hash_array(values)).mean()
        assert agree < 0.01  # expected ~1/1024

    def test_invalid_args(self):
        with pytest.raises(ConfigError):
            HashFamily(bins=0)
        with pytest.raises(ConfigError):
            HashFamily(bins=4).take(0)
