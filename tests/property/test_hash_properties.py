"""Property-based tests for universal hashing."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sketch.hashing import MERSENNE_PRIME, UniversalHash, hash_rows
from tests.sketch.reference import reference_hash_array

P = MERSENNE_PRIME
#: Where the kernel changes branch: either side of 2^32 (a key's high
#: half turns non-zero), around p, its powers of two, the sign bit and
#: the top of the uint64 range.
KEY_EDGES = [
    0,
    (1 << 32) - 1,
    1 << 32,
    (1 << 33) - 1,
    P - 1,
    P,
    P + 1,
    1 << 61,
    1 << 63,
    (1 << 64) - 1,
]
NARROW = 1 << 32

narrow_keys = st.lists(
    st.one_of(
        st.sampled_from([k for k in KEY_EDGES if k < NARROW]),
        st.integers(0, NARROW - 1),
    ),
    min_size=1,
    max_size=40,
)
#: Mixed lists take the wide branch; lists of keys below 2^32 (every
#: paper feature) take the one that skips the high half.
keys = st.one_of(
    st.lists(
        st.one_of(
            st.sampled_from(KEY_EDGES), st.integers(0, (1 << 64) - 1)
        ),
        min_size=1,
        max_size=40,
    ),
    narrow_keys,
)
bin_counts = st.one_of(
    st.integers(0, 24).map(lambda e: 1 << e),   # the & (m - 1) path
    st.integers(1, 1 << 20),                     # mostly the % m path
)
functions = st.builds(
    UniversalHash,
    a=st.one_of(st.sampled_from([1, 2, P - 1]), st.integers(1, P - 1)),
    b=st.one_of(st.sampled_from([0, P - 1]), st.integers(0, P - 1)),
    bins=bin_counts,
)


@settings(max_examples=100, deadline=None)
@given(
    a=st.integers(min_value=1, max_value=MERSENNE_PRIME - 1),
    b=st.integers(min_value=0, max_value=MERSENNE_PRIME - 1),
    bins=st.integers(min_value=1, max_value=1 << 20),
    values=st.lists(
        st.integers(min_value=0, max_value=2**64 - 1),
        min_size=1,
        max_size=20,
    ),
)
def test_vectorized_equals_scalar(a, b, bins, values):
    """The uint64 split-multiply must match exact Python arithmetic."""
    fn = UniversalHash(a=a, b=b, bins=bins)
    array = np.array(values, dtype=np.uint64)
    assert fn.hash_array(array).tolist() == [fn(v) for v in values]


@settings(max_examples=300, deadline=None)
@given(
    fns=st.lists(functions, min_size=1, max_size=8),
    shared_bins=st.one_of(st.none(), bin_counts),
    values=keys,
)
def test_hash_rows_equals_reference_stack(fns, shared_bins, values):
    """The fused division-free kernel bins every key of the full uint64
    range exactly as the one-function-at-a-time ``%`` kernel and the
    exact Python-int definition do, for 1..8 rows of power-of-two, odd
    and mixed bin counts."""
    if shared_bins is not None:
        fns = [UniversalHash(fn.a, fn.b, shared_bins) for fn in fns]
    array = np.array(values, dtype=np.uint64)
    rows = hash_rows(fns, array)
    assert rows.dtype == np.int64
    assert rows.shape == (len(fns), len(values))
    assert np.array_equal(
        rows, np.stack([reference_hash_array(fn, array) for fn in fns])
    )
    assert rows.tolist() == [[fn(v) for v in values] for fn in fns]


@settings(max_examples=200, deadline=None)
@given(
    fns=st.lists(functions, min_size=1, max_size=4),
    values=narrow_keys,
    wide=st.one_of(
        st.sampled_from([k for k in KEY_EDGES if k >= NARROW]),
        st.integers(NARROW, (1 << 64) - 1),
    ),
)
# Just past the branch test, where a narrow-path product would overflow.
@example([UniversalHash(P - 1, P - 1, 1 << 20)], [0, NARROW - 1], (1 << 33) - 1)
@example([UniversalHash(P - 1, 0, 977)], [NARROW - 1], (1 << 64) - 1)
def test_narrow_keys_bin_alike_in_both_branches(fns, values, wide):
    """Keys below 2^32 hashed alone (the high half skipped) land in the
    bins they get beside one wide key (the two-half branch)."""
    alone = hash_rows(fns, np.array(values, dtype=np.uint64))
    beside = hash_rows(fns, np.array([*values, wide], dtype=np.uint64))
    assert np.array_equal(alone, beside[:, :-1])
    assert beside[:, -1].tolist() == [fn(wide) for fn in fns]


@settings(max_examples=100, deadline=None)
@given(
    a=st.integers(min_value=1, max_value=MERSENNE_PRIME - 1),
    b=st.integers(min_value=0, max_value=MERSENNE_PRIME - 1),
    bins=st.integers(min_value=1, max_value=4096),
    value=st.integers(min_value=0, max_value=2**48),
)
def test_output_in_range(a, b, bins, value):
    fn = UniversalHash(a=a, b=b, bins=bins)
    assert 0 <= fn(value) < bins


@settings(max_examples=50, deadline=None)
@given(
    a=st.integers(min_value=1, max_value=MERSENNE_PRIME - 1),
    b=st.integers(min_value=0, max_value=MERSENNE_PRIME - 1),
    value=st.integers(min_value=0, max_value=2**48),
)
def test_definition_matches_formula(a, b, value):
    fn = UniversalHash(a=a, b=b, bins=977)
    assert fn(value) == ((a * value + b) % MERSENNE_PRIME) % 977


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    bins=st.integers(min_value=2, max_value=2048),
)
def test_family_reproducible(seed, bins):
    from repro.sketch.hashing import HashFamily

    first = HashFamily(bins=bins, seed=seed).take(2)
    second = HashFamily(bins=bins, seed=seed).take(2)
    assert first == second
