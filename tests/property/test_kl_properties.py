"""Property-based tests for the KL distance machinery."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.detection.kl import (
    first_difference,
    kl_distance,
    kl_from_counts,
    smooth_rows,
)

counts_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=2, max_value=64),
    elements=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)


def _paired_counts():
    return st.integers(min_value=2, max_value=64).flatmap(
        lambda n: st.tuples(
            hnp.arrays(
                dtype=np.float64,
                shape=n,
                elements=st.floats(min_value=0.0, max_value=1e6),
            ),
            hnp.arrays(
                dtype=np.float64,
                shape=n,
                elements=st.floats(min_value=0.0, max_value=1e6),
            ),
        )
    )


@settings(max_examples=100, deadline=None)
@given(pair=_paired_counts())
def test_kl_non_negative(pair):
    current, reference = pair
    distance = kl_from_counts(current, reference, pseudocount=0.5)
    assert distance >= -1e-9  # Gibbs inequality (numerical slack)


@settings(max_examples=100, deadline=None)
@given(counts=counts_arrays)
def test_kl_self_distance_zero(counts):
    assert kl_from_counts(counts, counts, pseudocount=0.5) == 0.0


@settings(max_examples=100, deadline=None)
@given(counts=counts_arrays, scale=st.floats(min_value=1.1, max_value=100.0))
def test_kl_volume_invariance_without_smoothing(counts, scale):
    # Scaling all counts leaves the distribution unchanged; with zero
    # pseudocount the distance must be exactly 0 (the paper's robustness
    # to volume-only changes).
    distance = kl_from_counts(counts * scale, counts, pseudocount=0.0)
    assert abs(distance) < 1e-9


@settings(max_examples=100, deadline=None)
@given(pair=_paired_counts())
def test_kl_finite_with_smoothing(pair):
    current, reference = pair
    assert np.isfinite(kl_from_counts(current, reference, pseudocount=0.5))


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=32),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_kl_asymmetric_in_general(n, seed):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(n))
    q = rng.dirichlet(np.ones(n))
    forward = kl_distance(p, q)
    backward = kl_distance(q, p)
    # Both defined and non-negative; equality only in degenerate cases.
    assert forward >= 0 and backward >= 0


@settings(max_examples=100, deadline=None)
@given(
    series=hnp.arrays(
        dtype=np.float64,
        shape=st.integers(min_value=1, max_value=100),
        elements=st.floats(min_value=-1e9, max_value=1e9),
    )
)
def test_first_difference_reconstructs_series(series):
    diffs = first_difference(series)
    assert len(diffs) == len(series)
    assert diffs[0] == 0.0
    reconstructed = series[0] + np.cumsum(diffs)
    assert np.allclose(reconstructed, series, rtol=1e-9, atol=1e-6)


@settings(max_examples=100, deadline=None)
@given(
    stack=st.integers(min_value=2, max_value=32).flatmap(
        lambda n: hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(min_value=1, max_value=6), st.just(n)),
            elements=st.floats(min_value=0.0, max_value=1e6),
        )
    ),
    pseudocount=st.sampled_from((1e-3, 0.5, 3.0)),
)
def test_smooth_rows_stacked_equals_row_by_row(stack, pseudocount):
    """A detector carries a stack of smoothed clone histograms forward
    as the next reference: each row is the bits a one-row call gives,
    whatever else is stacked with it."""
    rows, totals = smooth_rows(stack, pseudocount)
    for i, counts in enumerate(stack):
        alone, total = smooth_rows(counts, pseudocount)
        assert rows[i].tobytes() == alone.tobytes()
        assert totals[i].tobytes() == total.tobytes()
