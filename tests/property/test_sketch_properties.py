"""Property-based tests for the federation sketch layer.

Three contracts, over random value streams and hash seeds:

* **Count-min guarantee.**  Estimates never undercount, and overcount
  by more than ``eps * N`` (eps = e/width) only with the documented
  per-item probability ``delta = e^-depth`` - asserted as a violation
  fraction well under a loose multiple of delta.
* **Merge exactness.**  Merging sketches over split streams is
  byte-identical to sketching the concatenated stream, for both
  count-min tables and histogram snapshots.  Consequently the merged
  entropy *equals* the concatenated-trace entropy (drift bound: zero,
  up to float rounding); binning itself can only lose entropy
  (data-processing inequality), which bounds binned against exact
  value entropy.
* **Canonical wire stability.**  ``to_dict -> from_dict -> to_dict``
  is byte-stable for CountMinSketch and HistogramSnapshot.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.sketch.countmin import CountMinSketch
from repro.sketch.hashing import HashFamily
from repro.sketch.histogram import HashedHistogram

CM_WIDTH = 128
CM_DEPTH = 4
BINS = 64

values_arrays = hnp.arrays(
    dtype=np.uint64,
    shape=st.integers(min_value=1, max_value=400),
    elements=st.integers(min_value=0, max_value=5000),
)
seeds = st.integers(min_value=0, max_value=2**16)


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def split_at(values: np.ndarray, fraction: float):
    cut = int(len(values) * fraction)
    return values[:cut], values[cut:]


def entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log(p)).sum())


def make_snapshot(values: np.ndarray, seed: int):
    hash_fn = HashFamily(bins=BINS, seed=seed).take(1)[0]
    histogram = HashedHistogram(hash_fn)
    histogram.update(values)
    return histogram.snapshot()


# ----------------------------------------------------------------------
# Count-min guarantee
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(values=values_arrays, seed=seeds)
def test_countmin_never_undercounts(values, seed):
    sketch = CountMinSketch(width=CM_WIDTH, depth=CM_DEPTH, seed=seed)
    sketch.update_array(values)
    unique, truth = np.unique(values, return_counts=True)
    for value, count in zip(unique, truth, strict=True):
        assert sketch.estimate(int(value)) >= int(count)


@settings(max_examples=100, deadline=None)
@given(values=values_arrays, seed=seeds)
def test_countmin_eps_n_bound_holds_with_probability(values, seed):
    """Per-item overcount beyond eps*N has probability <= delta =
    e^-depth (~1.8% here); a 25% observed violation fraction would be
    over an order of magnitude outside the guarantee."""
    sketch = CountMinSketch(width=CM_WIDTH, depth=CM_DEPTH, seed=seed)
    sketch.update_array(values)
    assert sketch.total == len(values)
    eps_n = np.e / CM_WIDTH * sketch.total
    unique, truth = np.unique(values, return_counts=True)
    estimates = np.array([sketch.estimate(int(v)) for v in unique])
    violations = int(np.count_nonzero(estimates > truth + eps_n))
    assert violations <= max(1, int(np.ceil(0.25 * len(unique))))


@settings(max_examples=100, deadline=None)
@given(
    values=values_arrays,
    seed=seeds,
    fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_countmin_merge_equals_concatenated(values, seed, fraction):
    head, tail = split_at(values, fraction)
    whole = CountMinSketch(width=CM_WIDTH, depth=CM_DEPTH, seed=seed)
    whole.update_array(values)
    merged = CountMinSketch(width=CM_WIDTH, depth=CM_DEPTH, seed=seed)
    merged.update_array(head)
    other = CountMinSketch(width=CM_WIDTH, depth=CM_DEPTH, seed=seed)
    other.update_array(tail)
    merged.merge(other)
    assert canonical(merged.to_dict()) == canonical(whole.to_dict())


# ----------------------------------------------------------------------
# Histogram merge exactness and the entropy contract
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(
    values=values_arrays,
    seed=seeds,
    fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_snapshot_merge_equals_concatenated(values, seed, fraction):
    head, tail = split_at(values, fraction)
    merged = make_snapshot(head, seed).merge(make_snapshot(tail, seed))
    whole = make_snapshot(values, seed)
    assert np.array_equal(merged.counts, whole.counts)
    assert np.array_equal(merged.observed, whole.observed)
    assert canonical(merged.to_dict()) == canonical(whole.to_dict())


@settings(max_examples=100, deadline=None)
@given(
    values=values_arrays,
    seed=seeds,
    fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_merged_entropy_drift_is_zero(values, seed, fraction):
    """The documented bound: merged-histogram entropy drifts from the
    concatenated-trace entropy by exactly nothing (counts add as exact
    float64 integers), modulo float rounding in the log."""
    head, tail = split_at(values, fraction)
    merged = make_snapshot(head, seed).merge(make_snapshot(tail, seed))
    whole = make_snapshot(values, seed)
    assert abs(entropy(merged.counts) - entropy(whole.counts)) < 1e-12


@settings(max_examples=100, deadline=None)
@given(values=values_arrays, seed=seeds)
def test_binned_entropy_never_exceeds_value_entropy(values, seed):
    """Hashing into bins is a deterministic coarse-graining, so binned
    entropy is bounded above by the exact value entropy (and below by
    zero) - the data-processing side of the drift statement."""
    snapshot = make_snapshot(values, seed)
    _, value_counts = np.unique(values, return_counts=True)
    binned = entropy(snapshot.counts)
    assert -1e-12 <= binned <= entropy(value_counts) + 1e-9


# ----------------------------------------------------------------------
# Canonical wire stability
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(values=values_arrays, seed=seeds)
def test_countmin_wire_byte_stable(values, seed):
    sketch = CountMinSketch(width=CM_WIDTH, depth=CM_DEPTH, seed=seed)
    sketch.update_array(values)
    doc = sketch.to_dict()
    again = CountMinSketch.from_dict(doc)
    assert canonical(again.to_dict()) == canonical(doc)
    for value in np.unique(values)[:8]:
        assert again.estimate(int(value)) == sketch.estimate(int(value))


@settings(max_examples=100, deadline=None)
@given(values=values_arrays, seed=seeds)
def test_snapshot_wire_byte_stable(values, seed):
    snapshot = make_snapshot(values, seed)
    doc = snapshot.to_dict()
    again = type(snapshot).from_dict(doc)
    assert canonical(again.to_dict()) == canonical(doc)
    assert np.array_equal(again.counts, snapshot.counts)
    assert np.array_equal(again.observed, snapshot.observed)
