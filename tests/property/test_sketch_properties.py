"""Property-based tests for the federation sketch layer.

Four contracts, over random value streams and hash seeds:

* **One sort per column.**  ``sorted_distinct`` / ``union_counts`` are
  ``np.unique(..., return_counts=True)`` of a column / of two
  concatenated columns (numpy's routine stays here, in the test tree,
  as the reference), a clone set fed a column in any chunking equals
  one fed the whole column, and the count-min's distinct-value path
  equals the scalar update loop.

* **Count-min guarantee.**  Estimates never undercount, and overcount
  by more than ``eps * N`` (eps = e/width) only with the documented
  per-item probability ``delta = e^-depth`` - asserted as a violation
  fraction well under a loose multiple of delta.
* **Merge exactness.**  Merging sketches over split streams is
  byte-identical to sketching the concatenated stream, for count-min
  tables and for interval digests (per-feature value counts, merged in
  any order or grouping).  The clone histograms a digest derives equal
  a clone set fed the column, and its supports are the exact value
  counts.  Consequently the merged
  entropy *equals* the concatenated-trace entropy (drift bound: zero,
  up to float rounding); binning itself can only lose entropy
  (data-processing inequality), which bounds binned against exact
  value entropy.
* **Canonical wire stability.**  ``to_dict -> from_dict -> to_dict``
  is byte-stable for CountMinSketch and IntervalDigest.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.detection.detector import clone_seed
from repro.detection.features import Feature
from repro.federation.digest import DigestSchema, IntervalDigest
from repro.sketch.cloning import CloneSet, clone_counts, clone_snapshots
from repro.sketch.countmin import CountMinSketch
from repro.sketch.distinct import sorted_distinct, union_counts
from repro.sketch.hashing import HashFamily, HashMatrix

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
    hashes = HashMatrix([HashFamily(bins=BINS, seed=seed).take(1)])
    (snapshot,) = clone_snapshots(hashes, *sorted_distinct(values))
    return snapshot


def make_digest(values: np.ndarray, seed: int, site: str) -> IntervalDigest:
    """A one-feature, three-clone digest of ``values`` under ``seed``."""
    schema = DigestSchema(
        seed=seed, clones=3, bins=BINS, features=("dstPort",)
    )
    distinct, run_lengths = sorted_distinct(values)
    return IntervalDigest(
        schema, 0, (site,), len(values),
        value_counts={"dstPort": (distinct, run_lengths.astype(np.int64))},
    )


def clones_of(digest: IntervalDigest):
    return digest.clone_snapshots(Feature.DST_PORT)


# ----------------------------------------------------------------------
# One sort per column
# ----------------------------------------------------------------------
#: Small, duplicate-heavy values mixed with the top of the uint64 range
#: (a sort that went through int64 or float64 would misplace those).
edge_values = st.one_of(
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=2**63 - 2, max_value=2**63 + 2),
    st.integers(min_value=2**64 - 3, max_value=2**64 - 1),
    st.integers(min_value=0, max_value=2**64 - 1),
)
edge_arrays = hnp.arrays(
    dtype=np.uint64,
    shape=st.integers(min_value=0, max_value=60),
    elements=edge_values,
)


@settings(max_examples=200, deadline=None)
@given(values=edge_arrays)
def test_sorted_distinct_equals_unique_with_counts(values):
    distinct, run_lengths = sorted_distinct(values)
    unique, counts = np.unique(values, return_counts=True)
    assert distinct.dtype == np.uint64
    assert run_lengths.dtype == np.float64
    assert np.array_equal(distinct, unique)
    assert np.array_equal(run_lengths, counts)


@settings(max_examples=50, deadline=None)
@given(
    value=edge_values, repeats=st.integers(min_value=1, max_value=40)
)
def test_sorted_distinct_single_and_all_equal(value, repeats):
    distinct, run_lengths = sorted_distinct(
        np.full(repeats, value, dtype=np.uint64)
    )
    assert distinct.tolist() == [value]
    assert run_lengths.tolist() == [float(repeats)]


@settings(max_examples=50, deadline=None)
@given(
    values=hnp.arrays(
        dtype=st.sampled_from([np.uint8, np.uint16, np.uint32, np.int64]),
        shape=st.integers(min_value=0, max_value=60),
        elements=st.integers(min_value=0, max_value=200),
    )
)
def test_sorted_distinct_widens_narrow_columns(values):
    """Feature columns arrive as uint32; whatever the input dtype, the
    distinct values come back as uint64."""
    distinct, run_lengths = sorted_distinct(values)
    unique, counts = np.unique(
        values.astype(np.uint64), return_counts=True
    )
    assert distinct.dtype == np.uint64
    assert np.array_equal(distinct, unique)
    assert np.array_equal(run_lengths, counts)


@settings(max_examples=200, deadline=None)
@given(a=edge_arrays, b=edge_arrays)
def test_union_counts_equals_unique_of_the_concatenation(a, b):
    union, counts = union_counts(
        *np.unique(a, return_counts=True), *np.unique(b, return_counts=True)
    )
    unique, truth = np.unique(np.concatenate((a, b)), return_counts=True)
    assert union.dtype == np.uint64
    assert np.array_equal(union, unique)
    assert np.array_equal(counts, truth)


def chunked(values: np.ndarray, cuts: list[int]) -> list[np.ndarray]:
    """``values`` split at the (sorted, possibly repeated) cut points;
    repeated cuts give empty chunks."""
    bounds = [0, *sorted(min(cut, len(values)) for cut in cuts), len(values)]
    return [
        values[lo:hi] for lo, hi in zip(bounds, bounds[1:], strict=False)
    ]


@settings(max_examples=100, deadline=None)
@given(
    values=hnp.arrays(
        dtype=np.uint64,
        shape=st.integers(min_value=0, max_value=300),
        elements=st.one_of(
            st.integers(min_value=0, max_value=40),
            st.integers(min_value=0, max_value=2**64 - 1),
        ),
    ),
    cuts=st.lists(st.integers(min_value=0, max_value=300), max_size=6),
    seed=seeds,
)
def test_cloneset_any_chunking_equals_one_update(values, cuts, seed):
    whole = CloneSet(3, BINS, seed=seed)
    whole.update(values)
    pieces = CloneSet(3, BINS, seed=seed)
    for chunk in chunked(values, cuts):
        pieces.update(chunk)
    for one, many in zip(whole.snapshots(), pieces.snapshots(), strict=True):
        assert np.array_equal(many.counts, one.counts)
        assert np.array_equal(many.observed, one.observed)
        assert many.hash_fn == one.hash_fn
        assert one.total == len(values)


@settings(max_examples=100, deadline=None)
@given(
    values=hnp.arrays(
        dtype=np.uint64,
        shape=st.integers(min_value=0, max_value=200),
        elements=st.integers(min_value=0, max_value=6),
    ),
    seed=seeds,
)
def test_countmin_update_array_equals_scalar_loop(values, seed):
    vectorized = CountMinSketch(width=16, depth=CM_DEPTH, seed=seed)
    vectorized.update_array(values)
    scalar = CountMinSketch(width=16, depth=CM_DEPTH, seed=seed)
    for value in values.tolist():
        scalar.update(value)
    assert vectorized._table.dtype == np.int64
    assert np.array_equal(vectorized._table, scalar._table)
    assert vectorized.total == scalar.total == len(values)
    assert canonical(vectorized.to_dict()) == canonical(scalar.to_dict())


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
def test_digest_merge_equals_concatenated(values, seed, fraction):
    head, tail = split_at(values, fraction)
    merged = make_digest(head, seed, "a").merge(make_digest(tail, seed, "b"))
    whole = make_digest(values, seed, "whole")
    for mine, theirs in zip(clones_of(merged), clones_of(whole), strict=True):
        assert np.array_equal(mine.counts, theirs.counts)
        assert np.array_equal(mine.observed, theirs.observed)
    # The union is taken once per feature: every clone holds it.
    first = clones_of(merged)[0].observed
    assert all(snap.observed is first for snap in clones_of(merged))
    assert canonical(merged.to_dict()["features"]) == canonical(
        whole.to_dict()["features"]
    )


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
    merged = make_digest(head, seed, "a").merge(make_digest(tail, seed, "b"))
    whole = make_digest(values, seed, "whole")
    for mine, theirs in zip(clones_of(merged), clones_of(whole), strict=True):
        assert abs(entropy(mine.counts) - entropy(theirs.counts)) < 1e-12


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
def test_digest_wire_byte_stable(values, seed):
    digest = make_digest(values, seed, "a")
    doc = digest.to_dict()
    again = IntervalDigest.from_dict(json.loads(canonical(doc)))
    assert canonical(again.to_dict()) == canonical(doc)
    for mine, theirs in zip(clones_of(again), clones_of(digest), strict=True):
        assert mine.hash_fn == theirs.hash_fn
        assert np.array_equal(mine.counts, theirs.counts)
        assert np.array_equal(mine.observed, theirs.observed)


# ----------------------------------------------------------------------
# Derived clones and exact supports
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(values=values_arrays, seed=seeds)
def test_derived_clones_equal_a_clone_set(values, seed):
    """The clone histograms a digest derives from its value counts are
    bin for bin a detector's clone set fed the column."""
    clones = CloneSet(3, BINS, seed=clone_seed(seed, Feature.DST_PORT))
    clones.update(values)
    for mine, theirs in zip(
        clones_of(make_digest(values, seed, "a")), clones.snapshots(),
        strict=True,
    ):
        assert mine.hash_fn == theirs.hash_fn
        assert np.array_equal(mine.counts, theirs.counts)
        assert np.array_equal(mine.observed, theirs.observed)


@settings(max_examples=100, deadline=None)
@given(
    columns=st.lists(values_arrays, min_size=1, max_size=4),
    clones=st.integers(min_value=1, max_value=3),
    seed=seeds,
)
def test_feature_block_equals_one_call_per_feature(columns, clones, seed):
    """Binning ``F`` features in one call is, row for row, binning each
    feature alone by its own column of hash functions."""
    family = HashFamily(bins=BINS, seed=seed)
    hashes = HashMatrix([family.take(clones) for _ in columns])
    value_counts = [sorted_distinct(column) for column in columns]
    block, cells = clone_counts(hashes, value_counts)
    for f, column in enumerate(value_counts):
        (rows,), (alone,) = clone_counts(HashMatrix([hashes.columns[f]]), [column])
        assert np.array_equal(block[f], rows)
        assert np.array_equal(cells[f], alone)


@settings(max_examples=100, deadline=None)
@given(
    values=values_arrays,
    wanted=st.lists(st.integers(min_value=0, max_value=BINS - 1), max_size=8),
    seed=seeds,
)
def test_back_map_answers_the_observed_values_in_the_bins(values, wanted, seed):
    snapshot = make_snapshot(values, seed)
    found = snapshot.values_in_bins(wanted)
    expected = [
        v for v in np.unique(values).tolist() if snapshot.hash_fn(v) in wanted
    ]
    assert found.tolist() == expected
    # The binning's cells answer the same question without a hash.
    assert [snapshot.hash_fn(v) for v in snapshot.observed.tolist()] == (
        snapshot.cells.tolist()
    )


@settings(max_examples=100, deadline=None)
@given(values=values_arrays, probe=values_arrays, seed=seeds)
def test_supports_are_exact_counts(values, probe, seed):
    digest = make_digest(values, seed, "a")
    truth = [int(np.count_nonzero(values == v)) for v in probe.tolist()]
    assert digest.supports(Feature.DST_PORT, probe).tolist() == truth


@settings(max_examples=100, deadline=None)
@given(
    values=values_arrays,
    seed=seeds,
    cuts=st.tuples(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    ),
)
def test_digest_merge_commutes_and_associates_byte_for_byte(
    values, seed, cuts
):
    lo, hi = sorted(int(len(values) * cut) for cut in cuts)
    a, b, c = (
        make_digest(part, seed, site)
        for part, site in (
            (values[:lo], "a"), (values[lo:hi], "b"), (values[hi:], "c")
        )
    )
    left = a.merge(b).merge(c).to_json()
    assert a.merge(b.merge(c)).to_json() == left
    assert c.merge(a).merge(b).to_json() == left
    assert b.merge(a).merge(c).to_json() == left
    whole = make_digest(values, seed, "whole").to_dict()["features"]
    assert canonical(json.loads(left)["features"]) == canonical(whole)
