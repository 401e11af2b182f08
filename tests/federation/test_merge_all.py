"""The k-way merge and the one-pass digest writer.

* ``union_all`` over ``k`` columns and ``IntervalDigest.merge_all``
  over ``k`` digests equal the pairwise ``union_counts`` / ``merge``
  fold, in any order, with empty features, shared values and
  multi-site digests; refusals keep their types.
* ``IntervalDigest.to_json`` splices the base64 payloads into the
  canonical document: it is byte-identical to
  ``canonical_json(d.to_dict())`` and round-trips through
  ``from_json``, whatever the site and feature names hold.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FederationError, SketchError
from repro.federation import IntervalDigest
from repro.federation.digest import DigestSchema
from repro.sketch.distinct import union_all, union_counts
from repro.state import canonical_json

SCHEMA = DigestSchema(
    seed=0, clones=3, bins=64, features=("srcIP", "dstIP", "dstPort")
)


def column(values, counts):
    return (
        np.asarray(values, dtype=np.uint64),
        np.asarray(counts, dtype=np.int64),
    )


@st.composite
def columns(draw, domain=40):
    """A ``sorted_distinct`` column over a small domain, so columns
    share values."""
    values = sorted(draw(st.sets(st.integers(0, domain), max_size=8)))
    counts = draw(
        st.lists(
            st.integers(1, 1000), min_size=len(values), max_size=len(values)
        )
    )
    return column(values, counts)


def assert_column_equal(left, right):
    assert left[0].tolist() == right[0].tolist()
    assert left[1].tolist() == right[1].tolist()


# ----------------------------------------------------------------------
# union_all
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(cols=st.lists(columns(), min_size=1, max_size=6), data=st.data())
def test_union_all_equals_the_pairwise_fold(cols, data):
    folded = functools.reduce(lambda a, b: union_counts(*a, *b), cols)
    assert_column_equal(union_all(cols), folded)
    shuffled = data.draw(st.permutations(cols))
    assert_column_equal(union_all(shuffled), folded)


def test_one_column_union_returns_its_input():
    values, counts = column([3, 9], [1, 2])
    union = union_all([(values, counts)])
    assert union[0] is values and union[1] is counts


def test_one_filled_column_among_empties_is_not_copied():
    empty = column([], [])
    values, counts = column([3, 9], [1, 2])
    union = union_all([empty, (values, counts), empty])
    assert union[0] is values and union[1] is counts


def test_union_all_of_empty_columns_is_empty():
    assert union_all([column([], []), column([], [])])[0].size == 0


def test_union_all_output_is_read_only():
    union = union_all([column([1, 2], [1, 1]), column([2, 3], [1, 1])])
    assert union[0].tolist() == [1, 2, 3]
    assert union[1].tolist() == [1, 2, 1]
    assert not union[0].flags.writeable and not union[1].flags.writeable


# ----------------------------------------------------------------------
# merge_all
# ----------------------------------------------------------------------
@st.composite
def digest_sets(draw):
    """1-6 digests of one interval over disjoint site sets, some of
    them multi-site (the merge reads no per-feature total)."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=6))
    names = iter(f"site{i}" for i in range(sum(sizes)))
    return [
        IntervalDigest(
            SCHEMA, 5, tuple(next(names) for _ in range(size)),
            draw(st.integers(0, 50)),
            {name: draw(columns()) for name in SCHEMA.features},
        )
        for size in sizes
    ]


@settings(max_examples=150, deadline=None)
@given(digests=digest_sets(), data=st.data())
def test_merge_all_equals_the_pairwise_fold(digests, data):
    folded = functools.reduce(IntervalDigest.merge, digests)
    merged = IntervalDigest.merge_all(
        data.draw(st.permutations(digests))
    )
    assert merged.to_json() == folded.to_json()
    assert merged.sites == tuple(
        sorted(site for digest in digests for site in digest.sites)
    )


def test_merge_all_of_one_digest_returns_it():
    digest = IntervalDigest(
        SCHEMA, 0, ("a",), 1,
        {name: column([1], [1]) for name in SCHEMA.features},
    )
    assert IntervalDigest.merge_all([digest]) is digest


def make(sites, interval=0, schema=SCHEMA):
    return IntervalDigest(
        schema, interval, sites, 2,
        {name: column([1, 2], [1, 1]) for name in schema.features},
    )


class TestRefusals:
    def test_schema_mismatch_is_a_sketch_error(self):
        other = dataclasses.replace(SCHEMA, bins=128)
        with pytest.raises(SketchError, match="incompatible sketch"):
            IntervalDigest.merge_all(
                [make(("a",)), make(("b",)), make(("c",), schema=other)]
            )

    def test_interval_mismatch_is_a_federation_error(self):
        with pytest.raises(FederationError, match="different intervals"):
            IntervalDigest.merge_all(
                [make(("a",)), make(("b",)), make(("c",), interval=1)]
            )

    def test_overlapping_sites_are_a_federation_error(self):
        with pytest.raises(FederationError, match="double-count"):
            IntervalDigest.merge_all(
                [make(("a", "b")), make(("c",)), make(("b", "d"))]
            )

    def test_pairwise_merge_keeps_the_refusals(self):
        with pytest.raises(SketchError):
            make(("a",)).merge(
                make(("b",), schema=dataclasses.replace(SCHEMA, seed=1))
            )
        with pytest.raises(FederationError):
            make(("a",)).merge(make(("b",), interval=2))
        with pytest.raises(FederationError):
            make(("a",)).merge(make(("a",)))


# ----------------------------------------------------------------------
# The one-pass writer
# ----------------------------------------------------------------------
ODD_TEXT = st.one_of(
    st.sampled_from(['a"b', "back\\slash", "ünï", "日本", '"data":""', ""]),
    st.text(max_size=12),
)

#: Values that narrow to one byte, and values that need all eight.
WIDTHS = {"narrow": 255, "wide": 2**64 - 1}


@st.composite
def wire_digests(draw):
    features = tuple(
        draw(st.lists(ODD_TEXT, min_size=1, max_size=4, unique=True))
    )
    schema = DigestSchema(seed=3, clones=2, bins=32, features=features)
    sites = tuple(
        draw(st.lists(ODD_TEXT, min_size=1, max_size=3, unique=True))
    )
    flows = draw(st.integers(0, 2**40))
    value_counts = {}
    for name in features:
        top = WIDTHS[draw(st.sampled_from(sorted(WIDTHS)))]
        drawn = draw(st.sets(st.integers(0, top), min_size=1, max_size=6))
        values = sorted(drawn)[:flows]
        counts = [1] * len(values)
        if values:
            counts[-1] = flows - (len(values) - 1)
        value_counts[name] = column(values, counts)
    return IntervalDigest(
        schema, draw(st.integers(0, 10**6)), sites, flows, value_counts
    )


@settings(max_examples=200, deadline=None)
@given(digest=wire_digests())
def test_to_json_is_canonical_and_round_trips(digest):
    wire = digest.to_json()
    assert wire == canonical_json(digest.to_dict())
    again = IntervalDigest.from_json(wire)
    assert again.to_json() == wire
    assert (again.schema, again.interval, again.sites, again.flow_count) == (
        digest.schema, digest.interval, digest.sites, digest.flow_count
    )
