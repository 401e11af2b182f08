"""A decoded digest's two columns, at their feature boundaries.

``IntervalDigest.from_json`` reads every feature's observed values into
one uint64 column and every count into one int64 column, and checks
sortedness, positive counts and per-feature totals over the columns at
once.  Neighbouring features meet inside a column, so the properties
below build digests whose boundaries are the interesting part: empty
features, the values 0 and 2^64 - 1, a feature whose last value lies
above the next feature's first, and counts up to 2^62 (where an int64
total may wrap and the exact sum decides).
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection.features import DETECTOR_FEATURES
from repro.errors import FederationError
from repro.federation import IntervalDigest
from repro.federation.digest import DigestSchema
from repro.state import canonical_json, pack_array

NAMES = tuple(feature.short_name for feature in DETECTOR_FEATURES)
U64_MAX = 2**64 - 1


def sorted_values(
    rng: np.random.Generator, n: int, band: tuple[int, int], extremes: bool
) -> np.ndarray:
    """``n`` sorted distinct uint64 values in ``band``; with
    ``extremes`` the first is the band's low end and the last its high
    end."""
    low, high = band
    values = rng.integers(low, high, 2 * n + 2, np.uint64, endpoint=True)
    values = np.sort(rng.choice(np.unique(values), n, replace=False))
    if extremes and n >= 2:
        values[0], values[-1] = low, high
    return values


def bands(layout: str, features: int) -> list[tuple[int, int]]:
    """Each feature's value range: all of uint64, or disjoint eighths
    that rise (no column drop at a boundary, so the one-pass check
    decides alone) or fall (a drop at every boundary)."""
    if layout == "anywhere":
        return [(0, U64_MAX)] * features
    order = range(features) if layout == "rising" else reversed(range(features))
    return [(k << 61, ((k + 1) << 61) - 1) for k in order]


def composition(seed: int, total: int, n: int) -> np.ndarray:
    """``n`` positive int64 counts summing to ``total``."""
    cuts = sorted(random.Random(seed).sample(range(1, total), n - 1))
    return np.diff(np.array([0, *cuts, total], dtype=np.int64))


@st.composite
def digests(draw, min_size: int = 0) -> IntervalDigest:
    """A valid digest of 1-5 features, ``min_size``-3,000 values each
    (0 for all of them or none: a digest of no flows is empty)."""
    names = NAMES[: draw(st.integers(1, len(NAMES)))]
    flow_count = draw(
        st.one_of(
            st.just(0) if min_size == 0 else st.nothing(),
            st.integers(max(min_size, 1), 5_000),
            st.integers(2**62, 2**63 - 2),
        )
    )
    seed = draw(st.integers(0, 2**32 - 1))
    extremes = draw(st.booleans())
    layout = draw(st.sampled_from(["anywhere", "rising", "falling"]))
    rng = np.random.default_rng(seed)
    value_counts = {}
    for offset, (name, band) in enumerate(zip(names, bands(layout, len(names)))):
        if flow_count == 0:
            size = 0
        else:
            size = min(draw(st.integers(max(min_size, 1), 3_000)), flow_count)
        value_counts[name] = (
            sorted_values(rng, size, band, extremes),
            composition(seed + offset, flow_count, size)
            if size
            else np.zeros(0, np.int64),
        )
    schema = DigestSchema(seed=0, clones=3, bins=64, features=names)
    return IntervalDigest(schema, 3, ("east",), flow_count, value_counts)


def rewire(digest: IntervalDigest, name: str, observed=None, counts=None) -> str:
    """``digest``'s wire line with one feature's arrays replaced."""
    doc = digest.to_dict()
    feature = doc["features"][name]
    if observed is not None:
        feature["observed"] = pack_array(observed)
    if counts is not None:
        feature["counts"] = pack_array(counts)
    return canonical_json(doc)


def refusal(line: str) -> str:
    with pytest.raises(FederationError) as refused:
        IntervalDigest.from_json(line)
    return str(refused.value)


@settings(max_examples=60, deadline=None)
@given(digest=digests())
def test_round_trip_is_byte_identical_and_read_only(digest):
    line = digest.to_json()
    again = IntervalDigest.from_json(line)
    assert again.to_json() == line
    for name in digest.schema.features:
        for mine, theirs in zip(
            again.value_counts[name], digest.value_counts[name], strict=True
        ):
            assert not mine.flags.writeable
            assert np.array_equal(mine, theirs)
        observed, counts = again.value_counts[name]
        assert (observed.dtype, counts.dtype) == (np.uint64, np.int64)


@st.composite
def unsorted(draw):
    """A valid digest and one feature's observed values spoilt by a
    duplicate or descending pair: the feature's first pair, its last
    (next to the boundary with the next feature) or one between."""
    digest = draw(digests(min_size=2))
    names = [n for n, (o, _) in digest.value_counts.items() if o.size >= 2]
    name = draw(st.sampled_from(names))
    observed = digest.value_counts[name][0].copy()
    last = observed.size - 2
    at = draw(st.sampled_from([0, last, draw(st.integers(0, last))]))
    if draw(st.booleans()):
        observed[at + 1] = observed[at]
    else:
        observed[at], observed[at + 1] = observed[at + 1], observed[at]
    return digest, name, observed


@settings(max_examples=60, deadline=None)
@given(case=unsorted())
def test_unsorted_pair_is_refused_naming_its_feature(case):
    digest, name, observed = case
    message = refusal(rewire(digest, name, observed=observed))
    assert message == f"feature {name!r} observed values are not sorted and distinct"


@pytest.mark.parametrize("feature, at", [(0, 2), (1, 0), (1, 2), (2, 0)])
@pytest.mark.parametrize("duplicate", [True, False])
def test_pair_next_to_a_boundary_is_refused(feature, at, duplicate):
    """Features that rise where they meet (no drop for the column check
    to mask): the last pair before a boundary and the first after it
    are each checked, not masked with the boundary."""
    names = NAMES[:3]
    schema = DigestSchema(seed=0, clones=3, bins=64, features=names)
    digest = IntervalDigest(
        schema, 0, ("east",), 4,
        {
            name: (np.arange(4, dtype=np.uint64) + 10 * k, np.ones(4, np.int64))
            for k, name in enumerate(names)
        },
    )
    name = names[feature]
    observed = digest.value_counts[name][0].copy()
    if duplicate:
        observed[at + 1] = observed[at]
    else:
        observed[at], observed[at + 1] = observed[at + 1], observed[at]
    message = refusal(rewire(digest, name, observed=observed))
    assert message == f"feature {name!r} observed values are not sorted and distinct"


@st.composite
def off_by_one(draw):
    digest = draw(digests())
    names = [n for n, (o, _) in digest.value_counts.items() if o.size]
    name = draw(st.sampled_from(names)) if names else None
    return digest, name, draw(st.sampled_from([-1, 1])), draw(st.integers(0))


@settings(max_examples=60, deadline=None)
@given(case=off_by_one())
def test_total_off_by_one_is_refused_naming_its_feature(case):
    digest, name, delta, pick = case
    if name is None:  # all features empty: nothing to spoil
        return
    counts = digest.value_counts[name][1].copy()
    big = np.flatnonzero(counts > 1)
    if delta < 0 and big.size:
        counts[big[pick % big.size]] -= 1
    else:
        counts[pick % counts.size] += 1
    message = refusal(rewire(digest, name, counts=counts))
    assert message.startswith(f"self-contradictory payload: feature {name!r} ")
    total = digest.flow_count + (delta if delta < 0 and big.size else 1)
    assert f"counts total {total} flows" in message


@settings(max_examples=40, deadline=None)
@given(digest=digests(min_size=1), pick=st.integers(0))
def test_empty_feature_is_refused_naming_it(digest, pick):
    if digest.flow_count == 0:
        return
    name = digest.schema.features[pick % len(digest.schema.features)]
    empty = np.zeros(0, np.uint64)
    message = refusal(rewire(digest, name, observed=empty, counts=empty))
    assert message == (
        f"self-contradictory payload: feature {name!r} counts total 0 "
        f"flows, the digest declares {digest.flow_count}"
    )


@settings(max_examples=40, deadline=None)
@given(digest=digests(min_size=4), pick=st.integers(0))
def test_wrapping_total_is_refused_in_any_feature(digest, pick):
    """Four counts raised by 2^62 wrap an int64 total back onto
    ``flow_count``; the exact sum refuses it, in whichever feature."""
    names = [
        n
        for n, (o, c) in digest.value_counts.items()
        if o.size >= 4 and int(c.max()) < 2**62
    ]
    if not names:
        return
    name = names[pick % len(names)]
    counts = digest.value_counts[name][1].copy()
    counts[:4] += 1 << 62
    assert int(counts.sum()) == digest.flow_count  # wrapped
    message = refusal(rewire(digest, name, counts=counts))
    assert message.startswith(f"self-contradictory payload: feature {name!r} ")


def test_first_failing_feature_is_named():
    """Faults in two features: the refusal names the earlier one in
    schema order, whichever check each fails."""
    names = NAMES[:3]
    observed = np.arange(1, 4, dtype=np.uint64)
    counts = np.ones(3, np.int64)
    schema = DigestSchema(seed=0, clones=3, bins=64, features=names)
    digest = IntervalDigest(
        schema, 0, ("east",), 3, dict.fromkeys(names, (observed, counts))
    )
    doc = digest.to_dict()
    doc["features"][names[1]]["counts"] = pack_array(np.array([1, 1, 2]))
    doc["features"][names[2]]["observed"] = pack_array(np.array([3, 2, 1]))
    message = refusal(canonical_json(doc))
    assert message.startswith(f"self-contradictory payload: feature {names[1]!r}")
    doc["features"][names[0]]["counts"] = pack_array(np.array([0, 1, 2]))
    message = refusal(canonical_json(doc))
    assert message.startswith(f"feature {names[0]!r} counts must be positive")


@settings(max_examples=40, deadline=None)
@given(digest=digests(min_size=2), pick=st.integers(0))
def test_zero_count_is_refused_naming_its_feature(digest, pick):
    """A count moved onto its neighbour keeps the total: only the
    positive-count check refuses it."""
    name = digest.schema.features[pick % len(digest.schema.features)]
    counts = digest.value_counts[name][1].copy()
    at = pick % counts.size
    counts[at - 1] += counts[at]
    counts[at] = 0
    message = refusal(rewire(digest, name, counts=counts))
    assert message == (
        f"feature {name!r} counts must be positive flow counts: minimum 0"
    )


@pytest.mark.parametrize("flow_count", [0, 7])
def test_digest_of_no_features_round_trips(flow_count):
    """A schema may list no features: both columns are empty and there
    is nothing for a total to contradict."""
    schema = DigestSchema(seed=0, clones=3, bins=64, features=())
    line = IntervalDigest(schema, 0, ("east",), flow_count, {}).to_json()
    again = IntervalDigest.from_json(line)
    assert again.to_json() == line
    assert again.value_counts == {}
