"""IntervalDigest wire format and merge algebra.

The two halves of the digest contract:

* the canonical wire document is byte-stable and versioned, refusing
  foreign versions and internally-contradictory payloads;
* merging is exact, commutative, and associative - byte-for-byte equal
  to digesting the concatenated flows.
"""

from __future__ import annotations

import copy
import dataclasses
import json

import numpy as np
import pytest

from repro.detection.detector import clone_seed
from repro.detection.features import DETECTOR_FEATURES
from repro.errors import FederationError, SketchError
from repro.federation import DIGEST_VERSION, IntervalDigest, split_trace
from repro.flows.stream import iter_intervals
from repro.sketch.cloning import CloneSet
from repro.state import pack_array, unpack_array

ATTACK = 24
FEATURES = DETECTOR_FEATURES


@pytest.fixture(scope="module")
def east24(site_digests):
    return site_digests["east"][ATTACK]


@pytest.fixture(scope="module")
def west24(site_digests):
    return site_digests["west"][ATTACK]


@pytest.fixture(scope="module")
def three_way(attack_flows, collector_factory):
    """The attack interval split three ways (associativity material)."""
    parts = split_trace(attack_flows, ("a", "b", "c"), "src_ip%3")
    return [
        collector_factory(site).summarize(flows, ATTACK)
        for site, flows in parts.items()
    ]


def features_doc(digest: IntervalDigest) -> str:
    """The sketch payload alone, canonically rendered (site lists and
    flow counts legitimately differ between a merged digest and one
    collected whole)."""
    return json.dumps(digest.to_dict()["features"], sort_keys=True)


class TestWireFormat:
    def test_to_json_is_canonical(self, east24):
        assert east24.to_json() == json.dumps(
            east24.to_dict(),
            sort_keys=True,
            separators=(",", ":"),
            ensure_ascii=False,
        )

    def test_round_trip_preserves_payload(self, east24, fed_config):
        again = IntervalDigest.from_json(east24.to_json())
        assert again.schema == east24.schema
        assert again.interval == ATTACK
        assert again.sites == ("east",)
        assert again.flow_count == east24.flow_count
        assert features_doc(again) == features_doc(east24)

    def test_foreign_version_refused(self, east24):
        doc = east24.to_dict()
        doc["version"] = DIGEST_VERSION + 1
        with pytest.raises(FederationError, match="wire version"):
            IntervalDigest.from_dict(doc)

    def test_invalid_json_refused(self):
        with pytest.raises(FederationError, match="not valid JSON"):
            IntervalDigest.from_json("{nope")

    def test_non_object_refused(self):
        with pytest.raises(FederationError, match="JSON object"):
            IntervalDigest.from_json("[1, 2]")

    def test_missing_field_refused(self, east24):
        doc = east24.to_dict()
        del doc["flow_count"]
        with pytest.raises(FederationError, match="malformed digest"):
            IntervalDigest.from_dict(doc)

    @pytest.mark.parametrize(
        "find, put, names",
        [
            ('"interval":24', '"interval":1e999', "interval"),
            ('"interval":24', '"interval":24.5', "interval"),
            ('"interval":24', '"interval":true', "interval"),
            ('"interval":24', '"interval":-1', "interval"),
            ('"flow_count":', '"flow_count":NaN,"was":', "flow_count"),
            ('"seed":0', '"seed":"0"', "schema.*seed"),
            ('"sites":["east"]', '"sites":"east"', "sites"),
            (
                f'"version":{DIGEST_VERSION}',
                '"version":true',
                "wire version",
            ),
        ],
    )
    def test_no_field_is_coerced(self, east24, find, put, names):
        """``int(doc[...])`` read ``0.5`` and ``true`` as indices and
        died with ``OverflowError`` on ``1e999``; every field is now
        what the document says or the digest is refused, naming it."""
        wire = east24.to_json()
        assert find in wire
        with pytest.raises(FederationError, match=names):
            IntervalDigest.from_json(wire.replace(find, put, 1))

    def test_one_value_count_document_per_feature(self, east24):
        """A feature is stated as its observed values and their flow
        counts; the clone histograms and the count-min are derived or
        gone."""
        for name, feature in east24.to_dict()["features"].items():
            assert sorted(feature) == ["counts", "observed"], name
            observed = unpack_array(feature["observed"])
            counts = unpack_array(feature["counts"])
            assert len(observed) == len(counts) > 0
            assert int(counts.sum()) == east24.flow_count

    def test_schema_carries_no_count_min_geometry(self, east24):
        assert sorted(east24.to_dict()["schema"]) == [
            "bins", "clones", "features", "seed",
        ]

    def test_derived_clones_share_one_observed_array(self, east24):
        again = IntervalDigest.from_json(east24.to_json())
        for feature in again.snapshots_by_feature(FEATURES).values():
            assert all(s.observed is feature[0].observed for s in feature)
            assert not feature[0].observed.flags.writeable

    def test_derived_clones_equal_a_clone_set_fed_the_column(
        self, east24, site_flows
    ):
        """The clone histograms a digest derives are bin for bin the
        ones a detector's own clone set builds from the flows."""
        flows = next(
            view.flows
            for view in iter_intervals(site_flows["east"], 900.0, origin=0.0)
            if view.index == ATTACK
        )
        schema = east24.schema
        for feature in FEATURES:
            clones = CloneSet(
                schema.clones, schema.bins,
                seed=clone_seed(schema.seed, feature),
            )
            clones.update(feature.extract(flows))
            derived = east24.clone_snapshots(feature)
            for mine, theirs in zip(
                derived, clones.snapshots(), strict=True
            ):
                assert mine.hash_fn == theirs.hash_fn
                assert np.array_equal(mine.counts, theirs.counts)
                assert np.array_equal(mine.observed, theirs.observed)

    def test_previous_version_document_refused(self, east24):
        """A version-2 document (clone histograms and a count-min per
        feature) is refused by its version, and without it by its
        shape."""
        doc = copy.deepcopy(east24.to_dict())
        for feature in doc["features"].values():
            del feature["counts"]
            feature["clones"] = []
            feature["countmin"] = {}
        doc["version"] = 2
        with pytest.raises(FederationError, match="wire version 2 != 3"):
            IntervalDigest.from_dict(doc)
        doc["version"] = DIGEST_VERSION
        with pytest.raises(FederationError, match="counts is missing"):
            IntervalDigest.from_dict(doc)

    @pytest.mark.parametrize(
        "spoil",
        [
            pytest.param(lambda v: v[::-1], id="descending"),
            pytest.param(
                lambda v: np.repeat(v, 2)[: v.size], id="repeated"
            ),
        ],
    )
    def test_unsorted_observed_refused(self, east24, spoil):
        """Merging unions observed sets as sorted runs; a set that is
        not sorted and distinct would merge into a wrong back-map."""
        doc = copy.deepcopy(east24.to_dict())
        feature = doc["features"]["dstIP"]
        observed = unpack_array(feature["observed"])
        assert observed.size > 1
        feature["observed"] = pack_array(spoil(observed))
        with pytest.raises(FederationError, match="sorted and distinct"):
            IntervalDigest.from_dict(doc)

    @pytest.mark.parametrize(
        "tamper, reason",
        [
            pytest.param(
                lambda c: c.__setitem__(0, float("nan")),
                "do not fit int64", id="nan",
            ),
            pytest.param(
                # 0.5 flow moved between two values: total unchanged.
                lambda c: (
                    c.__setitem__(0, c[0] + 0.5),
                    c.__setitem__(1, c[1] - 0.5),
                ),
                "do not fit int64", id="fractional",
            ),
            pytest.param(
                lambda c: (
                    c.__setitem__(1, c[1] + c[0]), c.__setitem__(0, 0.0)
                ),
                "positive flow counts", id="zero",
            ),
            pytest.param(
                # Sums to flow_count again, through a negative count.
                lambda c: (
                    c.__setitem__(0, c[0] + c[1] + 1.0),
                    c.__setitem__(1, -1.0),
                ),
                "positive flow counts", id="negative-balanced",
            ),
            pytest.param(
                lambda c: c.__setitem__(0, c[0] + 1.0),
                "self-contradictory", id="wrong-total",
            ),
        ],
    )
    def test_contradictory_counts_refused(self, east24, tamper, reason):
        """Counts that are not positive integers describing
        ``flow_count`` flows are refused at the wire edge, naming the
        feature: a fractional count would bin into fractional clone
        histograms, a NaN one into a NaN KL, which the alarm threshold
        reads as a silent "no"."""
        doc = copy.deepcopy(east24.to_dict())
        feature = doc["features"]["dstIP"]
        counts = unpack_array(feature["counts"]).astype(np.float64)
        tamper(counts)
        feature["counts"] = pack_array(counts)
        with pytest.raises(FederationError, match=reason) as refusal:
            IntervalDigest.from_json(json.dumps(doc))
        assert "dstIP" in str(refusal.value)

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_counts_length_mismatch_refused(self, east24, delta):
        doc = copy.deepcopy(east24.to_dict())
        feature = doc["features"]["srcPort"]
        counts = unpack_array(feature["counts"])
        if delta < 0:
            counts = counts[:-1]
        else:
            counts = np.append(counts, 1)
        feature["counts"] = pack_array(counts)
        with pytest.raises(
            FederationError, match=r"'srcPort' carries \d+ counts for"
        ):
            IntervalDigest.from_dict(doc)

    def test_wrapping_total_refused(self, east24):
        """An int64 sum wraps past 2^63; counts crafted to wrap onto
        ``flow_count`` must not pass the total check."""
        doc = copy.deepcopy(east24.to_dict())
        feature = doc["features"]["dstPort"]
        counts = unpack_array(feature["counts"]).astype(np.int64)
        counts[0] += 1 << 62
        counts[1] += 1 << 62
        counts[2] += 1 << 62
        counts[3] += 1 << 62
        assert int(counts.sum()) == east24.flow_count  # wrapped
        feature["counts"] = pack_array(counts)
        with pytest.raises(FederationError, match="self-contradictory"):
            IntervalDigest.from_dict(doc)


class TestMergeAlgebra:
    def test_commutative_byte_for_byte(self, east24, west24):
        assert (
            east24.merge(west24).to_json() == west24.merge(east24).to_json()
        )

    def test_associative_byte_for_byte(self, three_way):
        a, b, c = three_way
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        rotated = c.merge(a).merge(b)
        assert left.to_json() == right.to_json()
        assert left.to_json() == rotated.to_json()

    def test_merge_equals_concatenated_digest(
        self, three_way, attack_flows, collector_factory
    ):
        merged = three_way[0].merge(three_way[1]).merge(three_way[2])
        whole = collector_factory("whole").summarize(attack_flows, ATTACK)
        assert merged.flow_count == whole.flow_count == len(attack_flows)
        assert features_doc(merged) == features_doc(whole)

    def test_merge_sums_flow_counts_and_unions_sites(self, east24, west24):
        merged = east24.merge(west24)
        assert merged.sites == ("east", "west")
        assert merged.flow_count == east24.flow_count + west24.flow_count
        assert merged.interval == ATTACK

    def test_different_intervals_refused(self, east24, site_digests):
        with pytest.raises(FederationError, match="different intervals"):
            east24.merge(site_digests["west"][ATTACK - 1])

    def test_site_overlap_refused(self, east24):
        with pytest.raises(FederationError, match="double-count"):
            east24.merge(east24)

    def test_schema_mismatch_refused(self, east24, collector_factory):
        foreign = collector_factory("west", seed=1).empty_digest(ATTACK)
        with pytest.raises(SketchError, match="incompatible"):
            east24.merge(foreign)

    def test_bins_mismatch_refused(self, east24, collector_factory, fed_config):
        coarse = dataclasses.replace(fed_config, bins=fed_config.bins // 2)
        foreign = collector_factory("west", config=coarse).empty_digest(
            ATTACK
        )
        with pytest.raises(SketchError, match="incompatible"):
            east24.merge(foreign)

    def test_counts_of_shared_values_add(self, east24, west24):
        """The merged value counts are the per-site counts added on the
        union of the observed values, and the clone histograms derived
        from them are the per-site histograms added bin for bin."""
        merged = east24.merge(west24)
        for feature in FEATURES:
            observed, counts = merged._values[feature.short_name]
            assert np.array_equal(
                observed,
                np.union1d(
                    east24._values[feature.short_name][0],
                    west24._values[feature.short_name][0],
                ),
            )
            assert np.array_equal(
                counts,
                east24.supports(feature, observed)
                + west24.supports(feature, observed),
            )
            snaps = merged.clone_snapshots(feature)
            assert all(s.observed is observed for s in snaps)
            for mine, east, west in zip(
                snaps,
                east24.clone_snapshots(feature),
                west24.clone_snapshots(feature),
                strict=True,
            ):
                assert np.array_equal(mine.counts, east.counts + west.counts)


class TestConstruction:
    def _parts(self, digest):
        return dict(
            schema=digest.schema,
            interval=digest.interval,
            sites=digest.sites,
            flow_count=digest.flow_count,
            value_counts=dict(digest._values),
        )

    def test_negative_interval_refused(self, east24):
        parts = self._parts(east24)
        parts["interval"] = -1
        with pytest.raises(FederationError, match="interval"):
            IntervalDigest(**parts)

    def test_empty_sites_refused(self, east24):
        parts = self._parts(east24)
        parts["sites"] = ()
        with pytest.raises(FederationError, match="at least one site"):
            IntervalDigest(**parts)

    def test_duplicate_sites_refused(self, east24):
        parts = self._parts(east24)
        parts["sites"] = ("east", "east")
        with pytest.raises(FederationError, match="duplicate"):
            IntervalDigest(**parts)

    def test_negative_flow_count_refused(self, east24):
        parts = self._parts(east24)
        parts["flow_count"] = -5
        with pytest.raises(FederationError, match="flow count"):
            IntervalDigest(**parts)

    def test_missing_feature_counts_refused(self, east24):
        parts = self._parts(east24)
        del parts["value_counts"][east24.schema.features[0]]
        with pytest.raises(FederationError, match="missing value counts"):
            IntervalDigest(**parts)

    def test_counts_not_aligned_with_observed_refused(self, east24):
        parts = self._parts(east24)
        name = east24.schema.features[0]
        observed, counts = parts["value_counts"][name]
        parts["value_counts"][name] = (observed, counts[1:])
        with pytest.raises(FederationError, match="counts for"):
            IntervalDigest(**parts)

    def test_arrays_are_read_only(self, east24):
        for feature in FEATURES:
            observed, counts = east24._values[feature.short_name]
            assert not observed.flags.writeable
            assert not counts.flags.writeable
