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

from repro.errors import FederationError, SketchError
from repro.federation import DIGEST_VERSION, IntervalDigest, split_trace
from repro.sketch.histogram import HistogramSnapshot
from repro.state import pack_array, unpack_array

ATTACK = 24


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

    def test_countmin_geometry_contradiction_refused(self, east24):
        # Schema claims a wider sketch than the payload carries.
        doc = copy.deepcopy(east24.to_dict())
        doc["schema"]["cm_width"] = doc["schema"]["cm_width"] * 2
        with pytest.raises(FederationError, match="schema declares"):
            IntervalDigest.from_dict(doc)

    def test_snapshot_bins_contradiction_refused(self, east24):
        doc = copy.deepcopy(east24.to_dict())
        doc["schema"]["bins"] = doc["schema"]["bins"] // 2
        with pytest.raises(FederationError, match="schema declares"):
            IntervalDigest.from_dict(doc)

    def test_clone_hash_bins_contradiction_refused(self, east24):
        doc = copy.deepcopy(east24.to_dict())
        clone = doc["features"]["dstIP"]["clones"][0]
        clone["hash"]["bins"] *= 2
        with pytest.raises(FederationError, match="schema declares"):
            IntervalDigest.from_dict(doc)

    def test_missing_clone_counts_refused(self, east24):
        doc = copy.deepcopy(east24.to_dict())
        del doc["features"]["dstIP"]["clones"][0]["counts"]
        with pytest.raises(
            FederationError, match=r"dstIP\.clones\[0\]\.counts is missing"
        ):
            IntervalDigest.from_dict(doc)

    def test_one_observed_set_per_feature(self, east24):
        """The observed values are a fact about the feature's interval,
        so the document states them once; the clones carry only their
        hash function and counts."""
        for name, feature in east24.to_dict()["features"].items():
            assert sorted(feature) == ["clones", "countmin", "observed"], name
            for clone in feature["clones"]:
                assert sorted(clone) == ["counts", "hash"], name

    def test_decoded_clones_share_one_observed_array(self, east24):
        again = IntervalDigest.from_json(east24.to_json())
        for feature in again.schema.features:
            snaps = again._snapshots[feature]
            assert all(s.observed is snaps[0].observed for s in snaps)
            assert not snaps[0].observed.flags.writeable

    def test_per_clone_observed_document_refused(self, east24):
        """A version-1 document (one ``observed`` per clone) is refused
        by its version, and without it by its shape."""
        doc = copy.deepcopy(east24.to_dict())
        for feature in doc["features"].values():
            observed = feature.pop("observed")
            for clone in feature["clones"]:
                clone["observed"] = observed
        doc["version"] = 1
        with pytest.raises(FederationError, match="wire version 1 != 2"):
            IntervalDigest.from_dict(doc)
        doc["version"] = DIGEST_VERSION
        with pytest.raises(FederationError, match="observed is missing"):
            IntervalDigest.from_dict(doc)

    @pytest.mark.parametrize(
        "spoil",
        [
            pytest.param(lambda v: v[::-1], id="descending"),
            pytest.param(lambda v: np.repeat(v, 2), id="repeated"),
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
        "tamper",
        [
            pytest.param(lambda c: c.__setitem__(0, float("nan")), id="nan"),
            pytest.param(lambda c: c.__setitem__(0, -1.0), id="negative"),
            pytest.param(
                lambda c: c.__setitem__(0, c[0] + 0.5), id="fractional"
            ),
            pytest.param(
                lambda c: c.__setitem__(0, c[0] + 1.0), id="wrong-total"
            ),
            pytest.param(
                # Sums to flow_count again, through a negative bin.
                lambda c: (
                    c.__setitem__(0, c[0] + c[1] + 1.0),
                    c.__setitem__(1, -1.0),
                ),
                id="negative-balanced",
            ),
        ],
    )
    def test_contradictory_clone_counts_refused(self, east24, tamper):
        """A clone histogram that does not describe ``flow_count``
        flows is refused at the wire edge: a NaN bin would make that
        clone's KL NaN, and ``is_alarm(NaN)`` is a silent "no"."""
        doc = copy.deepcopy(east24.to_dict())
        clone = doc["features"]["dstIP"]["clones"][1]
        counts = np.asarray(unpack_array(clone["counts"]), dtype=np.float64)
        tamper(counts)
        clone["counts"] = pack_array(counts)
        with pytest.raises(FederationError, match="self-contradictory"):
            IntervalDigest.from_json(json.dumps(doc))


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
        foreign = collector_factory("west", cm_width=256).empty_digest(
            ATTACK
        )
        with pytest.raises(SketchError, match="incompatible"):
            east24.merge(foreign)

    def test_bins_mismatch_refused(self, east24, collector_factory, fed_config):
        coarse = dataclasses.replace(fed_config, bins=fed_config.bins // 2)
        foreign = collector_factory("west", config=coarse).empty_digest(
            ATTACK
        )
        with pytest.raises(SketchError, match="incompatible"):
            east24.merge(foreign)

    def test_clone_hash_mismatch_refused(self, east24, west24):
        """Same schema, different clone hash: the bins count different
        events, and adding them would fabricate a histogram."""
        doc = copy.deepcopy(west24.to_dict())
        doc["features"]["srcPort"]["clones"][2]["hash"]["a"] += 1
        foreign = IntervalDigest.from_dict(doc)
        with pytest.raises(SketchError, match="different hash functions"):
            east24.merge(foreign)

    def test_observed_union_taken_once_per_feature(self, east24, west24):
        merged = east24.merge(west24)
        for feature in merged.schema.features:
            snaps = merged._snapshots[feature]
            assert all(s.observed is snaps[0].observed for s in snaps)
            assert np.array_equal(
                snaps[0].observed,
                np.union1d(
                    east24._snapshots[feature][0].observed,
                    west24._snapshots[feature][0].observed,
                ),
            )


class TestConstruction:
    def _parts(self, digest):
        return dict(
            schema=digest.schema,
            interval=digest.interval,
            sites=digest.sites,
            flow_count=digest.flow_count,
            snapshots=digest._snapshots,
            countmin=digest._countmin,
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

    def test_missing_feature_sketches_refused(self, east24):
        parts = self._parts(east24)
        name = east24.schema.features[0]
        parts["snapshots"] = {
            key: value
            for key, value in parts["snapshots"].items()
            if key != name
        }
        with pytest.raises(FederationError, match="missing sketches"):
            IntervalDigest(**parts)

    def test_clones_disagreeing_on_observed_refused(self, east24):
        parts = self._parts(east24)
        name = east24.schema.features[0]
        clones = list(parts["snapshots"][name])
        clones[1] = HistogramSnapshot(
            clones[1].hash_fn, clones[1].counts, clones[1].observed[1:]
        )
        parts["snapshots"] = {**parts["snapshots"], name: clones}
        with pytest.raises(FederationError, match="disagree on the observed"):
            IntervalDigest(**parts)

    def test_wrong_clone_count_refused(self, east24):
        parts = self._parts(east24)
        name = east24.schema.features[0]
        trimmed = dict(parts["snapshots"])
        trimmed[name] = trimmed[name][:-1]
        parts["snapshots"] = trimmed
        with pytest.raises(FederationError, match="clone snapshots"):
            IntervalDigest(**parts)
