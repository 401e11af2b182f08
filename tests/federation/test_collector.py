"""Collector behaviour: deterministic digests keyed only by the schema."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.detection.features import parse_feature
from repro.errors import FederationError
from repro.federation import Collector

ATTACK = 24


def features_doc(digest) -> str:
    return json.dumps(digest.to_dict()["features"], sort_keys=True)


class TestDeterminism:
    def test_same_seed_same_bytes(self, attack_flows, collector_factory):
        one = collector_factory("east").summarize(attack_flows, ATTACK)
        two = collector_factory("east").summarize(attack_flows, ATTACK)
        assert one.to_json() == two.to_json()

    def test_site_name_changes_only_the_site(
        self, attack_flows, collector_factory
    ):
        east = collector_factory("east").summarize(attack_flows, ATTACK)
        west = collector_factory("west").summarize(attack_flows, ATTACK)
        assert east.sites == ("east",)
        assert west.sites == ("west",)
        assert features_doc(east) == features_doc(west)
        assert east.schema == west.schema

    def test_seed_changes_the_schema_and_the_clones_not_the_counts(
        self, attack_flows, collector_factory
    ):
        """Value counts are a fact about the flows; the seed picks the
        clone hash functions the federator bins them with."""
        base = collector_factory("east").summarize(attack_flows, ATTACK)
        other = collector_factory("east", seed=1).summarize(
            attack_flows, ATTACK
        )
        assert base.schema != other.schema
        assert base.to_json() != other.to_json()
        assert features_doc(base) == features_doc(other)
        for feature in base.schema.features:
            feature = parse_feature(feature)
            mine = base.clone_snapshots(feature)
            theirs = other.clone_snapshots(feature)
            assert mine[0].hash_fn != theirs[0].hash_fn
            assert any(
                not np.array_equal(m.counts, t.counts)
                for m, t in zip(mine, theirs, strict=True)
            )


class TestEmptyDigest:
    def test_empty_digest_is_all_zeros(self, collector_factory):
        empty = collector_factory("east").empty_digest(3)
        assert empty.flow_count == 0
        assert empty.interval == 3
        for feature in collector_factory("east").features:
            for snap in empty.clone_snapshots(feature):
                assert snap.total == 0.0
                assert len(snap.observed) == 0
            observed, counts = empty._values[feature.short_name]
            assert observed.size == counts.size == 0

    def test_empty_digest_is_merge_identity(
        self, site_digests, collector_factory
    ):
        east = site_digests["east"][ATTACK]
        gap = collector_factory("gap").empty_digest(ATTACK)
        merged = east.merge(gap)
        assert merged.flow_count == east.flow_count
        assert features_doc(merged) == features_doc(east)


class TestRun:
    def test_run_covers_every_interval(self, site_digests):
        digests = site_digests["east"]
        assert [d.interval for d in digests] == list(range(30))
        assert all(d.sites == ("east",) for d in digests)

    def test_run_flow_counts_partition_the_trace(
        self, site_digests, site_flows
    ):
        for site, flows in site_flows.items():
            total = sum(d.flow_count for d in site_digests[site])
            assert total == len(flows)


class TestValidation:
    def test_empty_site_name_refused(self, fed_config):
        with pytest.raises(FederationError, match="non-empty"):
            Collector(site="", config=fed_config)

    def test_non_string_site_refused(self, fed_config):
        with pytest.raises(FederationError, match="non-empty"):
            Collector(site=7, config=fed_config)  # type: ignore[arg-type]

    def test_schema_matches_features(self, collector_factory):
        collector = collector_factory("east")
        assert collector.schema.features == tuple(
            f.short_name for f in collector.features
        )
        assert collector.schema.clones == collector.config.clones
        assert collector.schema.bins == collector.config.bins
