"""Federator semantics: the merged-view detection equivalence contract,
straggler/watermark policy, refusals, and checkpoint resume.

The headline assertions:

* detection over merged digests is *exactly* the single-bank detection
  over the concatenated trace - same alarms, and the detector bank's
  serialized state is byte-identical;
* every reported single-item support is the exact flow count of its
  value in the concatenated interval.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api as api
from repro.detection.features import Feature
from repro.errors import (
    CheckpointError,
    ConfigError,
    FederationError,
    ReproError,
    SketchError,
)
from repro.federation import IntervalDigest
from repro.federation.federator import (
    FEDERATED_ALGORITHM,
    FEDERATED_PREFILTER,
)
from repro.incidents.store import open_store
from repro.mining.items import decode_item

SITES = ("east", "west")


def feed_all(fed, site_digests, upto=30):
    """Interval-major delivery of both sites' digests."""
    released = []
    for i in range(upto):
        for site in SITES:
            released.extend(fed.add(site_digests[site][i]))
    released.extend(fed.finish())
    return released


def interval_doc(fi) -> dict:
    """A released interval as comparable plain data."""
    return {
        "interval": fi.interval,
        "sites": fi.sites,
        "stragglers": fi.stragglers,
        "flow_count": fi.flow_count,
        "alarmed_features": fi.alarmed_features,
        "report": fi.report.to_dict() if fi.report is not None else None,
    }


@pytest.fixture(scope="module")
def federated(site_digests, federator_factory):
    """One full federated run over the split DDoS trace."""
    fed = federator_factory()
    released = feed_all(fed, site_digests)
    return fed, released


class TestEquivalence:
    def test_every_interval_released_complete(self, federated):
        _, released = federated
        assert [fi.interval for fi in released] == list(range(30))
        assert all(fi.sites == SITES for fi in released)
        assert all(fi.stragglers == () for fi in released)

    def test_alarms_match_concatenated_detection(
        self, federated, local_run
    ):
        _, released = federated
        _, run = local_run
        fed_alarms = {
            fi.interval: fi.alarmed_features
            for fi in released
            if fi.alarm
        }
        local_alarms = {
            r.interval: tuple(f.short_name for f in r.alarmed_features)
            for r in run.reports
            if r.alarm
        }
        assert fed_alarms  # the planted DDoS actually alarmed
        assert fed_alarms == local_alarms

    def test_bank_state_byte_identical(self, federated, local_run):
        fed, _ = federated
        bank, _ = local_run
        assert json.dumps(
            fed.to_state()["bank"], sort_keys=True
        ) == json.dumps(bank.to_state(), sort_keys=True)

    def test_merged_flow_counts_match_trace(self, federated, ddos_trace):
        _, released = federated
        assert sum(fi.flow_count for fi in released) == len(
            ddos_trace.flows
        )

    def test_merged_supports_are_exact(self, site_digests, attack_flows):
        """The merged digest's support of every value is its exact flow
        count in the concatenated interval (the count-min of digest
        version 2 could only bound it from above)."""
        merged = site_digests["east"][24].merge(site_digests["west"][24])
        for feature in Feature:
            if feature.short_name not in merged.schema.features:
                continue
            unique, truth = np.unique(
                feature.extract(attack_flows), return_counts=True
            )
            assert np.array_equal(merged.supports(feature, unique), truth)
            assert int(truth.sum()) == merged.flow_count

    def test_reported_supports_are_exact_counts(
        self, federated, attack_flows
    ):
        (report,) = [r for r in federated[0].reports if r.interval == 24]
        for triaged in report.itemsets:
            (item,) = triaged.itemset.items
            feature, value = decode_item(item)
            assert triaged.itemset.support == int(
                np.count_nonzero(feature.extract(attack_flows) == value)
            )

    def test_extraction_reports_are_digest_labelled(self, federated):
        fed, released = federated
        reports = fed.reports
        assert reports
        assert [r.interval for r in reports] == [
            fi.interval for fi in released if fi.report is not None
        ]
        for report in reports:
            assert report.algorithm == FEDERATED_ALGORITHM
            assert report.prefilter_mode == FEDERATED_PREFILTER
            assert report.selected_flows == 0
            assert report.itemsets
            for triaged in report.itemsets:
                assert triaged.itemset.support >= fed.min_support


class TestStragglerPolicy:
    def test_complete_interval_releases_immediately(
        self, site_digests, federator_factory
    ):
        fed = federator_factory()
        assert fed.add(site_digests["east"][0]) == []
        released = fed.add(site_digests["west"][0])
        assert [fi.interval for fi in released] == [0]
        assert released[0].sites == SITES
        assert released[0].stragglers == ()
        assert fed.next_interval == 1
        assert fed.pending_intervals == 0

    def test_grace_forces_release_and_late_digest_is_stale(
        self, site_digests, federator_factory
    ):
        fed = federator_factory(straggler_grace=2)
        assert fed.add(site_digests["east"][0]) == []
        assert fed.add(site_digests["east"][1]) == []
        released = fed.add(site_digests["east"][2])
        assert [fi.interval for fi in released] == [0]
        assert released[0].sites == ("east",)
        assert released[0].stragglers == ("west",)
        with pytest.raises(FederationError, match="stale"):
            fed.add(site_digests["west"][0])

    def test_wholly_missing_interval_synthesized_empty(
        self, site_digests, federator_factory
    ):
        fed = federator_factory(straggler_grace=2)
        for site in SITES:
            fed.add(site_digests[site][0])
        # Interval 1 never arrives from anyone; 2 is complete but
        # blocked behind it until the watermark passes.
        for site in SITES:
            assert fed.add(site_digests[site][2]) == []
        released = fed.add(site_digests["east"][3])
        assert [fi.interval for fi in released] == [1, 2]
        gap = released[0]
        assert gap.sites == ()
        assert gap.stragglers == SITES
        assert gap.flow_count == 0
        assert released[1].sites == SITES

    def test_multi_site_digest_is_merged_once(
        self, site_digests, attack_flows, federator_factory,
        collector_factory, monkeypatch,
    ):
        """A digest covering two sites fills both bucket slots; the
        release merges the bucket's distinct digests in one call."""
        calls = []
        merge_all = IntervalDigest.merge_all

        def spy(digests):
            calls.append(list(digests))
            return merge_all(digests)

        both = site_digests["east"][0].merge(site_digests["west"][0])
        north = collector_factory("north").summarize(
            attack_flows.row_range(0, 100), 0
        )
        fed = federator_factory(sites=("east", "west", "north"))
        monkeypatch.setattr(IntervalDigest, "merge_all", staticmethod(spy))
        assert fed.add(both) == []
        (released,) = fed.add(north)
        # Sorted by first site: "east" (the pair), "north".
        assert calls == [[both, north]]
        assert released.sites == ("east", "north", "west")
        assert released.stragglers == ()
        assert released.flow_count == both.flow_count + north.flow_count

    def test_finish_flushes_pending(self, site_digests, federator_factory):
        fed = federator_factory()
        fed.add(site_digests["east"][0])
        released = fed.finish()
        assert [fi.interval for fi in released] == [0]
        assert released[0].stragglers == ("west",)
        assert fed.pending_intervals == 0


class TestRefusals:
    def test_unknown_site(self, collector_factory, federator_factory):
        fed = federator_factory()
        with pytest.raises(FederationError, match="unknown site"):
            fed.add(collector_factory("north").empty_digest(0))

    def test_duplicate_digest(self, site_digests, federator_factory):
        fed = federator_factory()
        fed.add(site_digests["east"][0])
        with pytest.raises(FederationError, match="duplicate"):
            fed.add(site_digests["east"][0])

    def test_incompatible_schema(
        self, collector_factory, federator_factory
    ):
        fed = federator_factory()
        foreign = collector_factory("east", seed=1).empty_digest(0)
        with pytest.raises(SketchError, match="incompatible"):
            fed.add(foreign)

    def test_runaway_interval_refused_before_anything_is_released(
        self, collector_factory, federator_factory
    ):
        """The straggler watermark releases every interval up to the
        newest digest; without a bound, one digest claiming interval
        10^12 (epoch seconds against origin 0, or a hostile line)
        releases empty intervals forever.  Found by the state fuzz."""
        fed = federator_factory()
        before = json.dumps(fed.to_state(), sort_keys=True)
        with pytest.raises(FederationError, match="past the release cursor"):
            fed.add(collector_factory("east").empty_digest(10**12))
        assert json.dumps(fed.to_state(), sort_keys=True) == before
        assert fed.add(collector_factory("east").empty_digest(0)) == []

    def test_constructor_validation(self, federator_factory):
        with pytest.raises(FederationError, match="at least one site"):
            federator_factory(sites=())
        with pytest.raises(FederationError, match="duplicate site"):
            federator_factory(sites=("east", "east"))
        with pytest.raises(FederationError, match="min_support"):
            federator_factory(min_support=0)
        with pytest.raises(FederationError, match="straggler_grace"):
            federator_factory(straggler_grace=0)
        with pytest.raises(ConfigError, match="interval length"):
            federator_factory(interval_seconds=0.0)


class TestAddAll:
    """``add_all`` is the sequential ``add`` calls, all or nothing."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_sequential_adds_or_nothing(
        self, site_digests, federator_factory, data
    ):
        grace = data.draw(st.integers(1, 3))
        done = data.draw(st.integers(0, 6))
        buffered = data.draw(st.booleans())
        body = data.draw(st.lists(
            st.tuples(
                st.sampled_from(("east", "west", "both")),
                st.integers(max(0, done - 2), done + 3),
            ),
            min_size=1, max_size=6,
        ))

        def fresh():
            fed = federator_factory(straggler_grace=grace)
            for i in range(done):
                for site in SITES:
                    fed.add(site_digests[site][i])
            if buffered:
                fed.add(site_digests["east"][done])
            return fed

        def digest(site, i):
            if site == "both":
                return site_digests["east"][i].merge(site_digests["west"][i])
            return site_digests[site][i]

        pairs = [(digest(site, i), None) for site, i in body]
        sequential, batch = fresh(), fresh()
        before = json.dumps(batch.to_state(), sort_keys=True)
        try:
            expected = [
                interval_doc(fi)
                for d, _ in sorted(pairs, key=lambda pair: pair[0].interval)
                for fi in sequential.add(d)
            ]
        except ReproError as exc:
            with pytest.raises(ReproError) as refused:
                batch.add_all(pairs)
            assert type(refused.value) is type(exc)
            assert str(refused.value) == str(exc)
            assert json.dumps(batch.to_state(), sort_keys=True) == before
        else:
            assert [interval_doc(fi) for fi in batch.add_all(pairs)] == expected
            assert json.dumps(batch.to_state(), sort_keys=True) == json.dumps(
                sequential.to_state(), sort_keys=True
            )


class TestResume:
    def test_mid_stream_round_trip_is_byte_identical(
        self, site_digests, federator_factory
    ):
        live = federator_factory()
        for i in range(10):
            live.add(site_digests["east"][i])
            if i < 9:
                live.add(site_digests["west"][i])
        # Through JSON, exactly as a checkpoint file would carry it.
        state = json.loads(json.dumps(live.to_state()))
        assert state["pending"]  # west's interval 9 is still buffered
        resumed = federator_factory()
        resumed.from_state(state)
        assert resumed.next_interval == live.next_interval
        assert resumed.pending_intervals == live.pending_intervals

        tail = [site_digests["west"][9]]
        for i in range(10, 30):
            tail.extend(site_digests[site][i] for site in SITES)
        out_live, out_resumed = [], []
        for digest in tail:
            out_live.extend(live.add(digest))
            out_resumed.extend(resumed.add(digest))
        out_live.extend(live.finish())
        out_resumed.extend(resumed.finish())
        assert [interval_doc(fi) for fi in out_live] == [
            interval_doc(fi) for fi in out_resumed
        ]
        assert json.dumps(
            live.to_state(), sort_keys=True
        ) == json.dumps(resumed.to_state(), sort_keys=True)
        assert [r.to_dict() for r in live.reports] == [
            r.to_dict() for r in resumed.reports
        ]

    @pytest.mark.parametrize("checkpoint_at", range(0, 30, 3))
    def test_kill_anywhere_resume_absorbs_replays(
        self, site_digests, federator_factory, tmp_path, checkpoint_at
    ):
        """The federator's half of the kill-anywhere property: the
        checkpoint is taken before interval ``checkpoint_at`` releases,
        the first life runs two more intervals (so the store is *ahead*
        of the checkpoint - the normal crash shape - and at
        ``checkpoint_at`` 24 already holds the alarmed report), then
        dies.  Restore + replay from ``state["next"]`` must complete,
        skip the already-durable report instead of re-appending it, and
        end byte-identical to the uninterrupted run."""

        def deliver(fed, lo, hi):
            for i in range(lo, hi):
                for site in SITES:
                    fed.add(site_digests[site][i])

        baseline_path = str(tmp_path / "baseline.db")
        with open_store(baseline_path) as store:
            baseline = federator_factory(store=store)
            deliver(baseline, 0, 30)
            baseline.finish()
            expected_rows = [r.to_json() for r in store.reports()]
        assert expected_rows

        path = str(tmp_path / "killed.db")
        with open_store(path) as store:
            first = federator_factory(store=store)
            deliver(first, 0, checkpoint_at)
            state = json.loads(json.dumps(first.to_state()))
            assert state["next"] == checkpoint_at
            deliver(first, checkpoint_at, min(30, checkpoint_at + 2))
            # kill -9: no finish, no further checkpoint.
        with open_store(path) as store:
            resumed = federator_factory(store=store)
            resumed.from_state(state)
            deliver(resumed, state["next"], 30)
            resumed.finish()
            assert [r.to_json() for r in store.reports()] == expected_rows
            assert store.last_interval() == 29
            assert [r.to_json() for r in resumed.reports] == expected_rows
        assert json.dumps(resumed.to_state(), sort_keys=True) == (
            json.dumps(baseline.to_state(), sort_keys=True)
        )
        assert [r.to_dict() for r in api.rank(path)] == [
            r.to_dict() for r in api.rank(baseline_path)
        ]

    def test_schema_mismatch_refused(self, federator_factory):
        narrow = federator_factory(seed=1)
        state = narrow.to_state()
        with pytest.raises(CheckpointError, match="schema"):
            federator_factory().from_state(state)

    def test_malformed_state_refused(self, federator_factory):
        with pytest.raises(CheckpointError, match="malformed"):
            federator_factory().from_state({})

    @pytest.mark.parametrize(
        "tamper, names",
        [
            # Each would release empty intervals up to the bogus mark.
            (lambda s: s.update(max_seen=10**12), "max_seen"),
            (lambda s: s.update(next=10**12), "interval 3"),
            # A buffered digest add() could never have admitted.
            (lambda s: s["pending"][0].__setitem__(0, 7), "interval 7"),
            (lambda s: s["pending"][0][1][0].__setitem__(0, "x"), "'x'"),
        ],
    )
    def test_inconsistent_state_refused(
        self, site_digests, federator_factory, tamper, names
    ):
        live = federator_factory()
        for i in range(4):
            live.add(site_digests["east"][i])
            if i < 3:
                live.add(site_digests["west"][i])
        state = json.loads(json.dumps(live.to_state()))
        assert (state["next"], state["max_seen"]) == (3, 3)
        tamper(state)
        fresh = federator_factory()
        with pytest.raises(CheckpointError, match=names):
            fresh.from_state(state)
        assert fresh.next_interval == 0 and not fresh.pending_intervals
