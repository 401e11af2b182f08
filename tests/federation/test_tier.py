"""The batch tier: split_trace, api.federate, and the incident path."""

from __future__ import annotations

import ipaddress

import pytest

import repro.api as api
from repro.errors import ConfigError, FederationError
from repro.federation import split_trace
from repro.federation.federator import FEDERATED_ALGORITHM
from repro.incidents.store import open_store
from repro.mining.items import format_item

INTERVAL_SECONDS = 900.0


class TestSplitTrace:
    def test_partitions_the_trace(self, ddos_trace):
        parts = split_trace(ddos_trace.flows, ("a", "b", "c"), "src_ip%3")
        assert set(parts) == {"a", "b", "c"}
        assert sum(len(p) for p in parts.values()) == len(ddos_trace.flows)
        assert all(len(p) > 0 for p in parts.values())

    def test_deterministic(self, ddos_trace):
        one = split_trace(ddos_trace.flows, ("a", "b"), "dst_ip%2")
        two = split_trace(ddos_trace.flows, ("a", "b"), "dst_ip%2")
        for site in ("a", "b"):
            assert len(one[site]) == len(two[site])

    def test_single_site_takes_everything(self, ddos_trace):
        parts = split_trace(ddos_trace.flows, ("solo",), "dst_ip")
        assert len(parts["solo"]) == len(ddos_trace.flows)

    def test_no_sites_refused(self, ddos_trace):
        with pytest.raises(FederationError, match="at least one site"):
            split_trace(ddos_trace.flows, (), "dst_ip")

    def test_fractional_router_output_refused(self, ddos_trace):
        """A router returning 0.5 passes a bare range test and matches
        no site: every flow would vanish.  The fleet's validation
        applies here too."""
        import numpy as np

        def halfway(table):
            return np.full(len(table), 0.5)

        with pytest.raises(ConfigError, match="integer pipeline indices"):
            split_trace(ddos_trace.flows, ("a", "b"), halfway)


def _federate(traces, fed_config, **kwargs):
    return api.federate(
        traces,
        {"federation": {"cm_width": 512, "cm_depth": 4}},
        detector=fed_config,
        seed=0,
        interval_seconds=INTERVAL_SECONDS,
        min_support=300,
        **kwargs,
    )


@pytest.fixture(scope="module")
def fed_result(site_flows, fed_config):
    return _federate(site_flows, fed_config)


class TestRunFederation:
    def test_shape(self, fed_result):
        assert fed_result.sites == ("east", "west")
        assert fed_result.digests == 60
        assert fed_result.n_intervals == 30
        assert fed_result.straggler_intervals() == []

    def test_alarms_match_concatenated_detection(
        self, fed_result, local_run
    ):
        _, run = local_run
        assert fed_result.alarm_intervals() == run.alarm_intervals()
        assert fed_result.alarm_intervals()  # attack detected

    def test_reports_carry_federated_provenance(self, fed_result):
        assert fed_result.reports
        for report in fed_result.reports:
            assert report.algorithm == FEDERATED_ALGORITHM
            assert report.selected_flows == 0

    def test_attack_victim_extracted(self, fed_result, small_profile):
        victim = small_profile.internal_base + 5
        expected = f"dstIP={ipaddress.ip_address(victim)}"
        rendered = {
            format_item(item)
            for report in fed_result.reports
            for triaged in report.itemsets
            for item in triaged.itemset.items
        }
        assert expected in rendered

    def test_incidents_ranked(self, fed_result):
        assert fed_result.incidents
        scores = [entry.score for entry in fed_result.incidents]
        assert scores == sorted(scores, reverse=True)

    def test_empty_traces_refused(self):
        with pytest.raises(FederationError, match="at least one site"):
            api.federate({})

    def test_digest_file_form_refuses_what_it_would_ignore(
        self, site_flows, tmp_path
    ):
        with pytest.raises(FederationError, match="sites= and route="):
            api.federate(["east.jsonl"], sites=["east"])
        with pytest.raises(FederationError, match="site: trace"):
            api.federate(list(site_flows.values()))
        binary = tmp_path / "east.npz"
        binary.write_bytes(b"PK\x03\x04\xc3\x28")
        with pytest.raises(FederationError, match="cannot read digest file"):
            api.federate([binary])


class TestStragglerTier:
    def test_short_site_surfaces_as_straggler(
        self, site_flows, fed_config
    ):
        west = site_flows["west"]
        cut = west.select(west.column("start") < 24 * INTERVAL_SECONDS)
        result = _federate(
            {"east": site_flows["east"], "west": cut}, fed_config
        )
        assert result.n_intervals == 30
        assert result.straggler_intervals() == list(range(24, 30))
        for fi in result.intervals[24:]:
            assert fi.stragglers == ("west",)
            assert fi.sites == ("east",)


class TestStorePath:
    def test_reports_persist_to_store(
        self, site_flows, fed_config, tmp_path
    ):
        path = str(tmp_path / "federation.db")
        with open_store(path) as store:
            result = _federate(site_flows, fed_config, store=store)
            assert len(store) == len(result.reports)
            stored = store.reports()
            assert [r.to_dict() for r in stored] == [
                r.to_dict() for r in result.reports
            ]

    def test_store_lifecycle_matches_in_memory_ranking(
        self, ddos_trace, fed_config, tmp_path
    ):
        """A federated store ages like a single-site one: the clean
        tail after the attack reaches ``note_interval`` through the
        shared interval step, so replaying the store ranks the finished
        attack exactly as the live federator does (closed), not
        ``active`` forever."""
        fed_path = str(tmp_path / "federation.db")
        single_path = str(tmp_path / "single.db")
        knobs = dict(
            detector=fed_config,
            interval_seconds=INTERVAL_SECONDS,
            min_support=300,
        )
        result = api.federate(
            ddos_trace.flows,
            sites=["east", "west"],
            route="dst_ip%2",
            store=fed_path,
            **knobs,
        )
        assert result.reports
        last_alarmed = max(r.interval for r in result.reports)
        last_released = result.intervals[-1].interval
        assert last_released > last_alarmed + 2  # a clean tail exists

        ranked = api.rank(fed_path)
        assert [r.to_dict() for r in ranked] == [
            r.to_dict() for r in result.incidents
        ]
        api.extract(ddos_trace.flows, store_path=single_path, **knobs)
        lifecycle = {
            (r.incident.state, r.incident.last_seen) for r in ranked
        }
        assert lifecycle == {
            (r.incident.state, r.incident.last_seen)
            for r in api.rank(single_path)
        }
        assert {state for state, _ in lifecycle} == {"closed"}
        with open_store(fed_path, must_exist=True) as store:
            assert store.last_interval() == last_released
