"""Unit tests for cross-interval incident correlation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection.features import Feature
from repro.errors import ConfigError, IncidentError
from repro.incidents.correlate import (
    IncidentCorrelator,
    correlate,
    jaccard_items,
)
from repro.mining.items import encode_item
from tests.incidents.test_store import make_report

VICTIM = encode_item(Feature.DST_IP, 42)
PORT80 = encode_item(Feature.DST_PORT, 80)
PROTO = encode_item(Feature.PROTOCOL, 6)
PK1 = encode_item(Feature.PACKETS, 1)
SCANNER = encode_item(Feature.SRC_IP, 7)
PORT445 = encode_item(Feature.DST_PORT, 445)


class TestJaccard:
    def test_identical(self):
        assert jaccard_items((1, 2), (2, 1)) == 1.0

    def test_disjoint(self):
        assert jaccard_items((1,), (2,)) == 0.0

    def test_partial(self):
        assert jaccard_items((1, 2, 3), (2, 3, 4)) == pytest.approx(0.5)

    def test_both_empty(self):
        assert jaccard_items((), ()) == 1.0

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.lists(st.integers(0, 12), max_size=10),
        b=st.lists(st.integers(0, 12), max_size=10),
        b_as_set=st.booleans(),
    )
    def test_equals_the_set_algebra_formula(self, a, b, b_as_set):
        """Duplicates in ``a``, empty sides, ``b`` as a set or not:
        bit-identical to ``|A & B| / |A | B|``."""
        sa, sb = set(a), set(b)
        want = 1.0 if not sa | sb else len(sa & sb) / len(sa | sb)
        assert jaccard_items(tuple(a), sb if b_as_set else b) == want

    def test_set_argument_is_not_modified(self):
        items = {1, 2, 3}
        assert jaccard_items((2, 2, 5), items) == 0.25
        assert items == {1, 2, 3}


class TestExactMerging:
    def test_same_key_across_intervals_is_one_incident(self):
        reports = [
            make_report(10, [((VICTIM, PORT80), 300, "suspicious")]),
            make_report(11, [((VICTIM, PORT80), 500, "suspicious")]),
            make_report(12, [((VICTIM, PORT80), 200, "suspicious")]),
        ]
        incidents = correlate(reports)
        assert len(incidents) == 1
        inc = incidents[0]
        assert inc.first_seen == 10
        assert inc.last_seen == 12
        assert inc.intervals_seen == 3
        assert inc.span_intervals == 3
        assert inc.peak_support == 500
        assert inc.total_support == 1000
        assert inc.suspicious

    def test_disjoint_itemsets_stay_separate(self):
        reports = [
            make_report(10, [((VICTIM, PORT80), 300, "suspicious")]),
            make_report(11, [((SCANNER, PORT445), 250, "suspicious")]),
        ]
        incidents = correlate(reports)
        assert len(incidents) == 2
        assert {i.key for i in incidents} == {
            tuple(sorted((VICTIM, PORT80))),
            tuple(sorted((SCANNER, PORT445))),
        }

    def test_two_itemsets_same_interval_count_one_interval(self):
        report = make_report(
            10,
            [
                ((VICTIM, PORT80), 300, "suspicious"),
                ((VICTIM, PORT80, PROTO), 280, "suspicious"),
            ],
        )
        incidents = correlate([report], jaccard=0.5)
        assert len(incidents) == 1
        assert incidents[0].intervals_seen == 1
        assert incidents[0].total_support == 580

    def test_detector_votes_tracked(self):
        reports = [
            make_report(10, [((VICTIM,), 100, "suspicious")],
                        alarmed=("dstIP",)),
            make_report(11, [((VICTIM,), 100, "suspicious")],
                        alarmed=("dstIP", "srcIP", "dstPort")),
        ]
        (inc,) = correlate(reports)
        assert inc.peak_votes == 3


class TestJaccardMerging:
    def test_drifting_itemset_merges(self):
        # Interval 11 picks up one extra item: 3/4 overlap >= 0.5.
        reports = [
            make_report(10, [((VICTIM, PORT80, PROTO), 300, "suspicious")]),
            make_report(
                11, [((VICTIM, PORT80, PROTO, PK1), 280, "suspicious")]
            ),
        ]
        incidents = correlate(reports, jaccard=0.5)
        assert len(incidents) == 1
        assert incidents[0].items == {VICTIM, PORT80, PROTO, PK1}

    def test_below_threshold_opens_new_incident(self):
        reports = [
            make_report(10, [((VICTIM, PORT80, PROTO), 300, "suspicious")]),
            make_report(11, [((PROTO, PK1), 280, "common-size")]),
        ]
        # overlap {PROTO} / union of 4 = 0.25 < 0.5
        assert len(correlate(reports, jaccard=0.5)) == 2

    def test_exact_only_mode(self):
        reports = [
            make_report(10, [((VICTIM, PORT80, PROTO), 300, "suspicious")]),
            make_report(
                11, [((VICTIM, PORT80, PROTO, PK1), 280, "suspicious")]
            ),
        ]
        assert len(correlate(reports, jaccard=1.0)) == 2

    def test_tie_merges_into_earliest_incident(self):
        correlator = IncidentCorrelator(jaccard=0.5, quiet_gap=2)
        # {VICTIM, PROTO} vs {VICTIM, PORT80}: 1/3 < 0.5 -> two
        # incidents open side by side.
        correlator.observe(make_report(10, [
            ((VICTIM, PORT80), 300, "suspicious"),
            ((VICTIM, PROTO), 200, "suspicious"),
        ]))
        assert len(correlator.incidents()) == 2
        # {VICTIM} scores exactly 0.5 against both; the tie must go to
        # the earlier incident, deterministically.
        correlator.observe(
            make_report(11, [((VICTIM,), 100, "suspicious")])
        )
        incidents = correlator.incidents()
        assert len(incidents) == 2
        assert incidents[0].last_seen == 11
        assert incidents[1].last_seen == 10


class TestLifecycle:
    def test_states_at_snapshot(self):
        reports = [
            make_report(10, [((VICTIM, PORT80), 300, "suspicious")]),
            make_report(12, [((SCANNER, PORT445), 250, "suspicious")]),
            make_report(15, [((PROTO, PK1), 120, "common-size")]),
        ]
        incidents = correlate(reports, quiet_gap=3)
        by_key = {i.key: i for i in incidents}
        # now = 15: VICTIM gap 5 > 3 -> closed; SCANNER gap 3 -> quiet.
        assert by_key[tuple(sorted((VICTIM, PORT80)))].state == "closed"
        assert by_key[tuple(sorted((SCANNER, PORT445)))].state == "quiet"
        assert by_key[tuple(sorted((PROTO, PK1)))].state == "active"

    def test_state_at_boundaries(self):
        (inc,) = correlate(
            [make_report(10, [((VICTIM,), 100, "suspicious")])]
        )
        assert inc.state_at(10, quiet_gap=2) == "active"
        assert inc.state_at(11, quiet_gap=2) == "quiet"
        assert inc.state_at(12, quiet_gap=2) == "quiet"
        assert inc.state_at(13, quiet_gap=2) == "closed"

    def test_reappearance_after_close_opens_new_incident(self):
        reports = [
            make_report(10, [((VICTIM, PORT80), 300, "suspicious")]),
            # gap of 5 intervals > quiet_gap=2: the first incident is
            # closed when the same itemset returns.
            make_report(16, [((VICTIM, PORT80), 400, "suspicious")]),
        ]
        incidents = correlate(reports, quiet_gap=2)
        assert len(incidents) == 2
        assert incidents[0].state == "closed"
        assert incidents[1].state == "active"
        assert incidents[0].incident_id != incidents[1].incident_id

    def test_reappearance_within_gap_extends(self):
        reports = [
            make_report(10, [((VICTIM, PORT80), 300, "suspicious")]),
            make_report(12, [((VICTIM, PORT80), 400, "suspicious")]),
        ]
        (inc,) = correlate(reports, quiet_gap=2)
        assert inc.intervals_seen == 2
        assert inc.last_seen == 12

    def test_snapshot_now_ages_trailing_clean_stretch(self):
        # Reports only exist for alarmed intervals; an explicit `now`
        # (the last interval actually processed) must age an ended
        # attack toward quiet and closed.
        reports = [make_report(10, [((VICTIM, PORT80), 300, "suspicious")])]
        assert correlate(reports, quiet_gap=2)[0].state == "active"
        assert correlate(reports, quiet_gap=2, now=12)[0].state == "quiet"
        assert correlate(reports, quiet_gap=2, now=13)[0].state == "closed"

    def test_snapshot_now_older_than_observed_is_ignored(self):
        reports = [make_report(10, [((VICTIM, PORT80), 300, "suspicious")])]
        (inc,) = correlate(reports, quiet_gap=2, now=0)
        assert inc.state == "active"


class TestValidation:
    def test_out_of_order_reports_rejected(self):
        correlator = IncidentCorrelator()
        correlator.observe(make_report(10))
        with pytest.raises(IncidentError, match="interval order"):
            correlator.observe(make_report(9))

    def test_same_interval_twice_allowed(self):
        correlator = IncidentCorrelator()
        correlator.observe(
            make_report(10, [((VICTIM,), 100, "suspicious")])
        )
        correlator.observe(
            make_report(10, [((VICTIM,), 50, "suspicious")])
        )
        (inc,) = correlator.incidents()
        assert inc.total_support == 150
        assert inc.intervals_seen == 1

    def test_bad_jaccard(self):
        with pytest.raises(ConfigError, match="jaccard"):
            IncidentCorrelator(jaccard=0.0)
        with pytest.raises(ConfigError, match="jaccard"):
            IncidentCorrelator(jaccard=1.5)

    def test_bad_quiet_gap(self):
        with pytest.raises(ConfigError, match="quiet_gap"):
            IncidentCorrelator(quiet_gap=0)

    def test_empty_stream(self):
        assert correlate([]) == []

    def test_now_tracks_latest_interval(self):
        correlator = IncidentCorrelator()
        assert correlator.now is None
        correlator.observe(make_report(7))
        assert correlator.now == 7


class TestSerialization:
    def test_incident_to_dict(self):
        (inc,) = correlate(
            [make_report(10, [((VICTIM, PORT80), 300, "suspicious")])]
        )
        data = inc.to_dict()
        assert data["incident_id"] == inc.incident_id
        assert data["key"] == sorted((VICTIM, PORT80))
        assert "dstIP=" in data["key_rendered"]
        assert data["state"] == "active"
        assert data["suspicious"] is True
        assert data["hints"] == {"suspicious": 1}
