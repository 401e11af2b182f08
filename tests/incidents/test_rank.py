"""Unit tests for HURRA-style incident ranking."""

from math import log1p

import pytest

import repro.api as api
from repro.detection.features import Feature
from repro.errors import ConfigError
from repro.incidents.correlate import Incident
from repro.incidents.rank import (
    BENIGN_TRIAGE_SCORE,
    PROFILES,
    WeightProfile,
    rank_incidents,
    resolve_profile,
    score_incident,
)
from repro.incidents.store import IncidentStore
from repro.mining.items import encode_item
from tests.incidents.test_store import make_report


def make_incident(
    incident_id=1,
    key=(1, 2),
    total_support=1000,
    peak_support=500,
    intervals_seen=3,
    peak_votes=5,
    suspicious=True,
    first_seen=10,
):
    return Incident(
        incident_id=incident_id,
        key=tuple(key),
        items=set(key),
        first_seen=first_seen,
        last_seen=first_seen + intervals_seen - 1,
        intervals_seen=intervals_seen,
        peak_support=peak_support,
        total_support=total_support,
        peak_votes=peak_votes,
        hints={"suspicious": 1} if suspicious else {"common-size": 1},
        state="active",
    )


class TestProfiles:
    def test_builtin_profiles_exist(self):
        assert {"balanced", "volume", "campaign"} <= set(PROFILES)

    def test_resolve_by_name_and_instance(self):
        assert resolve_profile("balanced") is PROFILES["balanced"]
        custom = WeightProfile("custom", support_mass=2.0)
        assert resolve_profile(custom) is custom

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigError, match="unknown weight profile"):
            resolve_profile("nope")

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError, match="must be >= 0"):
            WeightProfile("bad", triage=-1.0)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ConfigError, match="at least one weight"):
            WeightProfile("bad", support_mass=0, persistence=0,
                          triage=0, votes=0)


class TestScore:
    def test_components_hand_computed(self):
        inc = make_incident(
            total_support=99, intervals_seen=2, peak_votes=4
        )
        score, components = score_incident(
            inc, "balanced",
            max_total_support=999, max_intervals_seen=4,
            max_peak_votes=5,
        )
        assert components["support_mass"] == pytest.approx(
            log1p(99) / log1p(999)
        )
        assert components["persistence"] == pytest.approx(0.5)
        assert components["triage"] == 1.0
        assert components["votes"] == pytest.approx(4 / 5)
        assert score == pytest.approx(sum(components.values()) / 4)

    def test_benign_incident_downweighted(self):
        hot = make_incident(suspicious=True)
        cold = make_incident(incident_id=2, suspicious=False)
        _, hot_c = score_incident(hot)
        _, cold_c = score_incident(cold)
        assert hot_c["triage"] == 1.0
        assert cold_c["triage"] == BENIGN_TRIAGE_SCORE

    def test_self_normalization_pins_components(self):
        inc = make_incident(total_support=123, intervals_seen=7)
        _, components = score_incident(inc)
        assert components["support_mass"] == 1.0
        assert components["persistence"] == 1.0
        assert components["votes"] == 1.0

    def test_votes_normalize_per_population(self):
        """A run configured with a feature subset (peak_votes can never
        exceed the configured detector count) must still be able to
        reach full detector-agreement score."""
        full = make_incident(peak_votes=2)
        partial = make_incident(incident_id=2, key=(3, 4), peak_votes=1)
        ranked = rank_incidents([full, partial])
        by_id = {r.incident.incident_id: r for r in ranked}
        assert by_id[1].components["votes"] == 1.0
        assert by_id[2].components["votes"] == pytest.approx(0.5)

    def test_zero_support_component(self):
        inc = make_incident(total_support=0)
        _, components = score_incident(inc)
        assert components["support_mass"] == 0.0

    def test_votes_capped_at_one(self):
        inc = make_incident(peak_votes=99)
        _, components = score_incident(inc)
        assert components["votes"] == 1.0


class TestRanking:
    def test_unknown_profile_rejected_even_when_empty(self):
        # A typo'd --profile must error, not silently print nothing.
        with pytest.raises(ConfigError, match="unknown weight profile"):
            rank_incidents([], profile="blanced")

    def test_empty_population(self):
        assert rank_incidents([]) == []

    def test_best_first(self):
        big = make_incident(incident_id=1, total_support=10_000,
                            intervals_seen=5)
        small = make_incident(incident_id=2, key=(3, 4),
                              total_support=100, intervals_seen=1,
                              peak_votes=2)
        ranked = rank_incidents([small, big])
        assert [r.incident.incident_id for r in ranked] == [1, 2]
        assert ranked[0].score > ranked[1].score

    def test_profile_changes_order(self):
        # flood: huge support, one interval; campaign: tiny support,
        # many intervals.  Both suspicious, same votes.
        flood = make_incident(incident_id=1, total_support=100_000,
                              intervals_seen=1)
        campaign = make_incident(incident_id=2, key=(3, 4),
                                 total_support=500, intervals_seen=20)
        by_volume = rank_incidents([flood, campaign], profile="volume")
        by_campaign = rank_incidents([flood, campaign],
                                     profile="campaign")
        assert by_volume[0].incident.incident_id == 1
        assert by_campaign[0].incident.incident_id == 2

    def test_tie_breaks_on_first_seen_then_key(self):
        a = make_incident(incident_id=1, key=(5, 6), first_seen=10)
        b = make_incident(incident_id=2, key=(1, 2), first_seen=10)
        c = make_incident(incident_id=3, key=(7, 8), first_seen=9)
        ranked = rank_incidents([a, b, c])
        assert [r.incident.incident_id for r in ranked] == [3, 2, 1]

    def test_top_k(self):
        population = [
            make_incident(incident_id=i, key=(i, 100 + i),
                          total_support=1000 * i)
            for i in range(1, 6)
        ]
        ranked = rank_incidents(population, top=2)
        assert len(ranked) == 2
        assert ranked[0].incident.incident_id == 5

    def test_top_validation(self):
        with pytest.raises(ConfigError, match="top"):
            rank_incidents([make_incident()], top=0)

    def test_top_validation_covers_an_empty_population(self):
        with pytest.raises(ConfigError, match="top"):
            rank_incidents([], top=0)

    @pytest.mark.parametrize("top", [0, -1])
    def test_store_views_refuse_top_below_one(self, top):
        """The store's views rank with ``top`` rather than slicing the
        full ranking, where -1 would drop the last incident and 0 would
        return nothing."""
        with IncidentStore(":memory:") as store:
            for interval, port in ((5, 80), (20, 443), (40, 22)):
                item = encode_item(Feature.DST_PORT, port)
                store.append(make_report(interval, [((item,), 300, "")]))
            assert len(api.rank(store)) == 3
            assert len(api.rank(store, top=2)) == 2
            with pytest.raises(ConfigError, match="top must be an integer >= 1"):
                api.rank(store, top=top)
            with pytest.raises(ConfigError, match="top must be an integer >= 1"):
                store.incidents(top=top)

    def test_scores_within_unit_interval(self):
        population = [
            make_incident(incident_id=i, key=(i,), total_support=10 * i,
                          intervals_seen=i, peak_votes=i,
                          suspicious=bool(i % 2))
            for i in range(1, 8)
        ]
        for entry in rank_incidents(population):
            assert 0.0 <= entry.score <= 1.0

    def test_to_dict_and_render(self):
        (entry,) = rank_incidents([make_incident()])
        data = entry.to_dict()
        assert data["score"] == entry.score
        assert set(data["components"]) == {
            "support_mass", "persistence", "triage", "votes"
        }
        text = entry.render()
        assert "score=" in text
        assert "#1" in text
