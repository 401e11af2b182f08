"""``explain_incident`` names every interval an incident absorbed."""

from repro.incidents.provenance import explain_incident
from repro.incidents.store import IncidentStore
from repro.mining.items import format_item
from tests.incidents.test_store import PORT80, PROTO, VICTIM, make_report


def test_a_jaccard_matched_interval_contributes():
    """Interval 2 holds only a superset of the key (Jaccard 2/3): it
    joins the incident, so the detail view lists it with its set, and
    the vote denominator equals ``intervals_seen``."""
    with IncidentStore(":memory:") as store:
        store.extend([
            make_report(1, [((VICTIM, PORT80), 100, "common-service")]),
            make_report(
                2, [((VICTIM, PORT80, PROTO), 80, "suspicious")],
                alarmed=("dstIP", "dstPort"),
            ),
        ])
        (entry,) = store.incidents()
        provenance = explain_incident(store, entry)

    incident = entry.incident
    assert incident.intervals_seen == 2 and incident.suspicious
    doc = provenance.to_dict()
    assert [c["interval"] for c in doc["provenance"]] == [1, 2]
    first, second = doc["provenance"]
    assert (first["support"], first["hint"]) == (100, "common-service")
    assert (second["support"], second["hint"]) == (80, "suspicious")
    assert second["itemsets"] == [{
        "items": sorted([VICTIM, PORT80, PROTO]),
        "rendered": ", ".join(
            format_item(i) for i in sorted([VICTIM, PORT80, PROTO])
        ),
        "support": 80,
        "hint": "suspicious",
    }]
    assert doc["vote_breakdown"] == {"dstIP": 2, "dstPort": 1}
    text = provenance.render()
    assert "dstIP: alarmed in 2/2 contributing intervals" in text
    assert "    interval 2 [" in text
    # The incident's own document is unchanged by the join.
    assert "occurrences" not in incident.to_dict()
