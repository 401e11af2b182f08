"""Incident layer: persistence, cross-interval correlation, ranking.

The paper's pipeline ends at a per-interval list of maximal item-sets
that "an administrator trivially sorts out".  At production scale the
same anomaly spans many intervals and nobody re-reads raw tables, so
this package adds the operator-facing layer on top of the batch
(:func:`repro.api.extract`) and streaming (:func:`repro.api.stream`)
engines:

* :class:`~repro.incidents.store.IncidentStore` - a SQLite (WAL) log of
  every alarmed interval's
  :class:`~repro.core.report.ExtractionReport`, with
  append/query/compact APIs; it plugs into both engines as the ``sink``
  argument, and store replay reproduces the in-memory reports
  byte-for-byte;
* :class:`~repro.incidents.correlate.IncidentCorrelator` - merges
  reports across intervals into *incidents* by item-set similarity
  (exact key match + Jaccard threshold), tracking first/last seen,
  persistence, peak support, and an active/quiet/closed lifecycle;
* :func:`~repro.incidents.rank.rank_incidents` - HURRA-style scoring
  (support mass, persistence, triage, detector votes) under a pluggable
  weight profile;
* :func:`~repro.incidents.provenance.explain_incident` - joins one
  ranked incident back to its contributing intervals (the item-sets
  absorbed in each, per-feature detector votes, extraction context) for
  the ``incidents <db> explain <id>`` narrative.

CLI: ``repro-extract extract --store PATH`` to persist,
``repro-extract incidents PATH`` to query, ``repro-extract incidents
PATH explain ID`` to explain one ranked incident end to end.
"""

from repro.incidents.correlate import (
    INCIDENT_STATES,
    Incident,
    IncidentCorrelator,
    correlate,
    jaccard_items,
)
from repro.incidents.provenance import (
    IncidentProvenance,
    IntervalContribution,
    explain_incident,
)
from repro.incidents.rank import (
    PROFILES,
    RankedIncident,
    WeightProfile,
    rank_incidents,
    resolve_profile,
    score_incident,
)
from repro.incidents.store import (
    SCHEMA_VERSION,
    IncidentStore,
    open_store,
)

__all__ = [
    "INCIDENT_STATES",
    "Incident",
    "IncidentCorrelator",
    "IncidentProvenance",
    "IntervalContribution",
    "correlate",
    "explain_incident",
    "jaccard_items",
    "PROFILES",
    "RankedIncident",
    "WeightProfile",
    "rank_incidents",
    "resolve_profile",
    "score_incident",
    "SCHEMA_VERSION",
    "IncidentStore",
    "open_store",
]
