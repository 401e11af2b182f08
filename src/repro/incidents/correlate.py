"""Cross-interval correlation of extraction reports into incidents.

One anomaly rarely lives in one measurement interval: a DDoS that runs
for an hour shows up as four consecutive reports whose dominant
item-sets name the same victim.  :class:`IncidentCorrelator` folds the
per-interval item-sets of a report stream into *incidents* - one per
real-world event - by item-set similarity: an exact key match always
joins an incident, and a Jaccard-over-items overlap above a threshold
catches drift (a scanner that picks up an extra feature value mid-run).

Each incident tracks ``first_seen``/``last_seen`` intervals, how many
intervals it appeared in, peak and total support, triage, and detector
votes, and derives a lifecycle state from a single *quiet-gap* knob:

* ``active`` - seen in the newest observed interval;
* ``quiet``  - silent for at most ``quiet_gap`` intervals;
* ``closed`` - silent longer; a reappearance of the same item-set after
  that starts a **new** incident (the operator already handled the old
  one).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.core.config import (
    INCIDENT_JACCARD,
    INCIDENT_QUIET_GAP,
    IncidentSettings,
)
from repro.core.report import ExtractionReport
from repro.errors import IncidentError
from repro.mining.items import format_item

#: Lifecycle states an incident can be in.
INCIDENT_STATES = ("active", "quiet", "closed")


def jaccard_items(a: Iterable[int], b: Iterable[int]) -> float:
    """Jaccard similarity of two encoded item collections.

    A set ``b`` (an incident's items) is read as it is, not copied, and
    the union is counted as ``|a| + |b| - |a & b|``: the same integer,
    so the same float.
    """
    sa = set(a)
    sb = b if isinstance(b, (set, frozenset)) else set(b)
    if not sa and not sb:
        return 1.0
    common = len(sa & sb)
    return common / (len(sa) + len(sb) - common)


@dataclass
class Incident:
    """One correlated anomaly spanning one or more intervals."""

    incident_id: int
    #: The item-set that opened the incident (its identity for humans).
    key: tuple[int, ...]
    #: Union of every encoded item any merged item-set contributed.
    items: set[int] = field(default_factory=set)
    first_seen: int = 0
    last_seen: int = 0
    #: Distinct intervals in which the incident appeared.
    intervals_seen: int = 0
    peak_support: int = 0
    total_support: int = 0
    #: Strongest detector-vote agreement among contributing reports.
    peak_votes: int = 0
    #: Occurrences per triage hint ("suspicious" / "common-*").
    hints: dict[str, int] = field(default_factory=dict)
    #: Lifecycle state, materialized by the correlator snapshot.
    state: str = "active"
    #: Every item-set occurrence absorbed, in stream order, as
    #: ``(interval, items, support, hint)`` - the exact-key and the
    #: Jaccard-matched ones alike (what provenance lists).
    occurrences: list[tuple[int, tuple[int, ...], int, str]] = field(
        default_factory=list, repr=False, compare=False
    )
    _counted_interval: int | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def suspicious(self) -> bool:
        """True when any contributing item-set was triaged suspicious."""
        return self.hints.get("suspicious", 0) > 0

    @property
    def span_intervals(self) -> int:
        """Inclusive first..last interval span."""
        return self.last_seen - self.first_seen + 1

    def describe_key(self) -> str:
        return ", ".join(format_item(i) for i in self.key)

    def state_at(self, now: int, quiet_gap: int) -> str:
        """Lifecycle state as of interval ``now``."""
        gap = now - self.last_seen
        if gap <= 0:
            return "active"
        if gap <= quiet_gap:
            return "quiet"
        return "closed"

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe rendering for the CLI and dashboards."""
        return {
            "incident_id": self.incident_id,
            "key": list(self.key),
            "key_rendered": self.describe_key(),
            "items": sorted(self.items),
            "first_seen": self.first_seen,
            "last_seen": self.last_seen,
            "intervals_seen": self.intervals_seen,
            "span_intervals": self.span_intervals,
            "peak_support": self.peak_support,
            "total_support": self.total_support,
            "peak_votes": self.peak_votes,
            "hints": dict(self.hints),
            "suspicious": self.suspicious,
            "state": self.state,
        }

    # Merging ----------------------------------------------------------
    def absorb(
        self,
        items: tuple[int, ...],
        support: int,
        hint: str,
        interval: int,
        votes: int,
    ) -> None:
        """Fold one triaged item-set occurrence into this incident."""
        self.occurrences.append((interval, items, support, hint))
        self.items.update(items)
        self.last_seen = max(self.last_seen, interval)
        if self._counted_interval != interval:
            self.intervals_seen += 1
            self._counted_interval = interval
        self.peak_support = max(self.peak_support, support)
        self.total_support += support
        self.peak_votes = max(self.peak_votes, votes)
        self.hints[hint] = self.hints.get(hint, 0) + 1


class IncidentCorrelator:
    """Online incident builder over an interval-ordered report stream.

    Feed reports through :meth:`observe` in non-decreasing interval
    order (the order :meth:`IncidentStore.iter_reports` yields, and the
    order the live pipeline produces); read the correlated view with
    :meth:`incidents` at any point - it is a snapshot, the correlator
    keeps running.

    Args:
        jaccard: items-overlap threshold for merging a new item-set
            into an existing incident when no exact key matches
            (1.0 = exact matches only).
        quiet_gap: intervals of silence before an incident leaves
            "quiet" for "closed"; closed incidents never absorb new
            item-sets.
    """

    def __init__(
        self,
        jaccard: float = INCIDENT_JACCARD,
        quiet_gap: int = INCIDENT_QUIET_GAP,
    ):
        IncidentSettings(jaccard=jaccard, quiet_gap=quiet_gap)
        self.jaccard = jaccard
        self.quiet_gap = quiet_gap
        self._incidents: list[Incident] = []
        #: Non-closed incidents only - the merge candidates.  Pruned as
        #: the stream advances so matching cost follows the number of
        #: *live* incidents, not the whole history.
        self._open: list[Incident] = []
        #: Exact item-tuple -> most recent incident that contains it.
        self._by_key: dict[tuple[int, ...], Incident] = {}
        self._now: int | None = None
        self._next_id = 1

    # ------------------------------------------------------------------
    @property
    def now(self) -> int | None:
        """Latest interval observed (None before the first report)."""
        return self._now

    def observe(self, report: ExtractionReport) -> None:
        """Fold one interval's report into the incident set."""
        if self._now is not None and report.interval < self._now:
            raise IncidentError(
                f"reports must arrive in interval order: got interval "
                f"{report.interval} after {self._now}"
            )
        self._now = report.interval
        self._prune_closed(report.interval)
        votes = report.detector_votes
        for triaged in report.itemsets:
            items = triaged.itemset.items
            incident = self._match(items, report.interval)
            if incident is None:
                incident = Incident(
                    incident_id=self._next_id,
                    key=items,
                    first_seen=report.interval,
                    last_seen=report.interval,
                )
                self._next_id += 1
                self._incidents.append(incident)
                self._open.append(incident)
            incident.absorb(
                items, triaged.itemset.support, triaged.hint,
                report.interval, votes,
            )
            self._by_key[items] = incident

    def observe_all(self, reports: Iterable[ExtractionReport]) -> None:
        for report in reports:
            self.observe(report)

    # ------------------------------------------------------------------
    def _mergeable(self, incident: Incident, interval: int) -> bool:
        """Can ``incident`` still absorb an item-set seen at ``interval``?"""
        return incident.state_at(interval, self.quiet_gap) != "closed"

    def _prune_closed(self, interval: int) -> None:
        self._open = [
            i for i in self._open if self._mergeable(i, interval)
        ]

    def _match(
        self, items: tuple[int, ...], interval: int
    ) -> Incident | None:
        exact = self._by_key.get(items)
        if exact is not None and self._mergeable(exact, interval):
            return exact
        best: Incident | None = None
        best_score = 0.0
        for incident in self._open:
            score = jaccard_items(items, incident.items)
            # Strict > keeps the earliest incident on ties, so merge
            # targets are deterministic (_open holds creation order).
            if score >= self.jaccard and score > best_score:
                best = incident
                best_score = score
        return best

    # ------------------------------------------------------------------
    def incidents(self, now: int | None = None) -> list[Incident]:
        """Snapshot of every incident with its lifecycle state
        materialized as of interval ``now``.

        ``now`` defaults to the newest *reported* interval, but reports
        only exist for alarmed intervals: an attack that ended at
        interval 24 of a trace that stays clean afterwards would read
        "active" forever.  Callers that know how far the pipeline
        actually processed (e.g. :meth:`IncidentStore.incidents` via the
        stored last-processed interval) pass it here so trailing
        alarm-free stretches age incidents into quiet/closed.  A ``now``
        older than the newest observed interval is ignored.
        """
        observed = self._now if self._now is not None else 0
        if now is not None:
            observed = max(observed, now)
        for incident in self._incidents:
            incident.state = incident.state_at(observed, self.quiet_gap)
        return list(self._incidents)


def correlate(
    reports: Iterable[ExtractionReport],
    jaccard: float = INCIDENT_JACCARD,
    quiet_gap: int = INCIDENT_QUIET_GAP,
    now: int | None = None,
) -> list[Incident]:
    """One-shot correlation of an interval-ordered report sequence.

    ``now`` is the last interval the pipeline processed (not merely the
    last that alarmed); see :meth:`IncidentCorrelator.incidents`.
    """
    correlator = IncidentCorrelator(jaccard=jaccard, quiet_gap=quiet_gap)
    correlator.observe_all(reports)
    return correlator.incidents(now=now)
