"""End-to-end provenance of one ranked incident.

A ranked incident is a summary - one score, one item-set key, one
interval span.  When an operator asks *why* it ranked where it did,
the answer lives scattered across the store: which intervals
contributed, what the key item-set's support was in each, which
feature detectors voted the interval anomalous, and how the extraction
was configured when it fired.  :func:`explain_incident` joins all of
that back together into an :class:`IncidentProvenance`, and the
renderer turns it into the HURRA-style narrative behind
``repro-extract incidents <db> explain <id>``.

Everything here is a read-only join of the incident's own absorbed
occurrences (what the correlator folded in, exact-key and
Jaccard-matched alike) with
:meth:`~repro.incidents.store.IncidentStore.report_at` per
contributing interval - no new state is persisted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.mining.items import format_item

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.incidents.rank import RankedIncident
    from repro.incidents.store import IncidentStore


@dataclass(frozen=True)
class IntervalContribution:
    """One interval's part in an incident: every item-set the incident
    absorbed there, and the detector/extraction context of the
    interval's report."""

    interval: int
    start: float
    end: float
    #: Support and triage hint of the incident's key item-set here, or
    #: of the strongest absorbed set where the key itself is absent.
    support: int
    hint: str
    #: Feature detectors that alarmed this interval (the votes).
    alarmed_features: tuple[str, ...]
    input_flows: int
    selected_flows: int
    algorithm: str
    min_support: int
    #: ``(items, support, hint)`` of every set absorbed here, in report
    #: order: the key and the Jaccard-matched sets alike.
    itemsets: tuple[tuple[tuple[int, ...], int, str], ...]

    @property
    def votes(self) -> int:
        return len(self.alarmed_features)

    def to_dict(self) -> dict[str, Any]:
        return {
            "interval": self.interval,
            "start": self.start,
            "end": self.end,
            "support": self.support,
            "hint": self.hint,
            "alarmed_features": list(self.alarmed_features),
            "votes": self.votes,
            "input_flows": self.input_flows,
            "selected_flows": self.selected_flows,
            "algorithm": self.algorithm,
            "min_support": self.min_support,
            "itemsets": [
                {
                    "items": list(items),
                    "rendered": _render_items(items),
                    "support": support,
                    "hint": hint,
                }
                for items, support, hint in self.itemsets
            ],
        }


def _render_items(items: tuple[int, ...]) -> str:
    return ", ".join(format_item(i) for i in items)


@dataclass(frozen=True)
class IncidentProvenance:
    """A ranked incident joined back to everything that produced it."""

    entry: "RankedIncident"
    intervals: tuple[IntervalContribution, ...]

    def vote_breakdown(self) -> dict[str, int]:
        """Per-feature detector votes: in how many contributing
        intervals each feature's detector alarmed, ordered by (votes
        desc, name) for stable rendering."""
        counts: dict[str, int] = {}
        for contribution in self.intervals:
            for feature in contribution.alarmed_features:
                counts[feature] = counts.get(feature, 0) + 1
        return dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))

    def to_dict(self) -> dict[str, Any]:
        data = self.entry.to_dict()
        data["provenance"] = [c.to_dict() for c in self.intervals]
        data["vote_breakdown"] = self.vote_breakdown()
        return data

    def render(self) -> str:
        """The operator narrative: what it is, why it scored, which
        detectors voted, and every contributing interval."""
        inc = self.entry.incident
        lines = [self.entry.render()]
        lines.append(
            f"  item-set key: {{{inc.describe_key()}}}"
        )
        seen = inc.intervals_seen
        span = inc.span_intervals
        lines.append(
            f"  lifetime: intervals {inc.first_seen}..{inc.last_seen} "
            f"(seen in {seen} of {span} spanned), state {inc.state}"
        )
        lines.append("  score components:")
        for name, value in sorted(self.entry.components.items()):
            lines.append(f"    {name}: {value:.3f}")
        lines.append("  detector votes by feature:")
        breakdown = self.vote_breakdown()
        if not breakdown:
            lines.append("    (no recorded votes)")
        for feature, votes in breakdown.items():
            lines.append(
                f"    {feature}: alarmed in {votes}/{len(self.intervals)} "
                "contributing intervals"
            )
        lines.append("  contributing intervals:")
        for c in self.intervals:
            voters = ", ".join(c.alarmed_features) or "none"
            lines.append(
                f"    interval {c.interval} [{c.start:g}..{c.end:g}]: "
                f"{c.votes} detector votes ({voters}); "
                f"{c.selected_flows}/{c.input_flows} flows selected; "
                f"{c.algorithm} @ min-support {c.min_support}"
            )
            for items, support, hint in c.itemsets:
                lines.append(
                    f"      {{{_render_items(items)}}}: "
                    f"support {support} ({hint})"
                )
        hints = ", ".join(
            f"{hint} x{count}" for hint, count in sorted(inc.hints.items())
        )
        lines.append(f"  triage history: {hints or 'none'}")
        if len(inc.items) > len(inc.key):
            extra = sorted(set(inc.items) - set(inc.key))
            lines.append(
                "  absorbed items beyond the key: "
                + ", ".join(format_item(i) for i in extra)
            )
        return "\n".join(lines)


def explain_incident(
    store: "IncidentStore", entry: "RankedIncident"
) -> IncidentProvenance:
    """Join one ranked incident back to its contributing intervals.

    Every interval where the incident absorbed an item-set contributes
    - by exact key or by Jaccard match - so the list is as long as
    ``intervals_seen``.  Each of them has a stored report (the
    correlator read the sets from it), so :meth:`report_at` cannot
    miss.
    """
    incident = entry.incident
    by_interval: dict[int, list[tuple[tuple[int, ...], int, str]]] = {}
    for interval, items, support, hint in incident.occurrences:
        by_interval.setdefault(interval, []).append((items, support, hint))
    contributions = []
    for interval, sets in by_interval.items():
        report = store.report_at(interval)
        keyed = [s for s in sets if s[0] == incident.key]
        _, support, hint = keyed[0] if keyed else max(sets, key=lambda s: s[1])
        contributions.append(IntervalContribution(
            interval=interval,
            start=report.start,
            end=report.end,
            support=support,
            hint=hint,
            alarmed_features=report.alarmed_features,
            input_flows=report.input_flows,
            selected_flows=report.selected_flows,
            algorithm=report.algorithm,
            min_support=report.min_support,
            itemsets=tuple(sets),
        ))
    return IncidentProvenance(
        entry=entry, intervals=tuple(contributions)
    )
