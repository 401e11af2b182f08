"""HURRA-style ranking of correlated incidents.

Navarro & Rossi's HURRA observes that the operator win of automated
troubleshooting is *ranking*: put what matters on top and the "trivial
sorting out" the paper hand-waves disappears.  We score each incident
by four normalized components and a pluggable weight profile:

* **support mass** - log-scaled total flow support across the
  incident's lifetime (how much traffic it explains);
* **persistence** - in how many intervals it appeared (a flash crowd
  and a two-day campaign should not tie);
* **triage** - the admin heuristic of :mod:`repro.core.report`:
  suspicious item-sets outrank common-service/common-size ones;
* **votes** - detector agreement (how many of the per-feature
  histogram detectors alarmed when it was extracted).

Every component lies in [0, 1]; the score is the weighted mean, so it
is comparable across runs with the same profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log1p
from typing import Any, Iterable

from repro.errors import IncidentError
from repro.incidents.correlate import Incident

#: Score multiplier of an incident none of whose item-sets were
#: triaged suspicious (common-service / common-size only).
BENIGN_TRIAGE_SCORE = 0.25


@dataclass(frozen=True)
class WeightProfile:
    """Relative weights of the four ranking components."""

    name: str
    support_mass: float = 1.0
    persistence: float = 1.0
    triage: float = 1.0
    votes: float = 1.0

    def __post_init__(self) -> None:
        weights = (self.support_mass, self.persistence, self.triage,
                   self.votes)
        if any(w < 0 for w in weights):
            raise IncidentError(
                f"profile {self.name!r}: weights must be >= 0: {weights}"
            )
        if sum(weights) <= 0:
            raise IncidentError(
                f"profile {self.name!r}: at least one weight must be > 0"
            )

    @property
    def total(self) -> float:
        return (self.support_mass + self.persistence + self.triage
                + self.votes)


#: Built-in profiles; pass a :class:`WeightProfile` for custom weights.
PROFILES: dict[str, WeightProfile] = {
    "balanced": WeightProfile("balanced"),
    # Volume first: big floods to the top even if short-lived.
    "volume": WeightProfile("volume", support_mass=3.0),
    # Campaigns first: long-running low-volume events (scans, spam).
    "campaign": WeightProfile("campaign", persistence=3.0),
}


@dataclass(frozen=True)
class RankedIncident:
    """An incident with its score and per-component breakdown."""

    incident: Incident
    score: float
    components: dict[str, float]

    def to_dict(self) -> dict[str, Any]:
        data = self.incident.to_dict()
        data["score"] = self.score
        data["components"] = dict(self.components)
        return data

    def render(self) -> str:
        inc = self.incident
        return (
            f"#{inc.incident_id} score={self.score:.3f} [{inc.state}] "
            f"{{{inc.describe_key()}}} "
            f"intervals {inc.first_seen}..{inc.last_seen} "
            f"(seen {inc.intervals_seen}x), peak support "
            f"{inc.peak_support}, votes {inc.peak_votes}"
        )


def resolve_profile(profile: str | WeightProfile) -> WeightProfile:
    if isinstance(profile, WeightProfile):
        return profile
    try:
        return PROFILES[profile]
    except KeyError:
        raise IncidentError(
            f"unknown weight profile {profile!r}; "
            f"choose from {sorted(PROFILES)}"
        ) from None


def score_incident(
    incident: Incident,
    profile: str | WeightProfile = "balanced",
    max_total_support: int | None = None,
    max_intervals_seen: int | None = None,
    max_peak_votes: int | None = None,
) -> tuple[float, dict[str, float]]:
    """Score one incident; returns ``(score, components)``.

    The ``max_*`` arguments set the normalization context (the best
    values across the incident population); ``None`` normalizes the
    incident against itself, which pins that component to 1.  Votes
    normalize per-population like the other components - a run
    configured with a feature subset can still reach full
    detector-agreement score.
    """
    weights = resolve_profile(profile)
    max_support = max_total_support or incident.total_support
    max_seen = max_intervals_seen or incident.intervals_seen
    max_votes = max_peak_votes or incident.peak_votes
    components = {
        "support_mass": (
            log1p(incident.total_support) / log1p(max_support)
            if max_support > 0 else 0.0
        ),
        "persistence": (
            incident.intervals_seen / max_seen if max_seen > 0 else 0.0
        ),
        "triage": 1.0 if incident.suspicious else BENIGN_TRIAGE_SCORE,
        "votes": (
            incident.peak_votes / max_votes if max_votes > 0 else 0.0
        ),
    }
    score = (
        weights.support_mass * components["support_mass"]
        + weights.persistence * components["persistence"]
        + weights.triage * components["triage"]
        + weights.votes * components["votes"]
    ) / weights.total
    return score, components


def rank_incidents(
    incidents: Iterable[Incident],
    profile: str | WeightProfile = "balanced",
    top: int | None = None,
) -> list[RankedIncident]:
    """Rank a population of incidents, best first.

    Ties break deterministically on (earlier first_seen, key), so the
    ordering is reproducible across runs and platforms.
    """
    # Validate the knobs even when there is nothing to rank - a typo'd
    # --profile must error, not silently print "no incidents".
    profile = resolve_profile(profile)
    if top is not None and top < 1:
        raise IncidentError(f"top must be >= 1: {top}")
    population = list(incidents)
    if not population:
        return []
    max_support = max(i.total_support for i in population)
    max_seen = max(i.intervals_seen for i in population)
    max_votes = max(i.peak_votes for i in population)
    ranked = []
    for incident in population:
        score, components = score_incident(
            incident, profile,
            max_total_support=max_support,
            max_intervals_seen=max_seen,
            max_peak_votes=max_votes,
        )
        ranked.append(RankedIncident(
            incident=incident, score=score, components=components
        ))
    ranked.sort(
        key=lambda r: (
            -r.score, r.incident.first_seen, r.incident.key
        )
    )
    return ranked if top is None else ranked[:top]
