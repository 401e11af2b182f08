"""Sketch-federated multi-vantage-point aggregation.

The "fleet-of-fleets" tier: per-site :class:`Collector`\\ s summarize
each measurement interval as a mergeable :class:`IntervalDigest`
(per feature, the distinct values observed and the exact flow count
of each), and one :class:`Federator` aligns, merges, derives the
histogram clones the KL detectors score, and detects over the combined
view - feeding alarmed intervals into the existing
mining/triage/incident path with exact single-item supports.
Per-site state and inter-site traffic are O(distinct values), not
O(flows), and merged detection is held *exactly* equivalent to
detection over the concatenated trace (``tests/federation``).

See the README's "Federation" section for the architecture diagram
and the wire-format schema.
"""

from __future__ import annotations

from repro.federation.collector import Collector
from repro.federation.digest import (
    DIGEST_VERSION,
    DigestSchema,
    IntervalDigest,
)
from repro.federation.federator import FederatedInterval, Federator
from repro.federation.tier import FederationResult, split_trace

__all__ = [
    "DIGEST_VERSION",
    "Collector",
    "DigestSchema",
    "FederatedInterval",
    "FederationResult",
    "Federator",
    "IntervalDigest",
    "split_trace",
]
