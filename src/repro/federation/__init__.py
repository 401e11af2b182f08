"""Sketch-federated multi-vantage-point aggregation.

The "fleet-of-fleets" tier: per-site :class:`Collector`\\ s summarize
each measurement interval as a mergeable :class:`IntervalDigest`
(histogram-clone snapshots for KL detection plus a count-min sketch
per feature for support estimation), and one :class:`Federator`
aligns, merges, and detects over the combined view - feeding alarmed
intervals into the existing mining/triage/incident path.  Per-site
state and inter-site traffic are O(sketch), not O(flows), and merged
detection is held *exactly* equivalent to detection over the
concatenated trace (``tests/federation``).

See the README's "Federation" section for the architecture diagram,
wire-format schema, and error-bound statement.
"""

from __future__ import annotations

from repro.federation.collector import Collector
from repro.federation.digest import (
    DEFAULT_CM_DEPTH,
    DEFAULT_CM_WIDTH,
    DIGEST_VERSION,
    DigestSchema,
    IntervalDigest,
    countmin_seed,
)
from repro.federation.federator import FederatedInterval, Federator
from repro.federation.tier import FederationResult, split_trace

__all__ = [
    "DEFAULT_CM_DEPTH",
    "DEFAULT_CM_WIDTH",
    "DIGEST_VERSION",
    "Collector",
    "DigestSchema",
    "FederatedInterval",
    "FederationResult",
    "Federator",
    "IntervalDigest",
    "countmin_seed",
    "split_trace",
]
