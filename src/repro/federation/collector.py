"""The per-site collector: flows in, interval digests out.

A :class:`Collector` runs at each vantage point and replaces the
O(flows) per-link pipeline state with O(distinct values) summaries:
every completed interval becomes one
:class:`~repro.federation.digest.IntervalDigest` of per-feature value
counts, one column sort each and no hashing.  The digest's schema
carries the run seed, from which the federator derives the same clone
hash functions as a :class:`~repro.detection.detector.HistogramDetector`
(:func:`~repro.detection.detector.clone_seed`) - the precondition for
the federator's merged detection being *exact*, not approximate,
relative to a detector fed the concatenated trace.
"""

from __future__ import annotations

import numpy as np

from repro.detection.detector import DetectorConfig
from repro.detection.features import Feature, value_counts
from repro.federation.digest import (
    DigestSchema,
    IntervalDigest,
    federation_features,
)
from repro.flows.stream import DEFAULT_INTERVAL_SECONDS, iter_intervals
from repro.flows.table import FlowTable
from repro.obs.trace import NULL_TRACER, AnyTracer, Tracer


class Collector:
    """Summarizes one site's intervals into mergeable digests."""

    def __init__(
        self,
        site: str,
        config: DetectorConfig | None = None,
        features: tuple[Feature, ...] | str | None = None,
        seed: int = 0,
        tracer: Tracer | None = None,
    ) -> None:
        from repro.errors import FederationError

        if not site or not isinstance(site, str):
            raise FederationError(f"site must be a non-empty name: {site!r}")
        self.site = site
        self.config = config or DetectorConfig()
        self.features = federation_features(features)
        self.schema = DigestSchema.build(self.config, self.features, seed)
        self._tracer: AnyTracer = tracer if tracer is not None else NULL_TRACER

    def summarize(self, flows: FlowTable, interval: int) -> IntervalDigest:
        """Digest one interval's flows: one sort per feature column."""
        with self._tracer.span(
            "federation.summarize", site=self.site, interval=interval
        ):
            return IntervalDigest(
                schema=self.schema,
                interval=interval,
                sites=(self.site,),
                flow_count=len(flows),
                value_counts=value_counts(flows, self.features),
            )

    def empty_digest(self, interval: int) -> IntervalDigest:
        """Digest of an interval with no flows (gap filler: keeps the
        federated KL series contiguous, like the empty views of
        :func:`~repro.flows.stream.iter_intervals` do for local
        detection)."""
        empty = (np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64))
        return IntervalDigest(
            schema=self.schema,
            interval=interval,
            sites=(self.site,),
            flow_count=0,
            value_counts=dict.fromkeys(self.schema.features, empty),
        )

    def run(
        self,
        trace: FlowTable,
        interval_seconds: float = DEFAULT_INTERVAL_SECONDS,
        origin: float = 0.0,
    ) -> list[IntervalDigest]:
        """Digest a whole trace, one digest per interval.

        ``origin`` defaults to 0.0 - NOT to the trace's earliest flow -
        because federated sites must agree on interval boundaries; a
        per-site origin would shear the interval grid across sites.
        """
        return [
            self.summarize(view.flows, view.index)
            for view in iter_intervals(trace, interval_seconds, origin=origin)
        ]
