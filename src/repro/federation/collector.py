"""The per-site collector: flows in, interval digests out.

A :class:`Collector` runs at each vantage point and replaces the
O(flows) per-link pipeline state with O(sketch) summaries: every
completed interval becomes one
:class:`~repro.federation.digest.IntervalDigest`.  The collector's
clone hash streams derive from ``(seed, feature)`` exactly like the
federator's :class:`~repro.detection.detector.HistogramDetector`
clones (:func:`~repro.detection.detector.clone_seed`), which is the
precondition for the federator's merged detection being *exact* -
not approximate - relative to a detector fed the concatenated trace.
"""

from __future__ import annotations

from repro.detection.detector import DetectorConfig, clone_seed
from repro.detection.features import Feature
from repro.federation.digest import (
    DEFAULT_CM_DEPTH,
    DEFAULT_CM_WIDTH,
    DigestSchema,
    IntervalDigest,
    countmin_seed,
    federation_features,
)
from repro.flows.stream import DEFAULT_INTERVAL_SECONDS, iter_intervals
from repro.flows.table import FlowTable
from repro.obs.trace import NULL_TRACER, AnyTracer, Tracer
from repro.sketch.cloning import CloneSet
from repro.sketch.countmin import CountMinSketch
from repro.sketch.distinct import sorted_distinct


class Collector:
    """Summarizes one site's intervals into mergeable digests."""

    def __init__(
        self,
        site: str,
        config: DetectorConfig | None = None,
        features: tuple[Feature, ...] | str | None = None,
        seed: int = 0,
        cm_width: int = DEFAULT_CM_WIDTH,
        cm_depth: int = DEFAULT_CM_DEPTH,
        tracer: Tracer | None = None,
    ) -> None:
        from repro.errors import FederationError

        if not site or not isinstance(site, str):
            raise FederationError(f"site must be a non-empty name: {site!r}")
        self.site = site
        self.config = config or DetectorConfig()
        self.features = federation_features(features)
        self.seed = seed
        self.schema = DigestSchema.build(
            self.config, self.features, seed, cm_width, cm_depth
        )
        self._tracer: AnyTracer = tracer if tracer is not None else NULL_TRACER
        # One clone set per feature, seeded exactly like the detector
        # bank's clones; reset and refilled per interval.
        self._clones = {
            feature: CloneSet(
                self.config.clones,
                self.config.bins,
                seed=clone_seed(seed, feature),
            )
            for feature in self.features
        }

    def _fresh_countmin(self, feature: Feature) -> CountMinSketch:
        return CountMinSketch(
            width=self.schema.cm_width,
            depth=self.schema.cm_depth,
            seed=countmin_seed(self.seed, feature),
        )

    def summarize(self, flows: FlowTable, interval: int) -> IntervalDigest:
        """Digest one interval's flows."""
        with self._tracer.span(
            "federation.summarize", site=self.site, interval=interval
        ):
            snapshots = {}
            countmin = {}
            for feature in self.features:
                # One sort of the column serves the clones and the
                # count-min alike.
                distinct, run_lengths = sorted_distinct(
                    feature.extract(flows)
                )
                clones = self._clones[feature]
                clones.reset()
                clones.update_distinct(distinct, run_lengths)
                snapshots[feature.short_name] = clones.snapshots()
                sketch = self._fresh_countmin(feature)
                sketch.update_distinct(distinct, run_lengths)
                countmin[feature.short_name] = sketch
            return IntervalDigest(
                schema=self.schema,
                interval=interval,
                sites=(self.site,),
                flow_count=len(flows),
                snapshots=snapshots,
                countmin=countmin,
            )

    def empty_digest(self, interval: int) -> IntervalDigest:
        """Digest of an interval with no flows (gap filler: keeps the
        federated KL series contiguous, like ``include_empty`` does
        for local detection)."""
        snapshots = {}
        countmin = {}
        for feature in self.features:
            clones = self._clones[feature]
            clones.reset()
            snapshots[feature.short_name] = clones.snapshots()
            countmin[feature.short_name] = self._fresh_countmin(feature)
        return IntervalDigest(
            schema=self.schema,
            interval=interval,
            sites=(self.site,),
            flow_count=0,
            snapshots=snapshots,
            countmin=countmin,
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
            for view in iter_intervals(
                trace, interval_seconds, origin=origin, include_empty=True
            )
        ]
