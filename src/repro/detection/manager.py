"""Detector bank: the paper's n histogram detectors run side by side.

The evaluation uses five detectors - srcIP, dstIP, srcPort, dstPort and
packets-per-flow (Section II-E).  :class:`DetectorBank` drives one
:class:`~repro.detection.detector.HistogramDetector` per feature over a
trace, collects per-interval reports, and consolidates the per-feature
voted values into the union :class:`~repro.detection.metadata.Metadata`
the prefilter consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.detection.detector import (
    DetectorConfig,
    FeatureObservation,
    HistogramDetector,
)
from repro.detection.features import (
    DETECTOR_FEATURES,
    Feature,
    resolve_features,
)
from repro.detection.metadata import Metadata
from repro.errors import CheckpointError, ConfigError
from repro.flows.stream import iter_intervals
from repro.flows.table import FlowTable
from repro.sketch.histogram import HistogramSnapshot
from repro.state import listof, mapping, read_fields, text


@dataclass(frozen=True)
class IntervalReport:
    """Everything the bank observed in one interval."""

    interval: int
    observations: dict[Feature, FeatureObservation]
    flow_count: int

    @property
    def alarm(self) -> bool:
        """True when any feature's detector alarmed."""
        return any(obs.alarm for obs in self.observations.values())

    @property
    def alarmed_features(self) -> tuple[Feature, ...]:
        return tuple(
            feature
            for feature, obs in self.observations.items()
            if obs.alarm
        )

    def metadata(self) -> Metadata:
        """Union meta-data of all alarmed features (after voting)."""
        meta = Metadata()
        for feature, obs in self.observations.items():
            if obs.alarm and len(obs.voted_values):
                meta.add(feature, obs.voted_values)
        return meta


@dataclass
class DetectionRun:
    """Result of driving a detector bank over a full trace."""

    config: DetectorConfig
    features: tuple[Feature, ...]
    reports: list[IntervalReport] = field(default_factory=list)
    detectors: dict[Feature, HistogramDetector] = field(default_factory=dict)

    @property
    def n_intervals(self) -> int:
        return len(self.reports)

    def report(self, interval: int) -> IntervalReport:
        return self.reports[interval]

    def alarm_intervals(self) -> list[int]:
        """Intervals (post-training) in which any detector alarmed."""
        return [r.interval for r in self.reports if r.alarm]

    def kl_series(self, feature: Feature, clone: int = 0) -> np.ndarray:
        return self.detectors[feature].kl_series(clone)

    def diff_series(self, feature: Feature, clone: int = 0) -> np.ndarray:
        return self.detectors[feature].diff_series(clone)

    def sigma(self, feature: Feature, clone: int = 0) -> float:
        return self.detectors[feature].threshold(clone).sigma

    def alarms_at_multiplier(
        self, feature: Feature, clone: int, multiplier: float
    ) -> np.ndarray:
        """Recompute the alarm mask for an arbitrary threshold multiplier
        from the stored first-difference series (the ROC sweep primitive;
        intervals before training completion never alarm)."""
        detector = self.detectors[feature]
        threshold = detector.threshold(clone).with_multiplier(multiplier)
        diffs = detector.diff_series(clone)
        mask = threshold.alarms(diffs)
        mask[: self.config.training_intervals] = False
        return mask

    def interval_alarm_mask(
        self, multiplier: float, clone: int = 0
    ) -> np.ndarray:
        """Per-interval alarm mask (any feature) at a given sensitivity."""
        mask = np.zeros(self.n_intervals, dtype=bool)
        for feature in self.features:
            mask |= self.alarms_at_multiplier(feature, clone, multiplier)
        return mask


class DetectorBank:
    """Runs one histogram detector per monitored feature."""

    def __init__(
        self,
        config: DetectorConfig | None = None,
        features: tuple[Feature, ...] | str | None = DETECTOR_FEATURES,
        seed: int = 0,
    ):
        # Accepts a feature-set name ("paper", "all", ...),
        # feature names, Feature members, or custom feature objects -
        # see repro.detection.features.resolve_features.
        features = resolve_features(features)
        if not features:
            raise ConfigError("need at least one monitored feature")
        self.config = config or DetectorConfig()
        self.features = features
        self._detectors = {
            feature: HistogramDetector(feature, self.config, seed=seed)
            for feature in features
        }
        self._reports: list[IntervalReport] = []

    @property
    def detectors(self) -> dict[Feature, HistogramDetector]:
        return dict(self._detectors)

    @property
    def reports(self) -> list[IntervalReport]:
        """Per-interval reports observed so far (copy)."""
        return list(self._reports)

    def clear_reports(self) -> None:
        """Drop the stored per-interval reports (detector state - the
        trained histograms and KL series - is untouched).  Long-running
        streams call this to keep memory bounded when no post-hoc
        :class:`DetectionRun` is needed."""
        self._reports.clear()

    def detection_run(self) -> DetectionRun:
        """Snapshot the bank's reports and detectors as a
        :class:`DetectionRun` (the single construction point shared by
        the batch and streaming drivers)."""
        return DetectionRun(
            config=self.config,
            features=self.features,
            reports=self.reports,
            detectors=self.detectors,
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """JSON-safe snapshot of every detector's learned state.

        The accumulated per-interval ``reports`` are NOT serialized -
        they are post-hoc analysis data, unbounded on long streams, and
        the service path runs with ``keep_reports=False`` anyway.  A
        restored bank resumes detection exactly; it does not replay the
        report log.
        """
        return {
            "features": [f.short_name for f in self.features],
            "detectors": {
                feature.short_name: detector.to_state()
                for feature, detector in self._detectors.items()
            },
        }

    def from_state(self, state: dict) -> None:
        """Restore :meth:`to_state` data into this bank (which must be
        configured with the same features, config, and seed)."""
        fields = read_fields(
            "detector-bank checkpoint state", state, CheckpointError,
            features=listof(text), detectors=mapping,
        )
        names = fields["features"]
        expected = [f.short_name for f in self.features]
        if names != expected:
            raise CheckpointError(
                f"detector-bank checkpoint monitors features {names} "
                f"but this bank monitors {expected}; restore with the "
                f"configuration the checkpoint was written under"
            )
        detectors = read_fields(
            "detector table of the bank checkpoint", fields["detectors"],
            CheckpointError, **dict.fromkeys(expected, mapping),
        )
        for feature, detector in self._detectors.items():
            detector.from_state(detectors[feature.short_name])

    def observe(self, flows: FlowTable) -> IntervalReport:
        """Feed one interval to every detector."""
        observations = {
            feature: detector.observe(flows)
            for feature, detector in self._detectors.items()
        }
        return self._record(observations, flow_count=len(flows))

    def observe_snapshots(
        self,
        snapshots: dict[Feature, list[HistogramSnapshot]],
        flow_count: int,
    ) -> IntervalReport:
        """Feed one interval of per-feature clone snapshots.

        The sketch-backed twin of :meth:`observe`: the federation layer
        merges remote collectors' histogram snapshots and drives the
        bank without ever materializing the flows.  ``snapshots`` must
        cover every monitored feature; ``flow_count`` is the combined
        flow count the snapshots summarize.
        """
        missing = [
            feature.short_name
            for feature in self.features
            if feature not in snapshots
        ]
        if missing:
            raise ConfigError(
                f"interval snapshots missing monitored features: "
                f"{', '.join(missing)}"
            )
        observations = {
            feature: detector.observe_snapshots(snapshots[feature])
            for feature, detector in self._detectors.items()
        }
        return self._record(observations, flow_count=flow_count)

    def _record(
        self,
        observations: dict[Feature, FeatureObservation],
        flow_count: int,
    ) -> IntervalReport:
        interval = next(iter(observations.values())).interval
        report = IntervalReport(
            interval=interval,
            observations=observations,
            flow_count=flow_count,
        )
        self._reports.append(report)
        return report

    def run(
        self,
        trace: FlowTable,
        interval_seconds: float,
        origin: float = 0.0,
    ) -> DetectionRun:
        """Window ``trace`` and observe every interval in order."""
        for view in iter_intervals(
            trace, interval_seconds, origin=origin, include_empty=True
        ):
            self.observe(view.flows)
        return self.detection_run()
