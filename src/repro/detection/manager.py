"""Detector bank: the paper's n histogram detectors run side by side.

The evaluation uses five detectors - srcIP, dstIP, srcPort, dstPort and
packets-per-flow (Section II-E).  :class:`DetectorBank` drives one
:class:`~repro.detection.detector.HistogramDetector` per feature over a
trace, collects per-interval reports, and consolidates the per-feature
voted values into the union :class:`~repro.detection.metadata.Metadata`
the prefilter consumes.
"""

from __future__ import annotations

import bisect
import time
from collections.abc import Mapping
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
    value_counts,
)
from repro.detection.metadata import Metadata
from repro.errors import CheckpointError, ConfigError, ExtractionError
from repro.flows.stream import iter_intervals
from repro.flows.table import FlowTable
from repro.sketch.cloning import ValueCounts, clone_counts
from repro.sketch.hashing import HashMatrix
from repro.sketch.histogram import HistogramSnapshot
from repro.state import listof, mapping, read_fields, text


@dataclass(frozen=True)
class IntervalReport:
    """Everything the bank observed in one interval."""

    interval: int
    observations: dict[Feature, FeatureObservation]
    flow_count: int
    #: Seconds the bank spent binning the interval's value counts
    #: (sorting the columns too, on the row path) and scoring the
    #: clone histograms - what the ``stage.detection`` span reports.
    bin_s: float = field(default=0.0, compare=False, repr=False)
    score_s: float = field(default=0.0, compare=False, repr=False)

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
    """Result of driving a detector bank over a full trace.  Every
    series and mask below is read off ``reports``, so a run resumed
    mid-stream covers exactly the intervals it observed."""

    config: DetectorConfig
    features: tuple[Feature, ...]
    reports: list[IntervalReport] = field(default_factory=list)
    detectors: dict[Feature, HistogramDetector] = field(default_factory=dict)

    @property
    def n_intervals(self) -> int:
        return len(self.reports)

    def report(self, interval: int) -> IntervalReport:
        """The report of interval index ``interval``."""
        reports = self.reports
        at = bisect.bisect_left(reports, interval, key=lambda r: r.interval)
        if at < len(reports) and reports[at].interval == interval:
            return reports[at]
        held = f"{reports[0].interval}-{reports[-1].interval}" if reports else "none"
        raise ExtractionError(
            f"interval {interval} is not in this detection run, which "
            f"holds intervals {held}"
        )

    def alarm_intervals(self) -> list[int]:
        """Intervals (post-training) in which any detector alarmed."""
        return [r.interval for r in self.reports if r.alarm]

    def _series(self, feature: Feature, clone: int, what: str) -> np.ndarray:
        return np.array(
            [
                getattr(r.observations[feature].clones[clone], what)
                for r in self.reports
            ],
            dtype=np.float64,
        )

    def kl_series(self, feature: Feature, clone: int = 0) -> np.ndarray:
        """One clone's KL distance per report."""
        return self._series(feature, clone, "kl")

    def diff_series(self, feature: Feature, clone: int = 0) -> np.ndarray:
        """One clone's KL first difference per report."""
        return self._series(feature, clone, "diff")

    def sigma(self, feature: Feature, clone: int = 0) -> float:
        return self.detectors[feature].threshold(clone).sigma

    def alarms_at_multiplier(
        self, feature: Feature, clone: int, multiplier: float
    ) -> np.ndarray:
        """Recompute the alarm mask (one entry per report) for an
        arbitrary threshold multiplier from the reported first
        differences (the ROC sweep primitive; training intervals never
        alarm)."""
        detector = self.detectors[feature]
        threshold = detector.threshold(clone).with_multiplier(multiplier)
        mask = threshold.alarms(self.diff_series(feature, clone))
        intervals = np.array([r.interval for r in self.reports], dtype=int)
        mask[intervals < self.config.training_intervals] = False
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
        # Every feature's clone functions, one column each, drawn once:
        # an interval bins all features with one hash and one bincount.
        self._hashes = HashMatrix(
            [detector.hash_fns for detector in self._detectors.values()]
        )
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
        reference counts and calibration - is untouched).  Long-running
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
        """Feed one interval to every detector: the interval's value
        counts (one sort per column), then :meth:`observe_counts`."""
        started = time.perf_counter()
        return self._observe(
            value_counts(flows, self.features), len(flows), started
        )

    def observe_counts(
        self, counts: Mapping[str, ValueCounts], flow_count: int
    ) -> IntervalReport:
        """Feed one interval as each monitored feature's ``(observed,
        counts)`` - its sorted distinct values and their flow counts,
        keyed by short name (what
        :func:`~repro.detection.features.value_counts` returns and a
        merged federation digest carries).  ``flow_count`` is the
        number of flows they summarize."""
        return self._observe(counts, flow_count, time.perf_counter())

    def _observe(
        self,
        counts: Mapping[str, ValueCounts],
        flow_count: int,
        started: float,
    ) -> IntervalReport:
        names = [feature.short_name for feature in self.features]
        missing = [name for name in names if name not in counts]
        if missing:
            raise ConfigError(
                f"interval value counts missing monitored features: "
                f"{', '.join(missing)}"
            )
        columns = [counts[name] for name in names]
        block, cells = clone_counts(self._hashes, columns)
        binned = time.perf_counter()
        clones = self.config.clones
        observations = {
            feature: detector.observe_binned(
                rows, (observed,) * clones, binned_cells
            )
            for (feature, detector), rows, (observed, _), binned_cells in zip(
                self._detectors.items(), block, columns, cells, strict=True
            )
        }
        return self._record(
            observations,
            flow_count=flow_count,
            bin_s=binned - started,
            score_s=time.perf_counter() - binned,
        )

    def observe_snapshots(
        self,
        snapshots: dict[Feature, list[HistogramSnapshot]],
        flow_count: int,
    ) -> IntervalReport:
        """Feed one interval of per-feature clone snapshots, checked
        against each detector's hash functions, stacked, and scored
        like :meth:`observe_counts` scores its binning.

        A thin adapter: since the federator feeds merged value counts
        to :meth:`observe_counts`, the perf ledger's frozen replay
        (``benchmarks/perf/workloads.py``) is its last caller.
        ``snapshots`` must cover every monitored feature;
        ``flow_count`` is the combined flow count they summarize.
        """
        started = time.perf_counter()
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
        return self._record(
            observations,
            flow_count=flow_count,
            score_s=time.perf_counter() - started,
        )

    def _record(
        self,
        observations: dict[Feature, FeatureObservation],
        flow_count: int,
        bin_s: float = 0.0,
        score_s: float = 0.0,
    ) -> IntervalReport:
        interval = next(iter(observations.values())).interval
        report = IntervalReport(
            interval=interval,
            observations=observations,
            flow_count=flow_count,
            bin_s=bin_s,
            score_s=score_s,
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
        for view in iter_intervals(trace, interval_seconds, origin=origin):
            self.observe(view.flows)
        return self.detection_run()
