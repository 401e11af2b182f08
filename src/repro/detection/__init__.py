"""Histogram-based anomaly detection with cloning and voting."""

from repro.detection.binid import BinIdentification, identify_anomalous_bins
from repro.detection.detector import (
    CloneObservation,
    DetectorConfig,
    FeatureObservation,
    HistogramDetector,
)
from repro.detection.features import (
    DETECTOR_FEATURES,
    MINING_FEATURES,
    Feature,
    parse_feature,
)
from repro.detection.kl import (
    DEFAULT_PSEUDOCOUNT,
    first_difference,
    kl_distance,
    kl_from_counts,
    kl_rows,
)
from repro.detection.manager import DetectionRun, DetectorBank, IntervalReport
from repro.detection.metadata import Metadata
from repro.detection.threshold import (
    DEFAULT_MULTIPLIER,
    MAD_TO_SIGMA,
    AlarmThreshold,
    estimate_threshold,
    mad_sigma,
)
from repro.detection.voting import vote, vote_matrix

__all__ = [
    "BinIdentification",
    "identify_anomalous_bins",
    "CloneObservation",
    "DetectorConfig",
    "FeatureObservation",
    "HistogramDetector",
    "DETECTOR_FEATURES",
    "MINING_FEATURES",
    "Feature",
    "parse_feature",
    "DEFAULT_PSEUDOCOUNT",
    "first_difference",
    "kl_distance",
    "kl_from_counts",
    "kl_rows",
    "DetectionRun",
    "DetectorBank",
    "IntervalReport",
    "Metadata",
    "DEFAULT_MULTIPLIER",
    "MAD_TO_SIGMA",
    "AlarmThreshold",
    "estimate_threshold",
    "mad_sigma",
    "vote",
    "vote_matrix",
]
