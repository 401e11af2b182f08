"""Core anomaly-extraction pipeline (the paper's contribution)."""

from repro.core.config import (
    ExtractionConfig,
    IncidentSettings,
    MiningSettings,
    StreamingSettings,
)
from repro.core.cost import CostCurvePoint, cost_curve, cost_reduction
from repro.core.pipeline import (
    AnomalyExtractor,
    ExtractionResult,
    IntervalSink,
    ReportSink,
    suggest_min_support,
)
from repro.core.prefilter import PrefilterResult, prefilter
from repro.core.report import (
    COMMON_SERVICE_PORTS,
    ExtractionReport,
    TriagedItemset,
    render_itemset_table,
    triage,
    triage_all,
)
from repro.core.session import (
    ExtractionSession,
    StreamExtraction,
    run_session,
)

__all__ = [
    "ExtractionConfig",
    "MiningSettings",
    "StreamingSettings",
    "IncidentSettings",
    "CostCurvePoint",
    "cost_curve",
    "cost_reduction",
    "AnomalyExtractor",
    "ExtractionResult",
    "IntervalSink",
    "ReportSink",
    "suggest_min_support",
    "PrefilterResult",
    "prefilter",
    "ExtractionSession",
    "StreamExtraction",
    "run_session",
    "COMMON_SERVICE_PORTS",
    "ExtractionReport",
    "TriagedItemset",
    "render_itemset_table",
    "triage",
    "triage_all",
]
