"""repro - Anomaly extraction in backbone networks using association rules.

A complete, from-scratch reproduction of Brauckhoff, Dimitropoulos,
Wagner & Salamatian (ACM IMC 2009 / IEEE ToN 2012): histogram-based
anomaly detection with randomized histogram clones and voting, union
flow prefiltering, and modified-Apriori frequent item-set mining that
summarizes the anomalous flows of a flagged interval into a handful of
maximal item-sets.

Quickstart::

    import repro.api
    from repro.traffic import two_day_trace

    trace = two_day_trace()
    result = repro.api.extract(
        trace.flows, min_support=400,
        interval_seconds=trace.interval_seconds,
    )
    for extraction in result.extractions:
        print(extraction.render())

README.md maps every paper artifact to the module that reproduces it
("Paper mapping") and holds the measured performance ("Performance");
``benchmarks/bench_*.py`` assert the paper's tables and figures.
"""

import importlib.metadata as _importlib_metadata

from repro.core import (
    AnomalyExtractor,
    ExtractionConfig,
    ExtractionReport,
    ExtractionResult,
    IncidentSettings,
    MiningSettings,
    StreamExtraction,
    StreamingSettings,
    suggest_min_support,
)
from repro.detection import DetectorBank, DetectorConfig, Feature, Metadata
from repro.errors import (
    ConfigError,
    DetectionError,
    ExtractionError,
    FlowError,
    MiningError,
    RegistryError,
    ReproError,
    TraceFormatError,
)
from repro.flows import FlowRecord, FlowTable
from repro.mining import FrequentItemset, TransactionSet, apriori, eclat, fpgrowth

try:
    # Single source of truth: the installed distribution's version
    # (pyproject.toml).  The fallback covers PYTHONPATH=src checkouts
    # that never ran pip install; keep it in sync with pyproject.toml.
    __version__ = _importlib_metadata.version("repro-anomaly-extraction")
except _importlib_metadata.PackageNotFoundError:  # pragma: no cover
    __version__ = "1.0.0"

__all__ = [
    "AnomalyExtractor",
    "ExtractionConfig",
    "MiningSettings",
    "StreamingSettings",
    "IncidentSettings",
    "ExtractionReport",
    "ExtractionResult",
    "StreamExtraction",
    "suggest_min_support",
    "DetectorBank",
    "DetectorConfig",
    "Feature",
    "Metadata",
    "FlowRecord",
    "FlowTable",
    "FrequentItemset",
    "TransactionSet",
    "apriori",
    "fpgrowth",
    "eclat",
    "ReproError",
    "FlowError",
    "TraceFormatError",
    "ConfigError",
    "RegistryError",
    "DetectionError",
    "MiningError",
    "ExtractionError",
    "__version__",
]
