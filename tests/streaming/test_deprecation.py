"""ISSUE 5 satellite, re-scoped by ISSUE 12: the `StreamingExtractor`
facade (and its deprecated `run`) is gone; the surviving import path
keeps working and the blessed session paths stay warning-free."""

import warnings

import numpy as np

from repro.core.config import ExtractionConfig
from repro.core.pipeline import AnomalyExtractor
from repro.detection.detector import DetectorConfig

_CONFIG = dict(
    detector=DetectorConfig(
        clones=3, bins=256, vote_threshold=3, training_intervals=16
    ),
    min_support=300,
)


def _chunked(table, rows=700):
    for lo in range(0, len(table), rows):
        yield table.select(np.arange(lo, min(lo + rows, len(table))))


class TestRunDeprecation:
    def test_old_imports_unchanged(self):
        # The historical import path of the stream summary still
        # resolves to the canonical class.
        from repro.core.session import StreamExtraction as Canonical
        from repro.streaming import StreamExtraction

        assert StreamExtraction is Canonical

    def test_blessed_paths_do_not_warn(self, ddos_trace):
        import repro.api as api

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with AnomalyExtractor(
                ExtractionConfig(**_CONFIG), seed=1
            ) as extractor:
                extractor.run_stream(_chunked(ddos_trace.flows), 900.0)
            with api.session(
                ExtractionConfig(**_CONFIG), mode="stream",
                interval_seconds=900.0, seed=1,
            ) as session:
                for chunk in _chunked(ddos_trace.flows):
                    session.feed(chunk)
                session.finish()
