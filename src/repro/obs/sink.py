"""Interval-close metrics snapshots teed to JSONL.

:class:`MetricsSink` implements the report-sink protocol
(:class:`~repro.core.pipeline.ReportSink` +
:class:`~repro.core.pipeline.IntervalSink`) but persists *metrics*, not
reports: every time the pipeline notes a processed interval, the
sink writes one JSON document - ``{"interval": k, "metrics": <canonical
snapshot>}`` - to its target.  Tee it next to a real report sink
(:class:`~repro.sinks.TeeSink`) and a finished run leaves a replayable
telemetry trail alongside its incident store.
"""

from __future__ import annotations

import json
import os
from typing import IO

__all__ = ["MetricsSink"]


class MetricsSink:
    """Write one metrics snapshot per processed interval as JSONL.

    Owns (and closes) the handle only when constructed from a path; use
    as a context manager or call :meth:`close`.

    Args:
        target: path or open text handle for the JSONL stream.
        registry: the :class:`~repro.obs.metrics.MetricsRegistry` to
            snapshot at each interval close.
    """

    def __init__(self, target: str | os.PathLike[str] | IO[str], registry):
        self._owns_handle = isinstance(target, (str, os.PathLike))
        self._handle: IO[str] = (
            open(target, "w") if self._owns_handle else target
        )
        self._registry = registry
        #: Reports that passed through (the sink protocol's append).
        self.appended = 0
        #: Snapshot lines written so far.
        self.snapshots = 0

    def append(self, report: object) -> None:
        """Count a report passing through (reports go to the real sink
        this one is teed with; the metrics trail only needs to know one
        landed)."""
        self.appended += 1

    def note_interval(self, interval: int) -> None:
        document = {
            "interval": int(interval),
            "metrics": self._registry.snapshot(),
        }
        self._handle.write(json.dumps(document, sort_keys=True))
        self._handle.write("\n")
        self.snapshots += 1

    def close(self) -> None:
        if self._owns_handle:
            self._handle.close()

    def __enter__(self) -> "MetricsSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
