"""Report sinks: where per-interval extraction reports go.

The pipeline pushes every alarmed interval's
:class:`~repro.core.report.ExtractionReport` into a *sink* - the
:class:`~repro.core.pipeline.ReportSink` protocol (``append``), plus the
optional :class:`~repro.core.pipeline.IntervalSink` extension
(``note_interval``) for sinks that track incident lifecycle and must see
clean intervals pass.  The incident store is the persistent sink; this
module holds the two in-process ones:

* :class:`MemorySink` - collects reports in a list;
* :class:`TeeSink` - fans one report stream out to several sinks.
"""

from __future__ import annotations

from repro.core.pipeline import notify_sink_interval
from repro.core.report import ExtractionReport


class MemorySink:
    """Collects reports in memory (``reports`` is a plain list)."""

    def __init__(self) -> None:
        self.reports: list[ExtractionReport] = []
        self.last_interval: int | None = None

    def append(self, report: ExtractionReport) -> None:
        self.reports.append(report)

    def note_interval(self, interval: int) -> None:
        self.last_interval = interval

    def __len__(self) -> int:
        return len(self.reports)

    def __iter__(self):
        return iter(self.reports)


class TeeSink:
    """Fans one report stream out to several sinks.

    Interval notes are forwarded through
    :func:`~repro.core.pipeline.notify_sink_interval`, so mixing
    interval-aware sinks (an incident store) with plain collectors (a
    list) is fine.
    """

    def __init__(self, *sinks: object):
        self._sinks = sinks

    def append(self, report: ExtractionReport) -> None:
        for sink in self._sinks:
            sink.append(report)

    def note_interval(self, interval: int) -> None:
        for sink in self._sinks:
            notify_sink_interval(sink, interval)


__all__ = ["MemorySink", "TeeSink"]
