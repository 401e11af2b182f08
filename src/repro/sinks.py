"""Report sinks: where per-interval extraction reports go.

The pipeline pushes every alarmed interval's
:class:`~repro.core.report.ExtractionReport` into a *sink* - the
:class:`~repro.core.pipeline.ReportSink` protocol (``append``), plus the
optional :class:`~repro.core.pipeline.IntervalSink` extension
(``note_interval``) for sinks that track incident lifecycle and must see
clean intervals pass.  The incident store is the sink that keeps
reports (``IncidentStore(":memory:")`` in process), and a plain ``list``
satisfies the protocol too; this module holds the fan-out,
:class:`TeeSink`.
"""

from __future__ import annotations

from repro.core.pipeline import notify_sink_interval
from repro.core.report import ExtractionReport


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


__all__ = ["TeeSink"]
