"""Push-based execution sessions: the pipeline with a flow source.

:class:`ExtractionSession` is an
:class:`~repro.core.pipeline.AnomalyExtractor` that adds the flow
*source*: chunks go through an
:class:`~repro.streaming.assembler.IntervalAssembler`; completed
intervals are stepped (:meth:`~repro.core.pipeline.AnomalyExtractor.step`,
as :class:`FlowInterval` inputs) as the watermark releases them, results
return from :meth:`~ExtractionSession.feed` incrementally, and
:meth:`~ExtractionSession.finish` drains the tail and returns a
:class:`StreamExtraction` summary.  A stored trace is the same run:
:func:`repro.api.extract` feeds the session the trace's intervals in
order.

Sessions are context managers: ``close()`` releases the incident store
and the metrics trail even when a mid-feed chunk raised (the ``with``
block guarantees the call).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.config import ExtractionConfig
from repro.core.pipeline import AnomalyExtractor, ExtractionResult, ReportSink
from repro.core.prefilter import PrefilterResult, prefilter
from repro.detection.manager import DetectionRun, DetectorBank, IntervalReport
from repro.detection.metadata import Metadata
from repro.errors import CheckpointError, ExtractionError
from repro.flows.stream import (
    DEFAULT_INTERVAL_SECONDS,
    IntervalView,
    iter_intervals,
)
from repro.flows.table import FlowTable
from repro.mining import miners
from repro.mining.streaming import SlidingWindowMiner
from repro.obs.metrics import MetricsRegistry, time_stage
from repro.obs.trace import AnyTracer
from repro.registry import lookup
from repro.state import count, listof, mapping, optional, read_fields, text

if TYPE_CHECKING:
    from repro.streaming.assembler import IntervalAssembler


@dataclass
class StreamExtraction:
    """Everything a finished (or flushed) run produced."""

    extractions: list[ExtractionResult] = field(default_factory=list)
    detection: DetectionRun | None = None
    #: Intervals emitted by the assembler (including empty gaps).
    intervals: int = 0
    #: Flows accepted into intervals (late drops excluded).
    flows: int = 0
    #: Flows dropped because their interval had already been emitted.
    late_dropped: int = 0
    #: Sliding-window mode only: windows mined / skipped by the
    #: incremental candidate screen.
    windows_mined: int = 0
    windows_skipped: int = 0
    #: Total extractions produced.  Always populated - with
    #: ``keep_extractions=False`` the ``extractions`` list stays empty
    #: (emitted results are not retained, so memory stays flat) and
    #: this counter is the only record of how many there were.
    extraction_count: int = 0
    #: Late-drop split: flows predating interval 0 (misconfigured
    #: origin - no lateness tuning recovers them) vs flows whose
    #: interval had already closed past the lateness allowance (raise
    #: ``max_delay_seconds`` to catch these).  Their sum is
    #: :attr:`late_dropped`.
    late_dropped_pre_origin: int = 0
    late_dropped_closed: int = 0

    @property
    def flagged_intervals(self) -> list[int]:
        return [e.interval for e in self.extractions]


class FlowInterval:
    """A closed interval of raw flows: the flow-view step input.

    Detection bins the flows; extraction prefilters them by the voted
    meta-data and mines item-sets - each alarmed interval on its own
    through the configured miner, or, when the session runs
    a sliding window (``window_intervals > 1``), the suspicious flows of
    the last N intervals together.
    """

    __slots__ = ("_flows", "_session")

    def __init__(self, session: "ExtractionSession", flows: FlowTable):
        self._session = session
        self._flows = flows

    def observe(self, bank: DetectorBank) -> IntervalReport:
        report = bank.observe(self._flows)
        session = self._session
        if session._window_miner is not None:
            # Every interval opens a window slot (extract fills it when
            # the interval alarms), so the window keeps tracking the
            # last N *intervals*, not the last N alarms.
            session._window_miner.push(FlowTable.empty())
            session._window_raw_flows.append(len(self._flows))
        return report

    def extract(
        self, report: IntervalReport, metadata: Metadata
    ) -> ExtractionResult | None:
        session = self._session
        miner = session._window_miner
        if miner is None:
            return session.select_and_mine(
                self._flows,
                metadata,
                interval=report.interval,
                alarmed_features=report.alarmed_features,
            )
        mode = session.config.mining.prefilter_mode
        miner.fill(prefilter(self._flows, metadata, mode).flows)
        mining = miner.mine_if_candidates()
        if mining is None:
            session.windows_skipped += 1
            return None
        session.windows_mined += 1
        # The result must describe what was actually mined - the whole
        # window's suspicious flows - not just this interval's share,
        # or the rendered supports would exceed the stated flow counts.
        selected = miner.window_flows()
        return ExtractionResult(
            interval=report.interval,
            metadata=metadata,
            prefilter=PrefilterResult(
                flows=selected,
                mode=mode,
                input_flows=sum(session._window_raw_flows),
                selected_flows=len(selected),
            ),
            mining=mining,
            alarmed_features=report.alarmed_features,
            window_intervals=len(session._window_raw_flows),
        )


class ExtractionSession(AnomalyExtractor):
    """One push-based run of the extraction pipeline: an
    :class:`~repro.core.pipeline.AnomalyExtractor` with a flow source.

    Usage::

        with repro.api.session(config, interval_seconds=900.0) as s:
            for chunk in iter_csv("trace.csv"):
                for extraction in s.feed(chunk):
                    print(extraction.render())
            summary = s.finish()

    The arguments are the extractor's.  ``origin`` is the time of
    interval 0 (a stream cannot infer it; the drivers default to 0.0);
    ``keep_reports`` lets :meth:`result` attach a
    :class:`~repro.detection.manager.DetectionRun` (set False for
    unbounded streams: ``result().detection`` is then ``None``).
    """

    def __init__(
        self,
        config: ExtractionConfig | None = None,
        seed: int = 0,
        metrics: MetricsRegistry | None = None,
        pipeline: str = "default",
        tracer: AnyTracer | None = None,
        interval_seconds: float = DEFAULT_INTERVAL_SECONDS,
        origin: float = 0.0,
        sink: ReportSink | None = None,
        keep_reports: bool = True,
    ):
        # Imported lazily: repro.streaming itself imports this module,
        # and a module-level import would close the cycle.
        from repro.streaming.assembler import IntervalAssembler

        super().__init__(
            config,
            seed=seed,
            metrics=metrics,
            pipeline=pipeline,
            tracer=tracer,
            interval_seconds=interval_seconds,
            origin=origin,
            sink=sink,
            keep_reports=keep_reports,
        )
        streaming = self.config.streaming
        #: Sliding-window state of the flow input
        #: (``window_intervals > 1``): the miner, and the raw
        #: per-interval sizes of the current window, mirroring the
        #: miner's batches, so window-mode reports can state the true
        #: input-flow count.
        self._window_miner: SlidingWindowMiner | None = None
        self._window_raw_flows: deque[int] = deque(
            maxlen=streaming.window_intervals
        )
        self.windows_mined = 0
        self.windows_skipped = 0
        try:
            # Refuses a bad interval grid before the session opens its
            # span; the store and the trail already open are released.
            self.assembler: IntervalAssembler = IntervalAssembler(
                interval_seconds,
                origin=origin,
                max_delay_seconds=streaming.max_delay_seconds,
                max_pending_intervals=streaming.max_pending_intervals,
                instruments=self.instruments,
                tracer=self.tracer,
            )
            if streaming.window_intervals > 1:
                self._window_miner = SlidingWindowMiner(
                    window=streaming.window_intervals,
                    min_support=self.config.mining.min_support,
                    miner=lookup("miner", miners, self.config.mining.miner),
                    maximal_only=self.config.mining.maximal_only,
                )
        except BaseException:
            super().close()
            raise
        # The run's root span: parents under the ambient span when one
        # is active (the fleet's root), else starts a new trace.  Ended
        # at finish()/close(), re-activated around every feed so the
        # per-interval trees nest under it.
        self._span = self.tracer.span(
            "session.run", pipeline=self.instruments.pipeline
        )
        self._closed = False
        self._finished = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def finished(self) -> bool:
        return self._finished

    def close(self) -> None:
        """Release the session's resources (idempotent): the metrics
        trail and the incident store, each even when the other's
        release raises, and even when the session is being torn down
        because a mid-feed chunk raised."""
        if self._closed:
            return
        self._closed = True
        self._span.end()
        super().close()

    def __enter__(self) -> "ExtractionSession":
        return self

    def _check_open(self, verb: str) -> None:
        if self._closed:
            raise ExtractionError(f"cannot {verb}: session is closed")
        if self._finished:
            raise ExtractionError(f"cannot {verb}: session already finished")

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def feed(self, chunk: FlowTable) -> list[ExtractionResult]:
        """Push one chunk of flows into the pipeline; returns the
        extractions of the intervals the chunk completed (most chunks
        complete none or one)."""
        self._check_open("feed")
        with self._span.active(), time_stage(
            self.instruments.stage_binning
        ), self._tracer.span("stage.binning", rows=len(chunk)):
            views = self.assembler.push(chunk)
        return self._step_views(views)

    def flush(self) -> list[ExtractionResult]:
        """Emit the trailing intervals kept open by the lateness
        allowance and return their extractions, without ending the
        session."""
        self._check_open("flush")
        with self._span.active(), time_stage(
            self.instruments.stage_binning
        ), self._tracer.span("stage.binning", rows=0):
            views = self.assembler.flush()
        return self._step_views(views)

    def finish(self) -> StreamExtraction:
        """Flush, seal the session, and return the run's result.

        Further :meth:`feed` calls raise; :meth:`result` stays
        readable.
        """
        self._check_open("finish")
        self.flush()
        self._finished = True
        self._span.end()
        return self.result()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def result(self) -> StreamExtraction:
        """Snapshot of the run so far (callable mid-stream)."""
        detection = None
        if self.keep_reports:
            detection = self._bank.detection_run()
        return StreamExtraction(
            extractions=list(self.extractions),
            detection=detection,
            intervals=self.assembler.intervals_emitted,
            flows=self.assembler.flows_seen,
            late_dropped=self.assembler.late_dropped,
            windows_mined=self.windows_mined,
            windows_skipped=self.windows_skipped,
            extraction_count=self.extraction_count,
            late_dropped_pre_origin=self.assembler.late_dropped_pre_origin,
            late_dropped_closed=self.assembler.late_dropped_closed,
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """JSON-safe snapshot of the session's resume state.

        Covers everything a resumed process needs to continue the
        stream byte-identically: the assembler's pending bins and
        watermark, the sliding-window miner context, the detector
        bank's learned state, and the session's own progress counters.
        The retained ``extractions`` list and detector reports are NOT
        serialized - they are post-hoc conveniences, and the durable
        record of emitted reports is the sink (incident store).
        """
        self._check_open("checkpoint")
        return {
            # The one session mode; the document still names it.
            "mode": "stream",
            "assembler": self.assembler.to_state(),
            "window_miner": (
                None
                if self._window_miner is None
                else self._window_miner.to_state()
            ),
            "window_raw_flows": list(self._window_raw_flows),
            "extraction_count": self.extraction_count,
            "windows_mined": self.windows_mined,
            "windows_skipped": self.windows_skipped,
            "detectors": self._bank.to_state(),
        }

    def from_state(self, state: dict) -> None:
        """Restore :meth:`to_state` data into this freshly built
        session (same config, seed, and windowing as the
        checkpointed one).

        Restoring also arms the resume floor: reports for intervals the
        sink already covers (its ``last_interval`` marker) are treated
        as replays and skipped, so re-feeding the stream from the last
        checkpointed position continues mid-stream instead of tripping
        the store's re-ingest guard.
        """
        self._check_open("restore")
        if self.extraction_count or self.assembler.intervals_emitted or (
            self.assembler.flows_seen
        ):
            raise CheckpointError(
                "restore into a fresh session: this one has already "
                "processed data"
            )
        fields = read_fields(
            "session checkpoint state", state, CheckpointError,
            mode=text,
            assembler=mapping,
            window_miner=optional(mapping),
            window_raw_flows=listof(count),
            extraction_count=count,
            windows_mined=count,
            windows_skipped=count,
            detectors=mapping,
        )
        if fields["mode"] != "stream":
            raise CheckpointError(
                f"session checkpoint state must carry mode='stream', "
                f"got {fields['mode']!r}"
            )
        miner_state = fields["window_miner"]
        if (miner_state is None) != (self._window_miner is None):
            raise CheckpointError(
                "session checkpoint window mode does not match this "
                "session's window_intervals; restore with the "
                "configuration the checkpoint was written under"
            )
        self.assembler.from_state(fields["assembler"])
        if self._window_miner is not None:
            self._window_miner.from_state(miner_state)
        self._window_raw_flows.clear()
        self._window_raw_flows.extend(fields["window_raw_flows"])
        self.extraction_count = fields["extraction_count"]
        self.windows_mined = fields["windows_mined"]
        self.windows_skipped = fields["windows_skipped"]
        self._bank.from_state(fields["detectors"])
        self.arm_resume_floor()

    def _step_views(
        self, views: Iterable[IntervalView]
    ) -> list[ExtractionResult]:
        """Hand a source's closed intervals to the step, in order."""
        results = []
        with self._span.active():
            for view in views:
                extraction = self.step(FlowInterval(self, view.flows))
                if extraction is not None:
                    results.append(extraction)
        return results


def run_session(
    session: ExtractionSession,
    chunks: Iterable[FlowTable],
) -> StreamExtraction:
    """Feed a whole chunk iterable through ``session`` and finish it."""
    for chunk in chunks:
        session.feed(chunk)
    return session.finish()


def run_trace(session: ExtractionSession, trace: FlowTable) -> StreamExtraction:
    """Feed a stored trace through ``session`` one interval at a time,
    in interval order, and finish it.  The trace is windowed before it
    is fed, so no flow is ever late, whatever its row order."""
    return run_session(
        session,
        (
            view.flows
            for view in iter_intervals(
                trace,
                session.interval_seconds,
                origin=session.origin,
                include_empty=False,
            )
        ),
    )


__all__ = [
    "ExtractionSession",
    "FlowInterval",
    "StreamExtraction",
    "run_session",
    "run_trace",
]
