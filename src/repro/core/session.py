"""Push-based execution sessions around the single interval step.

The paper's Fig. 3 is one pipeline, and this module holds its one
per-interval orchestration - :meth:`IntervalSpine.step`::

    sources (closed intervals)        step                    sinks
    batch windowing    --+                               +--> incident store
    IntervalAssembler  --+--> detect -> gate -> extract -+--> JSONL / memory
    Federator merge    --+        -> report -> age       +--> metrics trail

The step owns everything that is not input-specific: the interval /
flow / alarm / extraction counters, the ``stage.detection`` /
``stage.mining`` / ``stage.triage`` spans and histograms, the alarm and
empty-meta-data gates, result and lazy-report bookkeeping, the sink
push (under the resume floor), incident ageing (``note_interval``) and
detector-report retention.  What *is* input-specific hides behind the
two-method :class:`IntervalInput` protocol: :class:`FlowInterval` here
(raw flows: prefilter + item-set mining) and
:class:`~repro.federation.federator.MergedInterval` (merged digests:
exact single-item supports).

:class:`ExtractionSession` adds the two flow *sources* on top:

* ``mode="batch"`` - :meth:`ExtractionSession.feed` accumulates chunks;
  :meth:`ExtractionSession.finish` windows the whole trace with
  :func:`~repro.flows.stream.iter_intervals` and steps every interval,
  returning a :class:`~repro.core.pipeline.TraceExtraction`.
* ``mode="stream"`` - chunks go through an
  :class:`~repro.streaming.assembler.IntervalAssembler`; completed
  intervals are stepped as the watermark releases them, results return
  from :meth:`feed` incrementally, and :meth:`finish` drains the tail
  and returns a :class:`StreamExtraction` summary.

Sessions are context managers.  Created via
:meth:`AnomalyExtractor.session` they *borrow* the extractor (closing
the session leaves it open); created via :func:`repro.api.session`
they *own* it, and ``close()`` releases the extractor's incident store
even when a mid-feed chunk raised (the ``with`` block guarantees the
call).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Protocol

from repro.core.config import ExtractionConfig
from repro.core.pipeline import (
    AnomalyExtractor,
    ExtractionResult,
    ReportSink,
    TraceExtraction,
    notify_sink_interval,
)
from repro.core.prefilter import PrefilterResult, prefilter
from repro.core.report import ExtractionReport
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

#: The two execution modes a session can run in.
SESSION_MODES = ("batch", "stream")


@dataclass
class StreamExtraction:
    """Everything a finished (or flushed) streaming run produced."""

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
    #: (emitted results are evicted to keep memory flat) and this
    #: counter is the only record of how many there were.
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


class IntervalInput(Protocol):
    """One closed measurement interval, whatever form it arrived in.

    The protocol hides a format and an algorithm: how the detector bank
    gets to see the interval, and how an alarmed interval's voted
    meta-data becomes item-sets.  Everything else about an interval is
    :meth:`IntervalSpine.step`'s business.
    """

    def observe(self, bank: DetectorBank) -> IntervalReport:
        """Run the detector bank over this interval."""
        ...

    def extract(
        self, report: IntervalReport, metadata: Metadata
    ) -> ExtractionResult | None:
        """Mine the alarmed interval (``metadata`` is non-empty); None
        when nothing clears the support floor."""
        ...


class IntervalSpine:
    """The one per-interval step of the pipeline, shared by every
    source of closed intervals.

    Args:
        extractor: the :class:`AnomalyExtractor` whose detector bank,
            instruments and tracer the step drives.
        interval_seconds / origin: the interval grid (report bounds).
        sink: optional report sink (anything with
            ``append(ExtractionReport)``).
        keep_reports: retain per-interval detector reports in the bank;
            False drops them after each step so memory stays flat.
        keep_extractions: retain every :class:`ExtractionResult`; False
            pins only the results of the most recent step batch.
    """

    def __init__(
        self,
        extractor: AnomalyExtractor,
        interval_seconds: float = DEFAULT_INTERVAL_SECONDS,
        origin: float = 0.0,
        sink: ReportSink | None = None,
        keep_reports: bool = True,
        keep_extractions: bool = True,
    ):
        self._extractor = extractor
        self._tracer = extractor.tracer
        self.interval_seconds = interval_seconds
        self.origin = origin
        self._sink = sink
        self.keep_reports = keep_reports
        self.keep_extractions = keep_extractions
        self.extraction_count = 0
        #: With ``keep_extractions=False``: the extractions emitted by
        #: the most recent step batch (one feed/flush call, one
        #: :meth:`step`), pinned until the next so the caller can
        #: render them and ``report_for`` stays valid for exactly that
        #: window (id-keyed state must never outlive its object).
        self._recent: list[ExtractionResult] = []
        self.extractions: list[ExtractionResult] = []
        #: Per-extraction report, keyed by object identity (safe:
        #: ``extractions``/``_recent`` pin the objects): None until
        #: :meth:`report_for` builds it.  Sink-less runs never pay for
        #: reports nothing reads.
        self._report_state: dict[int, ExtractionReport | None] = {}
        #: Set by :meth:`arm_resume_floor`: intervals at or below this
        #: index are already durable in the sink (persisted before the
        #: crash a checkpoint recovers from), so their re-processed
        #: reports are recognized as replays and skipped instead of
        #: tripping the store's re-ingest guard.
        self._resume_floor: int | None = None

    @property
    def extractor(self) -> AnomalyExtractor:
        return self._extractor

    @property
    def sink(self) -> ReportSink | None:
        """The report sink the step pushes to (may be None)."""
        return self._sink

    def report_for(self, extraction: ExtractionResult) -> ExtractionReport:
        """The serializable report of an extraction this spine
        produced (the very object the sink received, when a sink is
        attached) - bounds cover the mined window, not just the
        triggering interval.  Built lazily and cached, so runs whose
        reports nothing reads never pay for their construction."""
        key = id(extraction)
        if key not in self._report_state:
            raise ExtractionError(
                "unknown extraction: report_for only serves results "
                "produced by this session"
            )
        report = self._report_state[key]
        if report is None:
            report = self._report_state[key] = ExtractionReport.from_result(
                extraction, self.interval_seconds, self.origin
            )
        return report

    def arm_resume_floor(self) -> None:
        """Treat reports the durable sink already covers (its
        ``last_interval`` marker) as replays: a restored run re-fed
        from its last checkpointed position continues mid-stream
        instead of tripping the store's re-ingest guard."""
        store = self._extractor.store
        if store is not None:
            self._resume_floor = store.last_interval()
            return
        last = getattr(self._sink, "last_interval", None)
        marker = last() if callable(last) else None
        self._resume_floor = None if marker is None else int(marker)

    # ------------------------------------------------------------------
    # The one orchestration path
    # ------------------------------------------------------------------
    def step(self, interval_input: IntervalInput) -> ExtractionResult | None:
        """Run one closed interval through detect -> gate -> extract ->
        report -> sink; returns its extraction, or None for a clean (or
        unusable-alarm) interval."""
        self._evict_recent()
        return self._advance(interval_input)

    def _evict_recent(self) -> None:
        """A new step batch begins: the previous one has been consumed,
        so (``keep_extractions=False``) evict its extractions and their
        report state - each result pins its prefiltered FlowTable."""
        for old in self._recent:
            self._report_state.pop(id(old), None)
        self._recent.clear()

    def _advance(
        self, interval_input: IntervalInput
    ) -> ExtractionResult | None:
        ins = self._extractor.instruments
        bank = self._extractor.detector_bank
        with self._tracer.span("session.interval") as interval_span:
            ins.intervals.inc()
            with time_stage(ins.stage_detection), self._tracer.span(
                "stage.detection"
            ) as span:
                report = interval_input.observe(bank)
                span.set_attribute("flows", report.flow_count)
                span.set_attribute("alarm", report.alarm)
                span.set_attribute("bin_s", report.bin_s)
                span.set_attribute("score_s", report.score_s)
                if report.alarm:
                    # Why this close took longer than a clean one: how
                    # many clones ran a bin identification, and how
                    # many cleaning rounds those took together.
                    observed = report.observations.values()
                    span.set_attribute(
                        "alarm_votes",
                        sum(obs.alarm_votes for obs in observed),
                    )
                    span.set_attribute(
                        "binid_rounds",
                        sum(
                            len(clone.bins)
                            for obs in observed
                            for clone in obs.clones
                        ),
                    )
            ins.flows.inc(report.flow_count)
            interval_span.set_attribute("interval", report.interval)
            interval_span.set_attribute("flows", report.flow_count)
            extraction = None
            if report.alarm:
                ins.alarmed.inc()
                metadata = report.metadata()
                # An alarm whose voted meta-data is empty cannot drive
                # extraction; the paper's V-of-K voting intentionally
                # trades these away.
                if not metadata.is_empty():
                    extraction = self._extractor.mining_stage(
                        report.flow_count,
                        lambda: interval_input.extract(report, metadata),
                    )
            if extraction is not None:
                interval_span.set_attribute(
                    "itemsets", len(extraction.itemsets)
                )
                self.extraction_count += 1
                if self.keep_extractions:
                    self.extractions.append(extraction)
                else:
                    self._recent.append(extraction)
                self._report_state[id(extraction)] = None
                replayed = (
                    self._resume_floor is not None
                    and extraction.interval <= self._resume_floor
                )
                if self._sink is not None and not replayed:
                    # Triage = report construction + sink push.
                    with time_stage(ins.stage_triage), self._tracer.span(
                        "stage.triage"
                    ):
                        self._sink.append(self.report_for(extraction))
            if not self.keep_reports:
                bank.clear_reports()
        # Clean intervals leave no report but must still age incidents.
        notify_sink_interval(self._sink, report.interval)
        return extraction


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
            return session.extractor.select_and_mine(
                self._flows,
                metadata,
                interval=report.interval,
                alarmed_features=report.alarmed_features,
            )
        mode = session.config.prefilter_mode
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


class ExtractionSession(IntervalSpine):
    """One push-based run of the extraction pipeline.

    Usage::

        with repro.api.session(config, interval_seconds=900.0) as s:
            for chunk in iter_csv("trace.csv"):
                for extraction in s.feed(chunk):
                    print(extraction.render())
            summary = s.finish()

    Args:
        extractor: the :class:`AnomalyExtractor` whose detector bank
            and store the session drives - and owns: :meth:`close`
            releases them (:func:`open_session` builds both together).
        mode: "batch" (results at :meth:`finish`, whole-trace
            windowing) or "stream" (incremental results from
            :meth:`feed`, watermark windowing).
        interval_seconds: measurement interval length ``L``.
        origin: time of interval 0 (streaming cannot infer it; the
            batch drivers default to 0.0).
        sink: optional report sink (anything with
            ``append(ExtractionReport)``); defaults to the extractor's
            open incident store, when one is configured.
        keep_reports: retain per-interval detector reports so
            :meth:`result` can attach a
            :class:`~repro.detection.manager.DetectionRun`.  Set False
            for unbounded streams; memory stays flat and
            ``result().detection`` is ``None``.

    In batch mode every interval is mined on its own (the
    sliding-window knob only applies to streams) and every extraction
    is retained regardless of ``streaming.keep_extractions`` (the
    caller holds the whole trace in memory anyway).
    """

    def __init__(
        self,
        extractor: AnomalyExtractor,
        mode: str = "stream",
        interval_seconds: float = DEFAULT_INTERVAL_SECONDS,
        origin: float = 0.0,
        sink: ReportSink | None = None,
        keep_reports: bool = True,
    ):
        if mode not in SESSION_MODES:
            raise ExtractionError(
                f"unknown session mode {mode!r}; "
                f"choose from {SESSION_MODES}"
            )
        if mode == "batch" and interval_seconds <= 0:
            raise ExtractionError(
                f"interval length must be positive: {interval_seconds}"
            )
        self.mode = mode
        self.config = extractor.config
        # The run's root span: parents under the ambient span when one
        # is active (the fleet's root), else starts a new trace.  Ended
        # at finish()/close(), re-activated around every feed so the
        # per-interval trees nest under it.
        self._span = extractor.tracer.span(
            "session.run",
            mode=mode,
            pipeline=extractor.instruments.pipeline,
        )
        if sink is None:
            sink = extractor.store
        # With observability on and a telemetry path configured, tee an
        # owned MetricsSink next to the report sink: one snapshot per
        # processed interval lands in the JSONL trail.
        self._metrics_sink = None
        if self.config.obs_enabled and self.config.obs.jsonl_path:
            from repro.obs.sink import MetricsSink
            from repro.sinks import TeeSink

            self._metrics_sink = MetricsSink(
                self.config.obs.jsonl_path, extractor.metrics
            )
            sink = (
                TeeSink(sink, self._metrics_sink)
                if sink is not None
                else self._metrics_sink
            )
        super().__init__(
            extractor,
            interval_seconds=interval_seconds,
            origin=origin,
            sink=sink,
            keep_reports=keep_reports,
            # Batch mode retains everything.
            keep_extractions=(
                mode == "batch" or self.config.keep_extractions
            ),
        )
        self._closed = False
        self._finished = False
        #: Batch mode: chunks held until :meth:`finish` windows them.
        self._pending: list[FlowTable] = []
        self.assembler: IntervalAssembler | None = None
        #: Sliding-window state of the flow input (stream mode with
        #: ``window_intervals > 1``): the miner, and the raw
        #: per-interval sizes of the current window, mirroring the
        #: miner's batches, so window-mode reports can state the true
        #: input-flow count.
        self._window_miner: SlidingWindowMiner | None = None
        self._window_raw_flows: deque[int] = deque(
            maxlen=self.config.window_intervals
        )
        self.windows_mined = 0
        self.windows_skipped = 0
        if mode == "stream":
            # Imported lazily: repro.streaming itself imports this
            # module, and a module-level import would close the cycle.
            from repro.streaming.assembler import IntervalAssembler

            self.assembler = IntervalAssembler(
                interval_seconds,
                origin=origin,
                max_delay_seconds=self.config.max_delay_seconds,
                max_pending_intervals=self.config.max_pending_intervals,
                instruments=extractor.instruments,
                tracer=self._tracer,
            )
            if self.config.window_intervals > 1:
                self._window_miner = SlidingWindowMiner(
                    window=self.config.window_intervals,
                    min_support=self.config.min_support,
                    miner=lookup("miner", miners, self.config.miner),
                    maximal_only=self.config.maximal_only,
                )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def metrics(self) -> MetricsRegistry:
        """The extractor's metrics registry (no-op when observability
        is off)."""
        return self._extractor.metrics

    @property
    def tracer(self):
        """The extractor's span tracer (no-op when tracing is off)."""
        return self._tracer

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def finished(self) -> bool:
        return self._finished

    def close(self) -> None:
        """Release the session's resources (idempotent).

        The session closes its metrics sink and its extractor (which
        releases the incident store) in ``try``/``finally`` - so both
        are freed even when one release raises, and even when the
        session is being torn down because a mid-feed chunk raised.
        """
        if self._closed:
            return
        self._closed = True
        self._span.end()
        try:
            if self._metrics_sink is not None:
                self._metrics_sink.close()
        finally:
            self._extractor.close()

    def __enter__(self) -> "ExtractionSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _check_open(self, verb: str) -> None:
        if self._closed:
            raise ExtractionError(f"cannot {verb}: session is closed")
        if self._finished:
            raise ExtractionError(f"cannot {verb}: session already finished")

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def feed(self, chunk: FlowTable) -> list[ExtractionResult]:
        """Push one chunk of flows into the pipeline.

        Stream mode returns the extractions of the intervals the chunk
        completed (most chunks complete none or one); batch mode
        accumulates and always returns ``[]`` - results come from
        :meth:`finish`.
        """
        self._check_open("feed")
        if self.mode == "batch":
            if len(chunk):
                self._pending.append(chunk)
            return []
        assert self.assembler is not None
        with self._span.active(), time_stage(
            self._extractor.instruments.stage_binning
        ), self._tracer.span("stage.binning", rows=len(chunk)):
            views = self.assembler.push(chunk)
        return self._step_views(views)

    def flush(self) -> list[ExtractionResult]:
        """Drain what can be drained without ending the session.

        Stream mode emits the trailing intervals kept open by the
        lateness allowance and returns their extractions.  Batch mode
        returns ``[]`` and keeps accumulating: its windowing needs the
        whole trace, and draining mid-run would re-window later feeds
        from the origin, replaying already-observed intervals through
        the detectors - batch results come from :meth:`finish`.
        """
        self._check_open("flush")
        if self.mode == "batch":
            return []
        assert self.assembler is not None
        with self._span.active(), time_stage(
            self._extractor.instruments.stage_binning
        ), self._tracer.span("stage.binning", rows=0):
            views = self.assembler.flush()
        return self._step_views(views)

    def finish(self) -> TraceExtraction | StreamExtraction:
        """Flush, seal the session, and return the run's result.

        Batch sessions return a :class:`TraceExtraction`, stream
        sessions a :class:`StreamExtraction`.  Further :meth:`feed`
        calls raise; :meth:`result` stays readable.
        """
        self._check_open("finish")
        if self.mode == "batch":
            self._drain_batch()
        else:
            self.flush()
        self._finished = True
        self._span.end()
        return self.result()

    def _drain_batch(self) -> list[ExtractionResult]:
        if not self._pending:
            return []
        trace = (
            self._pending[0]
            if len(self._pending) == 1
            else FlowTable.concat(self._pending)
        )
        self._pending = []
        # The generator is consumed one view at a time - each interval's
        # copied FlowTable dies before the next is built, so peak memory
        # holds the trace plus ONE interval.
        return self._step_views(
            self._timed_views(
                iter_intervals(
                    trace,
                    self.interval_seconds,
                    origin=self.origin,
                    include_empty=True,
                )
            )
        )

    def _timed_views(
        self, views: Iterable[IntervalView]
    ) -> Iterable[IntervalView]:
        """Attribute generator-advance time (the batch path's windowing
        work) to the ``binning`` stage, one observation per interval."""
        binning = self._extractor.instruments.stage_binning
        it = iter(views)
        while True:
            with time_stage(binning) as span, self._tracer.span(
                "stage.binning"
            ):
                view = next(it, None)
                if view is None:
                    span.cancel()
                    return
            yield view

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def result(self) -> TraceExtraction | StreamExtraction:
        """Snapshot of the run so far (callable mid-stream)."""
        detection = None
        if self.keep_reports:
            detection = self._extractor.detector_bank.detection_run()
        if self.mode == "batch":
            return TraceExtraction(
                extractions=list(self.extractions), detection=detection
            )
        assert self.assembler is not None
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
        """JSON-safe snapshot of a stream session's resume state.

        Covers everything a resumed process needs to continue the
        stream byte-identically: the assembler's pending bins and
        watermark, the sliding-window miner context, the detector
        bank's learned state, and the session's own progress counters.
        The retained ``extractions`` list and detector reports are NOT
        serialized - they are post-hoc conveniences, and the durable
        record of emitted reports is the sink (incident store).
        """
        if self.mode != "stream":
            raise CheckpointError(
                "only stream sessions checkpoint: batch mode holds the "
                "whole trace and re-runs from scratch"
            )
        self._check_open("checkpoint")
        assert self.assembler is not None
        return {
            "mode": self.mode,
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
            "detectors": self._extractor.detector_bank.to_state(),
        }

    def from_state(self, state: dict) -> None:
        """Restore :meth:`to_state` data into this freshly built
        session (same config, seed, mode, and windowing as the
        checkpointed one).

        Restoring also arms the resume floor: reports for intervals the
        sink already covers (its ``last_interval`` marker) are treated
        as replays and skipped, so re-feeding the stream from the last
        checkpointed position continues mid-stream instead of tripping
        the store's re-ingest guard.
        """
        self._check_open("restore")
        if self.mode != "stream":
            raise CheckpointError(
                "only stream sessions restore from a checkpoint"
            )
        assert self.assembler is not None
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
        self._extractor.detector_bank.from_state(fields["detectors"])
        self.arm_resume_floor()

    def _step_views(
        self, views: Iterable[IntervalView]
    ) -> list[ExtractionResult]:
        """Hand a source's closed intervals to the step, in order; one
        call is one step batch (see ``_recent``)."""
        self._evict_recent()
        results = []
        with self._span.active():
            for view in views:
                extraction = self._advance(FlowInterval(self, view.flows))
                if extraction is not None:
                    results.append(extraction)
        return results


def open_session(
    config: ExtractionConfig,
    *,
    seed: int = 0,
    metrics: MetricsRegistry | None = None,
    tracer: AnyTracer | None = None,
    pipeline: str = "default",
    **session: Any,
) -> ExtractionSession:
    """Build an :class:`AnomalyExtractor` (``seed`` ... ``pipeline``
    are its constructor's) and the :class:`ExtractionSession` that owns
    it (``session`` holds the rest of its arguments).  If the session
    refuses them - a bad mode or interval - the extractor and the store
    it may have opened are closed, not leaked."""
    extractor = AnomalyExtractor(
        config,
        seed=seed,
        metrics=metrics,
        pipeline=pipeline,
        tracer=tracer,
    )
    try:
        return ExtractionSession(extractor, **session)
    except BaseException:
        extractor.close()
        raise


def run_session(
    session: ExtractionSession,
    chunks: Iterable[FlowTable],
) -> TraceExtraction | StreamExtraction:
    """Feed a whole chunk iterable through ``session`` and finish it."""
    for chunk in chunks:
        session.feed(chunk)
    return session.finish()


__all__ = [
    "SESSION_MODES",
    "ExtractionSession",
    "FlowInterval",
    "IntervalInput",
    "IntervalSpine",
    "StreamExtraction",
    "open_session",
    "run_session",
]
