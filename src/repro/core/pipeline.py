"""The anomaly extraction pipeline - the paper's primary contribution.

:class:`AnomalyExtractor` wires the stages of Fig. 3 together:

    histogram detectors (KL + cloning)  ->  voting  ->  union meta-data
        ->  flow prefiltering  ->  frequent item-set mining
        ->  maximal item-set report

It operates online or offline (``extract_with_metadata`` for post-mortem
analysis of a flagged interval, as in Section II: "an administrator
triggers the anomaly extraction process to analyze anomaly alarms in a
post-mortem fashion").  Online, every source of closed intervals hands
them to the one per-interval step, :meth:`AnomalyExtractor.step`::

    sources (closed intervals)        step                    sinks
    IntervalAssembler  --+--> detect -> gate -> extract -+--> incident store
    Federator merge    --+        -> report -> age       +--> caller's sink
                                                         +--> [obs] jsonl_path

The step owns everything that is not input-specific: the interval /
flow / alarm / extraction counters, the ``stage.detection`` /
``stage.mining`` / ``stage.triage`` spans and histograms, the alarm and
empty-meta-data gates, result retention, the report and its sink push
(under the resume floor), incident ageing (``note_interval``), the
metrics trail and detector-report retention.  What *is* input-specific
hides behind the two-method :class:`IntervalInput` protocol:
:class:`~repro.core.session.FlowInterval` (raw flows: prefilter +
item-set mining) and
:class:`~repro.federation.federator.MergedInterval` (merged digests:
exact single-item supports).
"""

from __future__ import annotations

import json
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.core.config import ExtractionConfig
from repro.core.cost import cost_reduction
from repro.core.prefilter import PrefilterResult, prefilter
from repro.core.report import ExtractionReport, render_itemset_table
from repro.detection.features import Feature
from repro.detection.manager import DetectorBank, IntervalReport
from repro.detection.metadata import Metadata
from repro.errors import ExtractionError
from repro.flows.stream import DEFAULT_INTERVAL_SECONDS
from repro.flows.table import FlowTable
from repro.mining import miners
from repro.mining.items import FrequentItemset
from repro.mining.result import MiningResult
from repro.mining.transactions import TransactionSet
from repro.obs.instruments import PipelineInstruments
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry, time_stage
from repro.obs.trace import NULL_TRACER, AnyTracer, Tracer
from repro.registry import lookup


@runtime_checkable
class ReportSink(Protocol):
    """Anything that accepts per-interval extraction reports.

    :class:`~repro.incidents.store.IncidentStore` is the canonical
    implementation; a bare ``list``-backed collector satisfies it too
    (``append`` is the whole contract).
    """

    def append(self, report: ExtractionReport) -> object: ...


@runtime_checkable
class IntervalSink(ReportSink, Protocol):
    """A report sink that also tracks pipeline progress.

    Sinks holding incident lifecycle state (the incident store) need to
    see clean intervals pass - a report-free tail must still age
    incidents toward quiet/closed.  The step calls ``note_interval``
    on sinks that implement it, so plain collectors that only
    implement ``append`` keep working.
    """

    def note_interval(self, interval: int) -> object: ...


class IntervalInput(Protocol):
    """One closed measurement interval, whatever form it arrived in.

    The protocol hides a format and an algorithm: how the detector bank
    gets to see the interval, and how an alarmed interval's voted
    meta-data becomes item-sets.  Everything else about an interval is
    :meth:`AnomalyExtractor.step`'s business.
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


@dataclass(frozen=True)
class ExtractionResult:
    """Everything produced for one flagged interval."""

    interval: int
    metadata: Metadata
    prefilter: PrefilterResult
    mining: MiningResult
    alarmed_features: tuple[Feature, ...] = ()
    #: How many intervals the mining covered: 1, or the window's fill
    #: when a sliding window mined the last N intervals together (the
    #: report's bounds span them all).
    window_intervals: int = 1

    @property
    def itemsets(self) -> list[FrequentItemset]:
        """The extracted (maximal) frequent item-sets."""
        return self.mining.itemsets

    @property
    def classification_cost_reduction(self) -> float:
        """R = |F| / |I| for this interval (Section III-F)."""
        return cost_reduction(
            self.prefilter.input_flows, len(self.mining.itemsets)
        )

    def render(self) -> str:
        """Operator-facing text report."""
        header = (
            f"interval {self.interval}: "
            f"{self.prefilter.input_flows} flows, "
            f"{self.prefilter.selected_flows} suspicious after "
            f"{self.prefilter.mode} prefilter "
            f"({self.prefilter.selectivity:.1%}), "
            f"min support {self.mining.min_support}"
        )
        alarmed = ", ".join(f.short_name for f in self.alarmed_features)
        lines = [header]
        if alarmed:
            lines.append(f"alarmed features: {alarmed}")
        lines.append(render_itemset_table(self.mining.itemsets))
        return "\n".join(lines)


def default_observers(
    configs: Sequence[ExtractionConfig],
    metrics: MetricsRegistry | None = None,
    tracer: AnyTracer | None = None,
) -> tuple[MetricsRegistry, AnyTracer]:
    """The registry and tracer a run over ``configs`` records into:
    one given wins, else the first ``[obs] enabled`` config gets a live
    :class:`MetricsRegistry` on its ``histogram_buckets`` and any
    ``[obs] trace_path`` a live :class:`Tracer`, else the shared
    no-ops.  The extractor, the fleet and the daemon all decide here.
    """
    if metrics is None:
        enabled = [c for c in configs if c.obs.enabled]
        metrics = (
            MetricsRegistry(buckets=enabled[0].obs.histogram_buckets)
            if enabled
            else NULL_REGISTRY
        )
    if tracer is None:
        traced = any(c.obs.trace_path is not None for c in configs)
        tracer = Tracer() if traced else NULL_TRACER
    return metrics, tracer


class AnomalyExtractor:
    """The pipeline of Fig. 3 for one link: the detector bank, the
    miner, the report sink and the one per-interval step (:meth:`step`
    online, :meth:`extract_with_metadata` post mortem).

    Call :meth:`close` (or use the extractor as a context manager) to
    release the incident store a ``config.incidents.store_path`` opens
    and the metrics trail an ``[obs] jsonl_path`` opens.

    ``metrics`` attaches a :class:`~repro.obs.metrics.MetricsRegistry`;
    omitted, the extractor builds one when ``config.obs.enabled`` is
    set, else runs against the no-op
    :data:`~repro.obs.metrics.NULL_REGISTRY` (extraction output is
    byte-identical either way).  ``pipeline`` is the label every metric
    of this extractor carries - the fleet passes its link names.

    ``tracer`` attaches a :class:`~repro.obs.trace.Tracer` recording
    per-stage/per-interval span trees; omitted, the extractor builds
    one when ``config.obs.trace_path`` is set, else runs against the
    no-op :data:`~repro.obs.trace.NULL_TRACER` (same byte-identical
    invariant as metrics).

    ``interval_seconds`` / ``origin`` are the interval grid of the
    step's reports; ``sink`` is where they go (anything with
    ``append(ExtractionReport)``; default: the incident store, when one
    is configured).  ``keep_reports=False`` drops each interval's
    detector report after the step, and
    ``config.streaming.keep_extractions=False`` retains no
    :class:`ExtractionResult` in :attr:`extractions`, so memory stays
    flat (each step still returns its own).
    """

    def __init__(
        self,
        config: ExtractionConfig | None = None,
        seed: int = 0,
        metrics: MetricsRegistry | None = None,
        pipeline: str = "default",
        tracer=None,
        interval_seconds: float = DEFAULT_INTERVAL_SECONDS,
        origin: float = 0.0,
        sink: ReportSink | None = None,
        keep_reports: bool = True,
    ):
        self.config = config or ExtractionConfig()
        # Registry before any resource: instrument bundles are handed
        # to the store at construction time.
        metrics, tracer = default_observers([self.config], metrics, tracer)
        self._metrics, self._tracer = metrics, tracer
        self._instruments = PipelineInstruments(metrics, pipeline)
        # The bank first: it holds no resource, so if it fails to build
        # there is no store connection to leak.
        self._bank = DetectorBank(
            self.config.detector, features=self.config.features, seed=seed
        )
        self.interval_seconds = interval_seconds
        self.origin = origin
        self.keep_reports = keep_reports
        self.keep_extractions = self.config.streaming.keep_extractions
        self.extraction_count = 0
        self.extractions: list[ExtractionResult] = []
        #: Set by :meth:`arm_resume_floor`: intervals at or below this
        #: index are already durable in the sink (persisted before the
        #: crash a checkpoint recovers from), so their re-processed
        #: reports are recognized as replays and skipped instead of
        #: tripping the store's re-ingest guard.
        self._resume_floor: int | None = None
        self._store = None
        self._trail = None
        self._trial: (
            tuple[FlowTable, Metadata, PrefilterResult, TransactionSet] | None
        ) = None
        if self.config.incidents.store_path is not None:
            from repro.incidents.store import IncidentStore

            self._store = IncidentStore(
                self.config.incidents.store_path,
                jaccard=self.config.incidents.jaccard,
                quiet_gap=self.config.incidents.quiet_gap,
                metrics=metrics,
            )
        self._sink = sink if sink is not None else self._store
        # Classified once: a runtime-Protocol isinstance scans the
        # sink's attributes, too dear to repeat on every interval.
        self._interval_sink: IntervalSink | None = (
            self._sink if isinstance(self._sink, IntervalSink) else None
        )
        obs = self.config.obs
        if obs.enabled and obs.jsonl_path:
            try:
                # One metrics snapshot per processed interval.
                self._trail = open(obs.jsonl_path, "w")
            except BaseException:
                self.close()
                raise

    @property
    def detector_bank(self) -> DetectorBank:
        return self._bank

    @property
    def metrics(self) -> MetricsRegistry:
        """The metrics registry this extractor reports into (the no-op
        :data:`~repro.obs.metrics.NULL_REGISTRY` when observability is
        off)."""
        return self._metrics

    @property
    def instruments(self) -> PipelineInstruments:
        """The pre-bound per-pipeline instrument bundle."""
        return self._instruments

    @property
    def tracer(self):
        """The span tracer this extractor records into (the no-op
        :data:`~repro.obs.trace.NULL_TRACER` when tracing is off)."""
        return self._tracer

    @property
    def store(self):
        """The :class:`~repro.incidents.store.IncidentStore` opened via
        ``config.incidents.store_path``, or None."""
        return self._store

    @property
    def sink(self) -> ReportSink | None:
        """The report sink the step pushes to (may be None)."""
        return self._sink

    def close(self) -> None:
        """Release the metrics trail and the report store (idempotent),
        the store even when closing the trail raised."""
        self._trial = None
        try:
            if self._trail is not None:
                self._trail.close()
        finally:
            if self._store is not None:
                self._store.close()

    def __enter__(self) -> "AnomalyExtractor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Online operation: the one per-interval step
    # ------------------------------------------------------------------
    def report_for(self, extraction: ExtractionResult) -> ExtractionReport:
        """The serializable report of an extraction on this extractor's
        interval grid - equal to the one the sink received; bounds
        cover the mined window, not just the triggering interval."""
        if not isinstance(extraction, ExtractionResult):
            raise ExtractionError(
                f"unknown extraction: report_for takes an "
                f"ExtractionResult, got {type(extraction).__name__}"
            )
        return ExtractionReport.from_result(
            extraction, self.interval_seconds, self.origin
        )

    def arm_resume_floor(self) -> None:
        """Treat reports the durable sink already covers (its
        ``last_interval`` marker) as replays: a restored run re-fed
        from its last checkpointed position continues mid-stream
        instead of tripping the store's re-ingest guard."""
        if self._store is not None:
            self._resume_floor = self._store.last_interval()
            return
        last = getattr(self._sink, "last_interval", None)
        marker = last() if callable(last) else None
        self._resume_floor = None if marker is None else int(marker)

    def step(self, interval_input: IntervalInput) -> ExtractionResult | None:
        """Run one closed interval through detect -> gate -> extract ->
        report -> sink; returns its extraction, or None for a clean (or
        unusable-alarm) interval."""
        ins = self._instruments
        bank = self._bank
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
                    # many clones ran a bin identification, how many
                    # cleaning rounds those took together, and how many
                    # of the rounds the KL kernel scored exactly.
                    observed = report.observations.values()
                    identified = [
                        clone.bin_identification
                        for obs in observed
                        for clone in obs.clones
                        if clone.bin_identification is not None
                    ]
                    span.set_attribute(
                        "alarm_votes",
                        sum(obs.alarm_votes for obs in observed),
                    )
                    span.set_attribute(
                        "binid_rounds", sum(i.rounds for i in identified)
                    )
                    span.set_attribute(
                        "binid_scored", sum(i.scored for i in identified)
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
                    extraction = self.mining_stage(
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
        if self._interval_sink is not None:
            self._interval_sink.note_interval(report.interval)
        if self._trail is not None:
            document = {
                "interval": int(report.interval),
                "metrics": self._metrics.snapshot(),
            }
            self._trail.write(json.dumps(document, sort_keys=True))
            self._trail.write("\n")
        return extraction

    # ------------------------------------------------------------------
    # Offline operation
    # ------------------------------------------------------------------
    def extract_with_metadata(
        self,
        flows: FlowTable,
        metadata: Metadata,
        interval: int = -1,
        alarmed_features: tuple[Feature, ...] = (),
        min_support: int | None = None,
    ) -> ExtractionResult:
        """Post-mortem extraction: prefilter + mine a flagged interval.

        ``min_support`` overrides the configured support (the paper
        recommends starting at 1-10% of the input flows and adjusting in
        2-3 trials); it is checked like ``[mining] min_support``.
        Trials reuse the selection: a trial on the same table object,
        with equal meta-data and prefilter mode, re-mines the previous
        trial's prefiltered flows and item supports; any other call
        replaces them, and :meth:`close` drops them.
        """
        mining = self.config.mining
        if min_support is None:
            min_support = mining.min_support
        else:
            # The check every config spelling of the support goes through.
            ExtractionConfig(mining={"min_support": min_support})
        if len(flows) == 0:
            raise ExtractionError("cannot extract from an empty interval")
        last = self._trial
        reused = (
            last is not None
            and last[0] is flows
            and last[2].mode == mining.prefilter_mode
            and last[1] == metadata
        )
        if not reused:
            self._trial = None  # the old selection goes before the new one

        def extract() -> ExtractionResult:
            if self._trial is None:
                selected = prefilter(flows, metadata, mining.prefilter_mode)
                transactions = TransactionSet.from_flows(selected.flows)
                self._trial = (flows, metadata.copy(), selected, transactions)
            _, _, selected, transactions = self._trial
            return ExtractionResult(
                interval=interval,
                metadata=metadata,
                prefilter=selected,
                mining=self._mine(transactions, min_support),
                alarmed_features=alarmed_features,
            )

        result = self.mining_stage(len(flows), extract, reused=reused)
        assert result is not None  # extract always produces one
        return result

    def mining_stage(
        self,
        flows: int,
        extract: Callable[[], ExtractionResult | None],
        **attributes: bool,
    ) -> ExtractionResult | None:
        """Run ``extract`` as the mining stage (``attributes`` go on
        its span).

        One ``stage.mining`` span and histogram sample per call, plus
        the extraction / item-set counters when it produced a result -
        shared by the session's interval step and the post-mortem path,
        so the stage means one thing for every input.
        """
        ins = self._instruments
        with time_stage(ins.stage_mining), self._tracer.span(
            "stage.mining", flows=flows, **attributes
        ) as span:
            result = extract()
            if result is not None:
                span.set_attribute("selected", result.prefilter.selected_flows)
                span.set_attribute("min_support", result.mining.min_support)
                span.set_attribute("itemsets", len(result.mining.itemsets))
                span.set_attribute("frequent", len(result.mining.all_frequent))
                span.set_attribute("levels", result.mining.max_size)
        if result is not None:
            ins.extractions.inc()
            ins.itemsets.inc(len(result.mining.itemsets))
        return result

    def select_and_mine(
        self,
        flows: FlowTable,
        metadata: Metadata,
        interval: int = -1,
        alarmed_features: tuple[Feature, ...] = (),
    ) -> ExtractionResult:
        """Prefilter ``flows`` by the meta-data and mine the suspicious
        ones (uninstrumented; callers run it inside
        :meth:`mining_stage`)."""
        if len(flows) == 0:
            raise ExtractionError("cannot extract from an empty interval")
        mining = self.config.mining
        selected = prefilter(flows, metadata, mining.prefilter_mode)
        return ExtractionResult(
            interval=interval,
            metadata=metadata,
            prefilter=selected,
            mining=self._mine(
                TransactionSet.from_flows(selected.flows), mining.min_support
            ),
            alarmed_features=alarmed_features,
        )

    def _mine(self, transactions: TransactionSet, min_support: int) -> MiningResult:
        miner = lookup("miner", miners, self.config.mining.miner)
        # An empty prefilter output (e.g. intersection mode on a
        # multi-stage anomaly) flows through the same call and yields an
        # empty-but-valid mining result.
        return miner(
            transactions,
            min_support,
            maximal_only=self.config.mining.maximal_only,
        )


def suggest_min_support(n_input_flows: int, fraction: float = 0.03) -> int:
    """The paper's rule of thumb: s is typically 1-10% of the input
    flows; default to 3%."""
    if not 0 < fraction < 1:
        raise ExtractionError(f"fraction must be in (0, 1): {fraction}")
    return max(1, int(n_input_flows * fraction))
