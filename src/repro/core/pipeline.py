"""The anomaly extraction pipeline - the paper's primary contribution.

:class:`AnomalyExtractor` wires the stages of Fig. 3 together:

    histogram detectors (KL + cloning)  ->  voting  ->  union meta-data
        ->  flow prefiltering  ->  frequent item-set mining
        ->  maximal item-set report

It operates online (an :class:`~repro.core.session.ExtractionSession`
steps it one measurement interval at a time, alarm triggers extraction)
or offline (``extract_with_metadata`` for post-mortem analysis of a
flagged interval, as in Section II: "an administrator triggers the
anomaly extraction process to analyze anomaly alarms in a post-mortem
fashion").
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from typing import Protocol, runtime_checkable

from repro.core.config import ExtractionConfig
from repro.core.cost import cost_reduction
from repro.core.prefilter import PrefilterResult, prefilter
from repro.core.report import ExtractionReport, render_itemset_table
from repro.detection.features import Feature
from repro.detection.manager import DetectorBank
from repro.detection.metadata import Metadata
from repro.errors import ExtractionError
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
    (``append`` is the whole contract).  :mod:`repro.sinks` holds the
    fan-out.
    """

    def append(self, report: ExtractionReport) -> object: ...


@runtime_checkable
class IntervalSink(ReportSink, Protocol):
    """A report sink that also tracks pipeline progress.

    Sinks holding incident lifecycle state (the incident store) need to
    see clean intervals pass - a report-free tail must still age
    incidents toward quiet/closed.  The pipeline calls
    ``note_interval`` through :func:`notify_sink_interval`, so plain
    collectors that only implement ``append`` keep working.
    """

    def note_interval(self, interval: int) -> object: ...


def notify_sink_interval(sink: object, interval: int | None) -> None:
    """Tell a sink how far the pipeline processed, if it cares.

    The structural check against :class:`IntervalSink` replaces the old
    ``getattr`` duck-typing: sinks opt in by implementing
    ``note_interval``, and list-backed collectors are skipped.
    """
    if interval is None or sink is None:
        return
    if isinstance(sink, IntervalSink):
        sink.note_interval(interval)


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
    """End-to-end online/offline anomaly extraction.

    Call :meth:`close` (or use the extractor as a context manager) to
    release the incident store a ``config.incidents.store_path`` opens.

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
    """

    def __init__(
        self,
        config: ExtractionConfig | None = None,
        seed: int = 0,
        metrics: MetricsRegistry | None = None,
        pipeline: str = "default",
        tracer=None,
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
        self._store = None
        if self.config.incidents.store_path is not None:
            from repro.incidents.store import IncidentStore

            self._store = IncidentStore(
                self.config.incidents.store_path,
                jaccard=self.config.incidents.jaccard,
                quiet_gap=self.config.incidents.quiet_gap,
                metrics=metrics,
            )

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

    def close(self) -> None:
        """Release the report store (idempotent)."""
        if self._store is not None:
            self._store.close()

    def __enter__(self) -> "AnomalyExtractor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

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
        2-3 trials).
        """
        result = self.mining_stage(
            len(flows),
            lambda: self.select_and_mine(
                flows, metadata, interval, alarmed_features, min_support
            ),
        )
        assert result is not None  # select_and_mine always produces one
        return result

    def mining_stage(
        self,
        flows: int,
        extract: Callable[[], ExtractionResult | None],
    ) -> ExtractionResult | None:
        """Run ``extract`` as the mining stage.

        One ``stage.mining`` span and histogram sample per call, plus
        the extraction / item-set counters when it produced a result -
        shared by the session's interval step and the post-mortem path,
        so the stage means one thing for every input.
        """
        ins = self._instruments
        with time_stage(ins.stage_mining), self._tracer.span(
            "stage.mining", flows=flows
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
        min_support: int | None = None,
    ) -> ExtractionResult:
        """Prefilter ``flows`` by the meta-data and mine the suspicious
        ones (uninstrumented; callers run it inside
        :meth:`mining_stage`)."""
        if len(flows) == 0:
            raise ExtractionError("cannot extract from an empty interval")
        mining = self.config.mining
        selected = prefilter(flows, metadata, mining.prefilter_mode)
        support = min_support if min_support is not None else mining.min_support
        return ExtractionResult(
            interval=interval,
            metadata=metadata,
            prefilter=selected,
            mining=self._mine(selected.flows, support),
            alarmed_features=alarmed_features,
        )

    def _mine(self, flows: FlowTable, min_support: int) -> MiningResult:
        transactions = TransactionSet.from_flows(flows)
        miner = lookup("miner", miners, self.config.mining.miner)
        # An empty prefilter output (e.g. intersection mode on a
        # multi-stage anomaly) flows through the same call and yields an
        # empty-but-valid mining result.
        return miner(
            transactions,
            max(1, min_support),
            maximal_only=self.config.mining.maximal_only,
        )


def suggest_min_support(n_input_flows: int, fraction: float = 0.03) -> int:
    """The paper's rule of thumb: s is typically 1-10% of the input
    flows; default to 3%."""
    if not 0 < fraction < 1:
        raise ExtractionError(f"fraction must be in (0, 1): {fraction}")
    return max(1, int(n_input_flows * fraction))
