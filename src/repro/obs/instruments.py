"""The library's metric catalog, pre-bound per pipeline.

One :class:`PipelineInstruments` bundle per pipeline (label
``pipeline="default"`` for solo runs, the fleet's link names for
multi-pipeline runs) keeps the hot paths free of name lookups: the
interval step, extractor, and assembler increment pre-resolved children.

:data:`CATALOG` is the machine-readable registry of every metric the
library emits - name, instrument kind, label schema, and help text.
It is the single source the bundle below builds from, and the
contract ``tests/invariants/test_catalog_hygiene.py`` holds: any
``registry.counter/gauge/histogram`` call outside this package must
use a catalogued name with the catalogued label schema, so the
exported surface never drifts silently.

Metric names follow the Prometheus conventions (``repro_`` prefix,
``_total`` counters, ``_seconds`` timings); the README's Observability
section is the human-readable catalog.
"""

from __future__ import annotations

from typing import NamedTuple

#: The four per-interval stages timed by ``repro_stage_seconds``.
STAGES = ("binning", "detection", "mining", "triage")


class InstrumentSpec(NamedTuple):
    """One catalogued metric: kind, label schema, and help text."""

    kind: str  # "counter" | "gauge" | "histogram"
    labels: tuple[str, ...]
    help: str


#: Every metric the library emits, keyed by name.  Adding a metric
#: means adding it here first; the catalog guard rejects uncatalogued
#: names.
CATALOG: dict[str, InstrumentSpec] = {
    # -- core pipeline -----------------------------------------------------
    "repro_intervals_processed_total": InstrumentSpec(
        "counter", ("pipeline",),
        "Measurement intervals run through the detector bank "
        "(pipeline=federation: intervals released by the federator).",
    ),
    "repro_flows_processed_total": InstrumentSpec(
        "counter", ("pipeline",),
        "Flows observed by the detector bank (late drops excluded; "
        "pipeline=federation: merged digest flow counts).",
    ),
    "repro_intervals_alarmed_total": InstrumentSpec(
        "counter", ("pipeline",),
        "Intervals on which any detector alarmed, whether or not the "
        "voted meta-data was usable - the same definition for flow, "
        "sliding-window, and merged-digest inputs.",
    ),
    "repro_extractions_total": InstrumentSpec(
        "counter", ("pipeline",),
        "Extraction results produced (alarmed intervals with usable "
        "meta-data).",
    ),
    "repro_itemsets_extracted_total": InstrumentSpec(
        "counter", ("pipeline",),
        "Frequent item-sets reported across all extractions.",
    ),
    "repro_stage_seconds": InstrumentSpec(
        "histogram", ("pipeline", "stage"),
        "Wall-clock seconds per pipeline stage per interval.",
    ),
    # -- interval assembly -------------------------------------------------
    "repro_assembler_flows_accepted_total": InstrumentSpec(
        "counter", ("pipeline",),
        "Flows accepted into pending intervals by the assembler.",
    ),
    "repro_assembler_late_dropped_total": InstrumentSpec(
        "counter", ("pipeline", "reason"),
        "Flows dropped by the assembler, split by reason: "
        "pre_origin (timestamp before interval 0) or closed_interval "
        "(interval already emitted past the lateness allowance).",
    ),
    "repro_assembler_backpressure_emits_total": InstrumentSpec(
        "counter", ("pipeline",),
        "Intervals force-emitted because max_pending_intervals was "
        "exceeded.",
    ),
    "repro_assembler_pending_intervals": InstrumentSpec(
        "gauge", ("pipeline",),
        "Intervals currently held open by the assembler.",
    ),
    "repro_assembler_pending_flows": InstrumentSpec(
        "gauge", ("pipeline",),
        "Flows buffered in not-yet-complete intervals.",
    ),
    "repro_assembler_watermark_lag_seconds": InstrumentSpec(
        "gauge", ("pipeline",),
        "Event-time span between the emit cursor and the watermark "
        "(how much buffered time the assembler is holding).",
    ),
    # -- incident store ----------------------------------------------------
    "repro_store_appends_total": InstrumentSpec(
        "counter", (),
        "Reports persisted into the incident store.",
    ),
    "repro_store_reingest_refusals_total": InstrumentSpec(
        "counter", (),
        "Appends refused by the monotonic re-ingest guard.",
    ),
    "repro_store_query_seconds": InstrumentSpec(
        "histogram", (),
        "Wall-clock seconds per incidents() correlation query.",
    ),
    # -- trace io ----------------------------------------------------------
    "repro_io_rows_parsed_total": InstrumentSpec(
        "counter", (),
        "CSV flow rows parsed into chunks.",
    ),
    "repro_io_parse_errors_total": InstrumentSpec(
        "counter", (),
        "CSV rows rejected as malformed (ragged, non-numeric, "
        "non-finite timestamp).",
    ),
    # -- fleet -------------------------------------------------------------
    "repro_fleet_fed_rows_total": InstrumentSpec(
        "counter", (),
        "Flow rows fed into the fleet (after router validation).",
    ),
    "repro_fleet_routed_rows_total": InstrumentSpec(
        "counter", ("pipeline",),
        "Flow rows routed to each pipeline.",
    ),
    "repro_fleet_misrouted_rows_total": InstrumentSpec(
        "counter", (),
        "Flow rows in chunks rejected because the router produced "
        "out-of-range pipeline indices.",
    ),
    "repro_fleet_ranking_seconds": InstrumentSpec(
        "histogram", (),
        "Wall-clock seconds per merged fleet-wide incidents() query.",
    ),
    # -- service -----------------------------------------------------------
    "repro_service_requests_total": InstrumentSpec(
        "counter", ("method", "route", "status"),
        "HTTP requests served by the extraction daemon, by method, "
        "route pattern, and response status.",
    ),
    "repro_service_request_seconds": InstrumentSpec(
        "histogram", ("route",),
        "Wall-clock seconds per served HTTP request, by route pattern.",
    ),
    "repro_service_ingest_rows_total": InstrumentSpec(
        "counter", (),
        "Flow rows accepted through the service ingest surface (HTTP "
        "POST /ingest and the TCP line protocol combined).",
    ),
    "repro_checkpoint_writes_total": InstrumentSpec(
        "counter", (),
        "Durable checkpoints written by the service.",
    ),
    "repro_checkpoint_failures_total": InstrumentSpec(
        "counter", (),
        "Periodic checkpoints that could not be written (the batch "
        "was applied and acknowledged; /healthz shows the error).",
    ),
    "repro_checkpoint_write_seconds": InstrumentSpec(
        "histogram", (),
        "Wall-clock seconds per durable checkpoint write (snapshot + "
        "serialize + atomic replace).",
    ),
    "repro_checkpoint_bytes": InstrumentSpec(
        "gauge", (),
        "Size in bytes of the most recently written checkpoint file.",
    ),
    # -- federation --------------------------------------------------------
    "repro_federation_digests_total": InstrumentSpec(
        "counter", ("site",),
        "Interval digests accepted by the federator, per vantage "
        "point.",
    ),
    "repro_federation_digest_bytes": InstrumentSpec(
        "histogram", ("site",),
        "Canonical wire size in bytes of accepted interval digests.",
    ),
    "repro_federation_merge_seconds": InstrumentSpec(
        "histogram", (),
        "Wall-clock seconds to merge one interval's digests and run "
        "the interval step (detection, single-item extraction, store "
        "push) over the merged view.",
    ),
    "repro_federation_intervals_merged_total": InstrumentSpec(
        "counter", (),
        "Intervals released by the federator (complete or "
        "watermark-forced).",
    ),
    "repro_federation_stragglers_total": InstrumentSpec(
        "counter", ("site",),
        "Expected digests missing when the straggler watermark forced "
        "an interval release, per missing site.",
    ),
}


#: Every span name the tracer emits, keyed by name.  Adding a span
#: means adding it here first; the catalog guard rejects uncatalogued
#: names, so the trace vocabulary stays as closed as the metric surface.
SPANS: dict[str, str] = {
    "session.run": (
        "One extraction session, construction to close (the root of a "
        "solo run's trace; nests under fleet.run in a fleet)."
    ),
    "session.interval": (
        "One completed measurement interval through detection, mining "
        "and triage."
    ),
    "fleet.run": (
        "One FleetManager lifetime; every pipeline's session.run "
        "parents under it."
    ),
    "fleet.rank": "One merged fleet-wide incident ranking query.",
    "service.request": (
        "One HTTP request handled by the extraction daemon "
        "(attributes: method, route, status)."
    ),
    "service.checkpoint": (
        "One durable checkpoint write: fleet snapshot, canonical JSON "
        "serialization, atomic file replace."
    ),
    "service.resume": (
        "One daemon resume: checkpoint read, fleet state restore, "
        "ingest-sequence recovery."
    ),
    "federation.summarize": (
        "One collector interval summarized into an IntervalDigest "
        "(attributes: site, interval)."
    ),
    "federation.merge": (
        "One interval's digests merged by the federator and stepped "
        "through the pipeline; the interval's session.interval tree "
        "nests under it (attributes: interval, sites, stragglers)."
    ),
    "federation.run": (
        "One federated multi-vantage-point run, collectors through "
        "global ranking."
    ),
}
SPANS.update(
    {
        f"stage.{stage}": (
            f"The {stage} stage of the pipeline (same vocabulary as "
            "the repro_stage_seconds histogram)."
        )
        for stage in STAGES
    }
)
SPANS["stage.detection"] += (
    " Attributes: flows, alarm, bin_s (seconds spent binning the "
    "interval's value counts into every feature's clone histograms, "
    "column sorts included on the row path) and score_s (seconds "
    "spent scoring them: KL, thresholds, bin identification, votes); "
    "on an alarmed interval also "
    "alarm_votes (clones that alarmed, summed over features) and "
    "binid_rounds (bin-identification cleaning rounds, summed over "
    "those clones)."
)
SPANS["stage.mining"] += (
    " Attributes: flows; when it produced an extraction also selected "
    "(flows the prefilter kept), min_support, itemsets (maximal "
    "item-sets reported) and the two numbers that explain its cost: "
    "frequent (every frequent item-set the miner counted) and levels "
    "(the largest item-set size, i.e. Apriori passes)."
)

#: Every span-event name, keyed by name (guarded like SPANS).
EVENTS: dict[str, str] = {
    "assembler.watermark": (
        "The assembler's event-time watermark advanced (attribute: "
        "the new watermark)."
    ),
    "assembler.late_drop": (
        "Rows arrived too late and were dropped (attributes: reason "
        "pre_origin|closed_interval, row count)."
    ),
    "assembler.backpressure": (
        "An interval was force-emitted because max_pending_intervals "
        "was exceeded."
    ),
    "federation.straggler": (
        "The straggler watermark forced an interval release before "
        "every expected site reported (attributes: interval, missing "
        "sites)."
    ),
}


def catalogued(registry, name: str):
    """Build (or fetch) the catalogued instrument family ``name``.

    The get-or-create goes through ``registry`` with the catalog's
    kind, label schema, and help text, so every call site that
    resolves an instrument by catalog name agrees by construction.
    """
    spec = CATALOG[name]
    factory = getattr(registry, spec.kind)
    return factory(name, spec.help, spec.labels)


class PipelineInstruments:
    """Every per-pipeline instrument, bound to one pipeline label.

    Built against :data:`~repro.obs.metrics.NULL_REGISTRY` this is a
    bundle of no-op children - instrumented code never checks whether
    observability is on.
    """

    def __init__(self, registry, pipeline: str = "default"):
        self.registry = registry
        self.pipeline = pipeline
        p = pipeline
        # -- core pipeline -------------------------------------------------
        self.intervals = catalogued(
            registry, "repro_intervals_processed_total"
        ).labels(p)
        self.flows = catalogued(
            registry, "repro_flows_processed_total"
        ).labels(p)
        self.alarmed = catalogued(
            registry, "repro_intervals_alarmed_total"
        ).labels(p)
        self.extractions = catalogued(
            registry, "repro_extractions_total"
        ).labels(p)
        self.itemsets = catalogued(
            registry, "repro_itemsets_extracted_total"
        ).labels(p)
        stage = catalogued(registry, "repro_stage_seconds")
        self.stage_binning = stage.labels(p, "binning")
        self.stage_detection = stage.labels(p, "detection")
        self.stage_mining = stage.labels(p, "mining")
        self.stage_triage = stage.labels(p, "triage")
        # -- interval assembly ---------------------------------------------
        self.assembler_accepted = catalogued(
            registry, "repro_assembler_flows_accepted_total"
        ).labels(p)
        late = catalogued(registry, "repro_assembler_late_dropped_total")
        self.late_pre_origin = late.labels(p, "pre_origin")
        self.late_closed = late.labels(p, "closed_interval")
        self.backpressure = catalogued(
            registry, "repro_assembler_backpressure_emits_total"
        ).labels(p)
        self.pending_intervals = catalogued(
            registry, "repro_assembler_pending_intervals"
        ).labels(p)
        self.pending_flows = catalogued(
            registry, "repro_assembler_pending_flows"
        ).labels(p)
        self.watermark_lag = catalogued(
            registry, "repro_assembler_watermark_lag_seconds"
        ).labels(p)
