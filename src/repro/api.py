"""The stable, documented facade of the repro library.

Eight verbs cover the paper's workflow end to end:

* :func:`extract` - extraction over a stored trace (file or
  :class:`~repro.flows.table.FlowTable`), fed to a session interval by
  interval;
* :func:`stream` - the same pipeline chunk-by-chunk with bounded
  memory;
* :func:`session` - the push-based execution surface underneath both:
  feed chunks, collect results, finish;
* :func:`open_fleet` - N named pipelines (one per link/router) behind
  one router;
* :func:`open_store` - open/create a persistent incident store;
* :func:`rank` - correlate and rank a store's reports into triaged
  incidents;
* :func:`serve` - run a fleet as a long-lived daemon (HTTP/TCP
  ingest, incident queries, Prometheus metrics) with durable
  checkpoint/resume;
* :func:`federate` - merge multiple vantage points' sketch digests
  into one global detection and incident ranking.

Everything accepts either a ready :class:`ExtractionConfig`, a nested
dict, or a path to a TOML run config, plus flat keyword overrides::

    import repro.api as repro

    result = repro.extract("trace.npz", min_support=500)
    result = repro.extract("trace.csv", config="run.toml", miner="eclat")
    summary = repro.stream("trace.csv", config="run.toml")
    for entry in repro.rank("incidents.db", top=5):
        print(entry.render())

The names re-exported here (the eight verbs among them) are the
supported surface; internals may move between modules, these stay.
``miners``, ``feature_sets``, ``readers`` and ``routers`` are the
built-in tables a name in a config resolves against.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
from collections.abc import Iterable, Mapping, Sequence
from typing import Any, TextIO

from repro.core.config import (
    ConfigLike,
    ExtractionConfig,
    FederationSettings,
    FleetSettings,
    IncidentSettings,
    MiningSettings,
    RunConfig,
    ServiceSettings,
    StreamingSettings,
    apply_section_overrides,
)
from repro.core.pipeline import (
    AnomalyExtractor,
    ExtractionResult,
    IntervalSink,
    ReportSink,
    default_observers,
)
from repro.core.report import ExtractionReport, TriagedItemset
from repro.core.session import (
    ExtractionSession,
    StreamExtraction,
    run_session,
    run_trace,
)
from repro.detection.detector import DetectorConfig
from repro.detection.features import (
    CustomFeature,
    Feature,
    feature_sets,
    resolve_features,
)
from repro.errors import (
    CheckpointError,
    ConfigError,
    ExtractionError,
    FederationError,
    ReproError,
    ServiceError,
    SketchError,
)
from repro.federation import (
    Collector,
    FederationResult,
    Federator,
    IntervalDigest,
    split_trace,
)
from repro.federation.tier import (
    federate_digests,
    federate_traces,
    open_federator,
    read_digest_files,
)
from repro.fleet.manager import FleetIncident, FleetManager
from repro.fleet.routing import DEFAULT_ROUTE_COLUMN, routers
from repro.flows.io import (
    DEFAULT_CHUNK_ROWS,
    flow_chunks,
    iter_csv,
    read_trace,
    readers,
    trace_format,
)
from repro.flows.stream import DEFAULT_INTERVAL_SECONDS
from repro.flows.table import FlowTable
from repro.incidents.provenance import (
    IncidentProvenance,
    explain_incident,
)
from repro.incidents.rank import RankedIncident, rank_incidents  # noqa: F401
from repro.incidents.store import IncidentStore
from repro.incidents.store import open_store as _open_store
from repro.mining import miners
from repro.obs.export import render_json, render_prometheus  # noqa: F401
from repro.obs.log import get_logger
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    MetricsRegistry,
    time_stage,
)
from repro.obs.trace import NULL_TRACER, Tracer, render_trace

__all__ = [
    "extract",
    "stream",
    "session",
    "open_fleet",
    "open_store",
    "rank",
    "serve",
    "federate",
    "metrics",
    "resolve_config",
    # Curated re-exports (the stable names).
    "AnomalyExtractor",
    "ExtractionSession",
    "FleetManager",
    "FleetIncident",
    "FleetSettings",
    "ServiceSettings",
    "FederationSettings",
    "ExtractionConfig",
    "DetectorConfig",
    "MiningSettings",
    "StreamingSettings",
    "IncidentSettings",
    "ExtractionResult",
    "StreamExtraction",
    "ExtractionReport",
    "TriagedItemset",
    "RankedIncident",
    "IncidentStore",
    "Collector",
    "Federator",
    "IntervalDigest",
    "FederationResult",
    "FlowTable",
    "iter_csv",
    "read_trace",
    "Feature",
    "CustomFeature",
    "resolve_features",
    "ReportSink",
    "IntervalSink",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "DEFAULT_BUCKETS",
    "time_stage",
    "tracer",
    "Tracer",
    "NULL_TRACER",
    "render_trace",
    "explain_incident",
    "IncidentProvenance",
    "get_logger",
    "miners",
    "feature_sets",
    "readers",
    "routers",
    "ReproError",
    "ConfigError",
    "ServiceError",
    "CheckpointError",
    "FederationError",
    "SketchError",
]


def resolve_config(
    config: ConfigLike,
    **overrides: object,
) -> ExtractionConfig:
    """Normalize every accepted config spelling into an
    :class:`ExtractionConfig`.

    ``config`` may be a ready config, a nested mapping, a path to a
    TOML run config, an already loaded
    :class:`~repro.core.config.RunConfig`, or ``None`` for defaults; a
    mapping or file may carry the
    ``[fleet]``/``[service]``/``[federation]`` run tables,
    which are validated and otherwise unused here
    (:meth:`RunConfig.load <repro.core.config.RunConfig.load>` reads
    every spelling for every verb).  ``overrides`` are flat or grouped
    fields applied on top (the equivalent of explicit CLI flags over a
    ``--config`` file).
    """
    return RunConfig.load(config, **overrides).base


def _load_flows(trace: FlowTable | str | os.PathLike[str]) -> FlowTable:
    if isinstance(trace, FlowTable):
        return trace
    return read_trace(trace)


def metrics(
    source: object | None = None,
    *,
    buckets: tuple[float, ...] = DEFAULT_BUCKETS,
) -> MetricsRegistry:
    """The metrics registry of a pipeline object, or a fresh one.

    With ``source`` (an :class:`AnomalyExtractor`,
    :class:`ExtractionSession`, or :class:`FleetManager`) this returns
    the registry that object records into - the no-op registry when
    observability is off.  Without ``source`` it builds a fresh enabled
    :class:`MetricsRegistry` to pass into :func:`session`,
    :func:`extract`, or :func:`open_fleet` via ``metrics=``::

        reg = repro.metrics()
        repro.extract("trace.npz", metrics=reg)
        print(reg.render_prometheus())
    """
    if source is None:
        return MetricsRegistry(buckets=buckets)
    found = getattr(source, "metrics", None)
    if found is None or not hasattr(found, "snapshot"):
        raise ConfigError(
            f"{type(source).__name__} does not expose a metrics registry"
        )
    return found


def tracer(source: object | None = None) -> Tracer:
    """The span tracer of a pipeline object, or a fresh one.

    With ``source`` (an :class:`AnomalyExtractor`,
    :class:`ExtractionSession`, or :class:`FleetManager`) this returns
    the tracer that object records spans into - the no-op
    :data:`~repro.obs.trace.NULL_TRACER` when tracing is off.  Without
    ``source`` it builds a fresh enabled :class:`Tracer` to pass into
    :func:`session`, :func:`extract`, :func:`stream`, or
    :func:`open_fleet` via ``tracer=``::

        t = repro.tracer()
        repro.extract("trace.npz", tracer=t)
        print(repro.render_trace(t, "text"))
    """
    if source is None:
        return Tracer()
    found = getattr(source, "tracer", None)
    if found is None or not hasattr(found, "span"):
        raise ConfigError(
            f"{type(source).__name__} does not expose a span tracer"
        )
    return found


def session(
    config: ConfigLike = None,
    *,
    mode: str = "stream",
    interval_seconds: float = DEFAULT_INTERVAL_SECONDS,
    origin: float = 0.0,
    seed: int = 0,
    sink: ReportSink | None = None,
    keep_reports: bool = True,
    metrics: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    **overrides: object,
) -> ExtractionSession:
    """Open a push-based :class:`ExtractionSession` - the redesigned
    execution surface.

    The session is an :class:`AnomalyExtractor` with a flow source, so
    closing it (use it as a context manager) releases the incident
    store even when a mid-feed chunk raised::

        with repro.session(min_support=500) as s:
            for chunk in repro.iter_csv("trace.csv"):
                for extraction in s.feed(chunk):
                    print(extraction.render())
            summary = s.finish()

    Args:
        config: config object / nested dict / TOML path (see
            :func:`resolve_config`).
        mode: "stream", the one session mode (results from
            ``feed()`` as intervals close); a stored trace runs
            through :func:`extract`.
        interval_seconds / origin / seed / sink: as in :func:`extract`.
        keep_reports: retain per-interval detector reports (set False
            for unbounded streams).
        metrics: optional :class:`MetricsRegistry` the run records
            into; defaults to one built from ``config.obs`` (the no-op
            registry unless ``[obs] enabled = true``).
        tracer: optional :class:`Tracer` the run records spans into;
            defaults to one built from ``config.obs`` (the no-op
            tracer unless ``[obs] trace_path`` is set).
        **overrides: flat or grouped config fields.
    """
    if mode != "stream":
        raise ExtractionError(
            f"unknown session mode {mode!r}: a session streams; run a "
            f"whole trace through api.extract"
        )
    return ExtractionSession(
        resolve_config(config, **overrides),
        seed=seed,
        metrics=metrics,
        tracer=tracer,
        interval_seconds=interval_seconds,
        origin=origin,
        sink=sink,
        keep_reports=keep_reports,
    )


def extract(
    trace: FlowTable | str | os.PathLike[str],
    config: ConfigLike = None,
    *,
    interval_seconds: float = DEFAULT_INTERVAL_SECONDS,
    origin: float = 0.0,
    seed: int = 0,
    sink: ReportSink | None = None,
    metrics: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    **overrides: object,
) -> StreamExtraction:
    """Run the full pipeline (Fig. 3) over a stored trace: a session
    fed the trace's intervals in order.

    Every interval is mined on its own and every extraction is kept,
    whatever the config's ``[streaming]`` table says.

    Args:
        trace: a :class:`FlowTable` or a ``.npz`` / ``.csv`` path
            (:func:`read_trace`).
        config: config object / nested dict / TOML path (see
            :func:`resolve_config`).
        interval_seconds: measurement interval length ``L``.
        origin: timestamp of interval 0.
        seed: detector hash seed.
        sink: optional report sink; defaults to the store opened via
            ``config.incidents.store_path`` when one is set.
        metrics: optional :class:`MetricsRegistry` the run records
            into (see :func:`metrics`).
        tracer: optional :class:`Tracer` the run records spans into
            (see :func:`tracer`).
        **overrides: flat or grouped config fields, e.g.
            ``min_support=500``, ``miner="fpgrowth"``.

    Returns:
        The :class:`StreamExtraction` with one
        :class:`ExtractionResult` per alarmed interval.
    """
    flows = _load_flows(trace)
    with ExtractionSession(
        resolve_config(config, **overrides).replace(
            streaming=StreamingSettings()
        ),
        seed=seed,
        metrics=metrics,
        tracer=tracer,
        interval_seconds=interval_seconds,
        origin=origin,
        sink=sink,
    ) as opened:
        return run_trace(opened, flows)


def stream(
    source: (
        Iterable[FlowTable] | str | os.PathLike[str]
    ),
    config: ConfigLike = None,
    *,
    interval_seconds: float = DEFAULT_INTERVAL_SECONDS,
    origin: float = 0.0,
    seed: int = 0,
    sink: ReportSink | None = None,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    keep_reports: bool = True,
    metrics: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    **overrides: object,
) -> StreamExtraction:
    """Run the pipeline chunk-by-chunk with bounded memory.

    ``source`` is any iterable of :class:`FlowTable` chunks, or a path
    the CLI's run verbs read (:func:`~repro.flows.io.flow_chunks`): a
    ``.csv`` streamed ``chunk_rows`` lines at a time, or a ``.npz`` fed
    interval by interval.  With default settings a time-ordered
    stream's result equals :func:`extract`'s; see :func:`session` for
    the incremental API (``feed`` / ``flush`` / ``finish``) and the
    retention knobs (``keep_reports`` here,
    ``streaming.keep_extractions`` in the config).

    Returns:
        The :class:`StreamExtraction` summary (counters always
        populated; ``extractions`` empty when
        ``config.streaming.keep_extractions`` is False).
    """
    if isinstance(source, (str, os.PathLike)) and os.fspath(source) != "-":
        trace_format(source)  # refused before the store is created
    with session(
        config,
        interval_seconds=interval_seconds,
        origin=origin,
        seed=seed,
        sink=sink,
        keep_reports=keep_reports,
        metrics=metrics,
        tracer=tracer,
        **overrides,
    ) as opened:
        chunks = (
            flow_chunks(
                source, chunk_rows, interval_seconds, origin, opened.metrics
            )
            if isinstance(source, (str, os.PathLike))
            else source
        )
        return run_session(opened, chunks)


def open_fleet(
    config: ConfigLike = None,
    *,
    pipelines: (
        int | Sequence[str] | Mapping[str, object] | None
    ) = None,
    route: str | None = None,
    store_dir: str | os.PathLike[str] | None = None,
    interval_seconds: float = DEFAULT_INTERVAL_SECONDS,
    origin: float = 0.0,
    seed: int = 0,
    keep_reports: bool = False,
    metrics: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    **overrides: object,
) -> FleetManager:
    """Open a :class:`FleetManager`: N named pipelines, one router,
    per-pipeline incident stores.

    ``config`` is the base pipeline every link starts from - a ready
    :class:`ExtractionConfig`, a nested dict, or a TOML run config.  A
    dict or TOML config may carry a ``[fleet]`` table
    (:class:`FleetSettings`): its ``pipelines`` / ``route`` /
    ``store_dir`` become the defaults that the keyword arguments here
    override (the same flags-over-file layering as the CLI)::

        with repro.open_fleet("fleet.toml") as fleet:                  # file
            ...
        with repro.open_fleet(pipelines=4, route="dst_ip%4",           # code
                              min_support=300) as fleet:
            for chunk in repro.iter_csv("trace.csv"):
                fleet.feed(chunk)
            fleet.finish()
            top = fleet.incidents(top=10)

    Args:
        config: base config / nested dict / TOML path (see
            :func:`resolve_config`); dict/TOML may include ``[fleet]``.
        pipelines: an int (generates ``link0..linkN-1`` on the base
            config), a sequence of names (each on the base config), or
            a mapping of name -> per-pipeline section-override dict /
            :class:`ExtractionConfig` / ``None`` (= base).  ``None``
            uses the config file's ``[fleet.pipelines.*]`` tables.
        route / store_dir / interval_seconds / origin / seed /
            keep_reports: see :class:`FleetManager`.
        **overrides: flat or grouped base-config fields
            (``min_support=500``, ``miner="eclat"``, ...).
    """
    run = RunConfig.load(config, **overrides)
    base, settings = run.base, run.fleet
    if route is None:
        route = settings.route
    if store_dir is None:
        store_dir = settings.store_dir
    configs: dict[str, ExtractionConfig]
    if pipelines is None:
        configs = settings.pipeline_configs()
        if not configs:
            raise ConfigError(
                "no pipelines configured: pass pipelines=... or add "
                "[fleet.pipelines.<name>] sections to the run config"
            )
    elif isinstance(pipelines, int):
        configs = {f"link{i}": base for i in range(pipelines)}
    elif isinstance(pipelines, Mapping):
        configs = {}
        for name, spec in pipelines.items():
            if spec is None:
                configs[name] = base
            elif isinstance(spec, ExtractionConfig):
                configs[name] = spec
            elif isinstance(spec, Mapping):
                configs[name] = apply_section_overrides(base, spec)
            else:
                raise ConfigError(
                    f"pipeline {name!r} must map to an ExtractionConfig, "
                    f"a section-override mapping, or None, "
                    f"got {type(spec).__name__}"
                )
    else:
        # The table refuses a repeated name, which a dict would
        # silently collapse into fewer pipelines than declared.
        configs = FleetSettings(
            pipelines=tuple((str(name), base) for name in pipelines)
        ).pipeline_configs()
    return FleetManager(
        configs,
        route=route,
        store_dir=store_dir,
        interval_seconds=interval_seconds,
        origin=origin,
        seed=seed,
        keep_reports=keep_reports,
        metrics=metrics,
        tracer=tracer,
    )


def open_store(
    path: str | os.PathLike[str],
    *,
    must_exist: bool = False,
    jaccard: float | None = None,
    quiet_gap: int | None = None,
) -> IncidentStore:
    """Open (or create) the persistent incident store at ``path``.

    A thin alias of :func:`repro.incidents.store.open_store`, exported
    here so the whole persist-correlate-rank workflow is reachable from
    one module.
    """
    return _open_store(
        path, must_exist=must_exist, jaccard=jaccard, quiet_gap=quiet_gap
    )


def rank(
    store: IncidentStore | str | os.PathLike[str],
    *,
    profile: str = "balanced",
    jaccard: float | None = None,
    quiet_gap: int | None = None,
    top: int | None = None,
) -> list[RankedIncident]:
    """Correlate and rank a store's reports into triaged incidents.

    Args:
        store: an open :class:`IncidentStore` or a path to one (opened
            read-style with ``must_exist=True`` and closed after the
            query).
        profile: ranking weight profile ("balanced", "volume",
            "campaign", or a
            :class:`~repro.incidents.rank.WeightProfile`).
        jaccard / quiet_gap: correlation overrides (``None`` = the
            store's persisted knobs).
        top: keep only the k best-ranked incidents.
    """
    if isinstance(store, (str, os.PathLike)):
        with _open_store(store, must_exist=True) as opened:
            return opened.incidents(jaccard, quiet_gap, profile, top)
    return store.incidents(jaccard, quiet_gap, profile, top)


def serve(
    config: ConfigLike = None,
    *,
    pipelines: (
        int | Sequence[str] | Mapping[str, object] | None
    ) = None,
    route: str | None = None,
    store_dir: str | os.PathLike[str] | None = None,
    host: str | None = None,
    port: int | None = None,
    ingest_port: int | None = None,
    checkpoint_path: str | os.PathLike[str] | None = None,
    checkpoint_every: int | None = None,
    resume: bool = False,
    interval_seconds: float = DEFAULT_INTERVAL_SECONDS,
    origin: float = 0.0,
    seed: int = 0,
    metrics: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    log: TextIO | None = None,
    **overrides: object,
) -> None:
    """Run a fleet as a long-lived extraction daemon (blocking).

    Opens a :class:`FleetManager` like :func:`open_fleet`, whose
    pipelines retain no extractions, then serves it over the stdlib
    HTTP/TCP service until SIGINT/SIGTERM:
    ``POST /ingest`` and the optional TCP line socket feed the fleet,
    ``GET /incidents`` / ``GET /incidents/<id>`` serve the merged
    ranking and per-incident provenance, ``GET /metrics`` the
    Prometheus export, ``GET /healthz`` per-pipeline watermark lag and
    backpressure.  A dict or TOML config may carry a ``[service]``
    table (:class:`ServiceSettings`); keyword arguments here override
    it, the same flags-over-file layering as ``repro-extract serve``::

        repro.serve("fleet.toml", resume=True)
        repro.serve(pipelines=2, route="dst_ip%2", port=0,
                    checkpoint_path="run.ckpt")

    With ``checkpoint_path`` set (it requires durable per-pipeline
    stores, so ``store_dir`` too) the daemon persists the whole fleet's
    resume state every ``checkpoint_every`` accepted ingest batches and
    once more at graceful shutdown; ``resume=True`` restores a killed
    run from that file and continues mid-stream without re-ingesting.

    Args:
        config: base config / nested dict / TOML path (see
            :func:`open_fleet`); dict/TOML may include ``[fleet]`` and
            ``[service]`` tables.
        pipelines / route / store_dir: as in :func:`open_fleet`, except
            that with nothing configured the daemon defaults to one
            ``link0`` pipeline instead of raising, and to hash-sharding
            ``dst_ip`` over its pipelines instead of refusing un-tagged
            ingest.
        host / port / ingest_port / checkpoint_path / checkpoint_every:
            :class:`ServiceSettings` overrides (``port=0`` binds an
            ephemeral port, announced on ``log``).
        resume: continue the run persisted at ``checkpoint_path``.
        interval_seconds / origin / seed / metrics / tracer: as in
            :func:`open_fleet`; ``metrics`` defaults to a *live*
            registry - ``/metrics`` is part of the daemon's contract.
        log: optional text stream for the "serving http://..."
            announcement (default ``sys.stderr``).
        **overrides: flat or grouped base-config fields.
    """
    from repro.service.supervisor import run_service

    given = {
        "host": host,
        "port": port,
        "ingest_port": ingest_port,
        "checkpoint_path": (
            None if checkpoint_path is None else os.fspath(checkpoint_path)
        ),
        "checkpoint_every": checkpoint_every,
    }
    run = RunConfig.load(
        config,
        {"service": {k: v for k, v in given.items() if v is not None}},
        **overrides,
    )
    # A daemon cannot take explicit tags from every client, and one
    # without explicit pipelines watches one link.
    if pipelines is None and not run.fleet.pipelines:
        pipelines = 1
    if route is None and run.fleet.route is None:
        route = DEFAULT_ROUTE_COLUMN
    # One registry - live whatever [obs] enabled says: /metrics is part
    # of the daemon's contract - and one tracer, for the fleet and the
    # federator alike.
    live = dataclasses.replace(run.base.obs, enabled=True)
    registry, spans = default_observers(
        [run.base.replace(obs=live)], metrics, tracer
    )
    shared: dict[str, Any] = {
        "interval_seconds": interval_seconds,
        "origin": origin,
        "seed": seed,
        "metrics": registry,
        "tracer": spans,
    }
    with contextlib.ExitStack() as stack:
        federator = (
            stack.enter_context(
                open_federator(run.base, run.federation, **shared)
            )
            if run.federation.configured
            else None
        )
        fleet = stack.enter_context(open_fleet(
            run, pipelines=pipelines, route=route, store_dir=store_dir,
            **shared,
        ))
        # No route reads retained extractions (``/incidents`` reads the
        # stores), so a daemon keeps none, whatever the config says: a
        # months-long run must not grow by one result per alarm.
        for name in fleet.names:
            fleet.session(name).keep_extractions = False
        run_service(
            fleet, run.service, resume=resume, log=log, federator=federator
        )


def federate(
    traces: (
        Mapping[str, FlowTable | str | os.PathLike[str]]
        | Sequence[str | os.PathLike[str]]
        | FlowTable
        | str
        | os.PathLike[str]
    ),
    config: ConfigLike = None,
    *,
    sites: Sequence[str] | None = None,
    route: str | None = None,
    interval_seconds: float = DEFAULT_INTERVAL_SECONDS,
    origin: float = 0.0,
    seed: int = 0,
    min_support: int | None = None,
    straggler_grace: int | None = None,
    store: IncidentStore | str | os.PathLike[str] | None = None,
    profile: str = "balanced",
    top: int | None = None,
    metrics: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    **overrides: object,
) -> FederationResult:
    """Federate multiple vantage points' traces into one global view.

    Each site's trace is summarized interval-by-interval into mergeable
    digests (each feature's distinct values and their flow counts,
    O(distinct values) per site, not O(flows)); one federator merges
    every interval across sites, runs the KL detectors over the clone
    histograms derived from the merged view, and turns alarmed
    intervals into triaged, ranked incidents - the offline shape of the
    ``repro-extract federate`` workflow::

        result = repro.federate({"pop-east": "east.npz",
                                 "pop-west": "west.npz"})
        result = repro.federate("combined.csv", sites=["a", "b"],
                                route="dst_ip%2", min_support=500)
        result = repro.federate(["east.jsonl", "west.jsonl"])
        for entry in result.incidents:
            print(entry.render())

    Args:
        traces: a mapping of site name -> trace (each a
            :class:`FlowTable` or a readable trace path); one combined
            trace to split across ``sites`` by ``route`` (as if each
            site had captured its own share); or a list of digest
            JSONL files already written by the sites' collectors
            (``repro-extract federate collect``), whose digests name
            the sites.
        config: config object / nested dict / TOML path (see
            :func:`resolve_config`); dict/TOML may carry a
            ``[federation]`` table (:class:`FederationSettings`) whose
            ``sites`` / ``route`` / ``min_support`` /
            ``straggler_grace`` keys become the defaults the keyword
            arguments here override.
        sites: site names for the single-trace form (overrides
            ``[federation] sites``); ignored when ``traces`` is a
            mapping, refused with digest files.
        route: routing spec splitting a single trace across sites
            (default ``[federation] route``, else ``dst_ip``); refused
            with digest files.
        interval_seconds / origin / seed: the shared interval grid and
            hash seed - identical at every site by construction here;
            live collectors must agree on them out of band.
        min_support: support floor for merged single-item sets, read
            as exact flow counts (overrides ``[federation]
            min_support``).
        straggler_grace: release an interval once this many later
            intervals have been seen, merging whatever arrived
            (overrides ``[federation] straggler_grace``).
        store: optional incident store (open
            :class:`IncidentStore` or path) the federation's reports
            are appended to.
        profile / top: incident ranking knobs (see :func:`rank`).
        metrics / tracer: observability hooks (see :func:`metrics` /
            :func:`tracer`).
        **overrides: flat or grouped base-config fields
            (``features="paper5"``, ``detector={"clones": 8}``, ...);
            the detector group configures the clone geometry every
            site's digests must share.
    """
    given = {"min_support": min_support, "straggler_grace": straggler_grace}
    run = RunConfig.load(
        config,
        {"federation": {k: v for k, v in given.items() if v is not None}},
        **overrides,
    )
    settings = run.federation
    digests = None
    if isinstance(traces, Mapping):
        site_traces = {
            str(site): _load_flows(trace)
            for site, trace in traces.items()
        }
        site_names = tuple(site_traces)
    elif isinstance(traces, (FlowTable, str, os.PathLike)):
        site_names = (
            tuple(str(s) for s in sites)
            if sites is not None
            else settings.sites
        )
        if not site_names:
            raise FederationError(
                "federating a single trace needs site names: pass "
                "sites=[...] or configure [federation] sites"
            )
        spec = route if route is not None else settings.route
        if spec is None:
            spec = DEFAULT_ROUTE_COLUMN
        site_traces = split_trace(_load_flows(traces), site_names, spec)
    else:
        paths = list(traces)
        if sites is not None or route is not None:
            raise FederationError(
                "digest files name their own sites: sites= and route= "
                "apply only to a single combined trace"
            )
        if not all(isinstance(path, (str, os.PathLike)) for path in paths):
            raise FederationError(
                "a sequence passed to federate() lists digest JSONL "
                "files; give traces as a {site: trace} mapping"
            )
        digests = read_digest_files(paths)
        site_names = tuple(sorted({
            site for digest, _ in digests for site in digest.sites
        }))
    with open_federator(
        run.base,
        settings,
        sites=site_names,
        store=store,
        seed=seed,
        interval_seconds=interval_seconds,
        origin=origin,
        metrics=metrics,
        tracer=tracer,
    ) as federator:
        if digests is not None:
            return federate_digests(
                federator, digests, profile=profile, top=top
            )
        return federate_traces(
            federator, site_traces, profile=profile, top=top, tracer=tracer
        )
