"""Multi-pipeline fleet execution: N links, one service.

The paper defines its Fig. 3 pipeline per monitored link; a backbone
operator runs it across many links and routers at once (HURRA ranks
across devices, Feremans et al. detect over a *network* of them).
:class:`FleetManager` is that operating mode: it owns one named
:class:`~repro.core.session.ExtractionSession` per link, routes
incoming flow chunks to the right pipeline (a key column, a
``"dst_ip%N"`` shard, a named router, or an explicit per-chunk
tag), keeps one incident store per pipeline, and answers fleet-wide
queries -
:meth:`FleetManager.incidents` merges every store's correlated
incidents and re-ranks them as one population, so the biggest event on
*any* link lands on top.

Because each pipeline receives exactly the rows routed to it, in
arrival order, a fleet pipeline's extractions, reports, and incidents
are byte-identical to a solo run over the same subset - pipeline count
does not change per-pipeline results
(``tests/fleet/test_fleet.py`` holds the invariant).
"""

from __future__ import annotations

import os
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, replace

from repro.core.config import ExtractionConfig
from repro.core.pipeline import ExtractionResult, default_observers
from repro.core.session import ExtractionSession, StreamExtraction
from repro.errors import CheckpointError, ConfigError, ExtractionError
from repro.fleet.routing import Router, resolve_route, route_indices
from repro.flows.stream import DEFAULT_INTERVAL_SECONDS, interval_index
from repro.flows.table import FlowTable
from repro.incidents.correlate import Incident
from repro.incidents.rank import RankedIncident, rank_incidents
from repro.obs.instruments import catalogued
from repro.obs.metrics import MetricsRegistry, time_stage
from repro.state import count, mapping, optional, read_fields
from repro.streaming.assembler import PushCursor

__all__ = ["FleetIncident", "FleetManager"]


@dataclass(frozen=True)
class FleetIncident:
    """One ranked incident with the pipeline (link) it happened on."""

    pipeline: str
    ranked: RankedIncident

    @property
    def incident(self):
        return self.ranked.incident

    @property
    def score(self) -> float:
        return self.ranked.score

    @property
    def components(self) -> dict[str, float]:
        return self.ranked.components

    def to_dict(self) -> dict[str, object]:
        data = self.ranked.to_dict()
        data["pipeline"] = self.pipeline
        return data

    def render(self) -> str:
        return f"[{self.pipeline}] {self.ranked.render()}"


class FleetManager:
    """Run N named extraction pipelines as one service.

    Usage::

        configs = {"linkA": config, "linkB": config}
        with FleetManager(configs, route="dst_ip%2",
                          interval_seconds=900.0) as fleet:
            for chunk in iter_csv("trace.csv"):
                fleet.feed(chunk)
            fleet.finish()
            for entry in fleet.incidents(top=5):
                print(entry.render())

    Args:
        pipelines: ordered mapping of pipeline name ->
            :class:`ExtractionConfig`.  Declaration order defines the
            shard index each pipeline answers to (``route="dst_ip%N"``
            sends ``dst_ip % N == k`` to the k-th declared pipeline).
        route: routing spec resolved by
            :func:`~repro.fleet.routing.resolve_route`; ``None`` means
            every :meth:`feed` must name its pipeline explicitly.
        interval_seconds / origin / seed: as for a single session; the
            same seed drives every pipeline, so a fleet pipeline is
            reproducible against a solo run.
        store_dir: directory of per-pipeline incident stores
            (``<store_dir>/<name>.db``, created if missing).  Without
            it, pipelines whose config names no ``store_path`` get a
            private in-memory store, so :meth:`incidents` always has a
            full fleet view.  A pipeline config's explicit
            ``store_path`` always wins.
        keep_reports: retain per-interval detector reports per
            pipeline (off by default: a fleet is service-shaped, and N
            unbounded report logs are exactly what a service cannot
            hold).
        metrics: one :class:`~repro.obs.metrics.MetricsRegistry` shared
            by every pipeline - each pipeline's instruments carry its
            name as the ``pipeline`` label, so one export answers for
            the whole fleet.  Omitted, a registry is built when any
            pipeline config sets ``obs.enabled``, else the fleet runs
            against the no-op registry.
        tracer: one :class:`~repro.obs.trace.Tracer` shared by every
            pipeline; the fleet opens a ``fleet.run`` root span and
            every pipeline's ``session.run`` tree nests under it, so
            one export shows the whole fleet's trace.  Omitted, a
            tracer is built when any pipeline config sets
            ``obs.trace_path``, else the no-op
            :data:`~repro.obs.trace.NULL_TRACER` is used.

    :meth:`close` releases every store even when one of them fails to
    close (chained ``try``/``finally`` semantics, mirroring
    :meth:`AnomalyExtractor.close`).
    """

    def __init__(
        self,
        pipelines: Mapping[str, ExtractionConfig],
        route: str | Router | None = None,
        interval_seconds: float = DEFAULT_INTERVAL_SECONDS,
        origin: float = 0.0,
        seed: int = 0,
        store_dir: str | os.PathLike[str] | None = None,
        keep_reports: bool = False,
        metrics: MetricsRegistry | None = None,
        tracer=None,
    ):
        if not pipelines:
            raise ConfigError("a fleet needs at least one pipeline")
        for name, config in pipelines.items():
            if not name or not isinstance(name, str):
                raise ConfigError(
                    f"pipeline name must be a non-empty string: {name!r}"
                )
            if not isinstance(config, ExtractionConfig):
                raise ConfigError(
                    f"pipeline {name!r} must map to an ExtractionConfig, "
                    f"got {type(config).__name__}"
                )
        self._names: tuple[str, ...] = tuple(pipelines)
        self._origin, self._interval_seconds = origin, interval_seconds
        # Validate the route before any resource is acquired.
        self._router: Router | None = (
            resolve_route(route, len(self._names))
            if route is not None
            else None
        )
        if store_dir is not None:
            os.makedirs(store_dir, exist_ok=True)
        resolved: dict[str, ExtractionConfig] = {}
        store_owners: dict[str, str] = {}
        for name, config in pipelines.items():
            store_path = config.incidents.store_path
            if store_path is None:
                store_path = (
                    os.path.join(os.fspath(store_dir), f"{name}.db")
                    if store_dir is not None
                    else ":memory:"
                )
                config = config.replace(
                    incidents=replace(config.incidents, store_path=store_path)
                )
            # Correlation is strictly per link; two pipelines writing
            # one store would interleave their reports, duplicate every
            # incident per pipeline tag in incidents(), and fight over
            # the re-ingest marker.  (":memory:" is private per
            # connection, so it never collides.)  Compare resolved
            # paths, not spellings - "shared.db" and "./shared.db" are
            # the same file.
            if store_path != ":memory:":
                resolved_path = os.path.realpath(store_path)
                owner = store_owners.setdefault(resolved_path, name)
                if owner != name:
                    raise ConfigError(
                        f"pipelines {owner!r} and {name!r} share store "
                        f"{store_path!r}; every pipeline needs "
                        f"its own store (use store_dir=)"
                    )
            resolved[name] = config
        metrics, tracer = default_observers(
            list(resolved.values()), metrics, tracer
        )
        self._metrics, self._tracer = metrics, tracer
        self._span = tracer.span("fleet.run", pipelines=len(self._names))
        self._m_fed = catalogued(metrics, "repro_fleet_fed_rows_total")
        self._m_routed = catalogued(metrics, "repro_fleet_routed_rows_total")
        self._m_misrouted = catalogued(
            metrics, "repro_fleet_misrouted_rows_total"
        )
        self._m_ranking = catalogued(metrics, "repro_fleet_ranking_seconds")
        self._sessions: dict[str, ExtractionSession] = {}
        self._results: dict[str, StreamExtraction] | None = None
        self._closed = False
        try:
            # Build pipelines under the fleet root span so every
            # session's own root parents beneath it in the trace.
            with self._span.active():
                for name, config in resolved.items():
                    self._sessions[name] = ExtractionSession(
                        config,
                        seed=seed,
                        metrics=metrics,
                        pipeline=name,
                        tracer=tracer,
                        interval_seconds=interval_seconds,
                        origin=origin,
                        keep_reports=keep_reports,
                    )
        except BaseException:
            # The k-th pipeline failed to build (store locked, bad
            # knob): the k-1 already-opened stores must not leak.
            self.close()
            raise

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def names(self) -> tuple[str, ...]:
        """Pipeline names in declaration (= shard index) order."""
        return self._names

    @property
    def metrics(self) -> MetricsRegistry:
        """The fleet-wide metrics registry (no-op when observability
        is off everywhere)."""
        return self._metrics

    @property
    def tracer(self):
        """The fleet-wide span tracer (no-op when tracing is off
        everywhere)."""
        return self._tracer

    def session(self, pipeline: str) -> ExtractionSession:
        """The named pipeline's session."""
        if pipeline not in self._sessions:
            raise ConfigError(
                f"unknown pipeline {pipeline!r}; "
                f"fleet pipelines: {', '.join(self._names)}"
            )
        return self._sessions[pipeline]

    def _check_open(self, verb: str) -> None:
        if self._closed:
            raise ExtractionError(f"cannot {verb}: fleet is closed")

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def feed(
        self,
        chunk: FlowTable,
        pipeline: str | None = None,
    ) -> dict[str, list[ExtractionResult]]:
        """Route one chunk across the fleet.

        With ``pipeline`` the whole chunk goes to that named session
        (the explicit-tag mode: one capture stream per link).  Without
        it the configured router splits the chunk row-by-row.  Returns
        the per-pipeline extractions completed by this chunk.  A
        refused chunk has fed no pipeline.
        """
        (parts,) = self._admit([chunk], pipeline)
        return self._feed_parts(chunk, parts)

    def feed_all(
        self, chunks: Sequence[FlowTable], pipeline: str | None = None
    ) -> None:
        """:meth:`feed` each chunk in turn, all or nothing: every chunk
        is routed and checked against each pipeline's assembler, as the
        chunks before it would leave it, before the first is fed - so
        a refused batch has fed nothing."""
        for chunk, parts in zip(chunks, self._admit(chunks, pipeline)):
            self._feed_parts(chunk, parts)

    def _admit(
        self, chunks: Sequence[FlowTable], pipeline: str | None
    ) -> list[dict[str, FlowTable]]:
        """Each chunk's per-pipeline parts, every part checked by its
        assembler against the cursor the earlier parts would leave."""
        self._check_open("feed")
        cursors: dict[str, PushCursor] = {}
        admitted = []
        for chunk in chunks:
            # A row with no interval index refuses the whole chunk
            # before any pipeline takes its share.
            interval_index(chunk.start, self._origin, self._interval_seconds)
            if pipeline is not None:
                self.session(pipeline)
                parts = {pipeline: chunk}
            else:
                parts = self.route_chunk(chunk)
            for name, part in parts.items():
                cursors[name] = self._sessions[name].assembler.check(
                    part, cursors.get(name)
                )
            admitted.append(parts)
        return admitted

    def _feed_parts(
        self, chunk: FlowTable, parts: dict[str, FlowTable]
    ) -> dict[str, list[ExtractionResult]]:
        # Counted only once the chunk is admitted: counting earlier
        # would break the conservation invariant sum(routed) == fed
        # that the test suite holds.
        self._m_fed.inc(len(chunk))
        out: dict[str, list[ExtractionResult]] = {}
        for name, part in parts.items():
            self._m_routed.labels(name).inc(len(part))
            out[name] = self._sessions[name].feed(part)
        return out

    def route_chunk(self, chunk: FlowTable) -> dict[str, FlowTable]:
        """Split ``chunk`` per pipeline with the configured router.

        The routing half of :meth:`feed`, exposed on its own so other
        tiers (the federation's per-site collectors, diagnostics) can
        reuse the validated split without feeding any session.
        Pipelines that receive no rows are absent from the result;
        insertion order follows the fleet's pipeline order.
        """
        self._check_open("route_chunk")
        if self._router is None:
            raise ConfigError(
                "fleet has no route configured; pass pipeline=... or "
                "construct the fleet with route="
            )
        indices = route_indices(
            self._router, chunk, len(self._names), self._m_misrouted
        )
        out: dict[str, FlowTable] = {}
        for k, name in enumerate(self._names):
            mask = indices == k
            if mask.any():
                out[name] = chunk.select(mask)
        return out

    def finish(self) -> dict[str, StreamExtraction]:
        """Finish every session (idempotent) and return the
        per-pipeline results in declaration order."""
        self._check_open("finish")
        if self._results is None:
            self._results = {
                name: session.finish()
                for name, session in self._sessions.items()
            }
        return self._results

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """JSON-safe snapshot of every pipeline's resume state.

        Each pipeline carries its session state plus the interval its
        incident store had durably covered when the snapshot was taken.
        The store marker is advisory (the store itself is the durable
        copy); it lets :meth:`from_state` confirm the stores being
        restored against are at least as far along as the checkpoint -
        a store *ahead* of the checkpoint is the normal crash shape
        (appends land before the checkpoint write), a store *behind* it
        means the checkpoint belongs to different store files.
        """
        self._check_open("checkpoint")
        if self._results is not None:
            raise CheckpointError(
                "fleet already finished; checkpoints capture a live run"
            )
        pipelines: dict[str, dict] = {}
        for name, session in self._sessions.items():
            store = session.store
            pipelines[name] = {
                "session": session.to_state(),
                "store_last_interval": (
                    None if store is None else store.last_interval()
                ),
            }
        return {"pipelines": pipelines}

    def from_state(self, state: dict) -> None:
        """Restore :meth:`to_state` data into this freshly built fleet
        (same pipeline names, configs, seed, and stores)."""
        self._check_open("restore")
        if self._results is not None:
            raise CheckpointError(
                "fleet already finished; restore into a fresh fleet"
            )
        pipelines = read_fields(
            "fleet checkpoint state", state, CheckpointError,
            pipelines=mapping,
        )["pipelines"]
        # A JSON object is unordered (the canonical file sorts it):
        # the declaration order is this fleet's, not the document's.
        if set(pipelines) != set(self._names):
            raise CheckpointError(
                f"fleet checkpoint covers pipelines {list(pipelines)} "
                f"but this fleet runs {list(self._names)}; restore with "
                f"the configuration the checkpoint was written under"
            )
        entries = {
            name: read_fields(
                f"checkpoint entry for pipeline {name!r}",
                pipelines[name], CheckpointError,
                session=mapping, store_last_interval=optional(count),
            )
            for name in self._names
        }
        for name, entry in entries.items():
            marker = entry["store_last_interval"]
            if marker is None:
                continue
            store = self._sessions[name].store
            last = None if store is None else store.last_interval()
            if last is None or last < marker:
                raise CheckpointError(
                    f"pipeline {name!r}: checkpoint says the store "
                    f"had covered interval {marker} but the "
                    f"attached store reports "
                    f"{last if last is not None else 'nothing'}; "
                    f"the checkpoint belongs to different store "
                    f"files"
                )
        for name, entry in entries.items():
            self._sessions[name].from_state(entry["session"])

    # ------------------------------------------------------------------
    # Fleet-wide queries
    # ------------------------------------------------------------------
    def incidents(
        self,
        profile: str = "balanced",
        jaccard: float | None = None,
        quiet_gap: int | None = None,
        top: int | None = None,
    ) -> list[FleetIncident]:
        """Correlate every pipeline's store and rank the union.

        Correlation stays strictly per pipeline (an incident never
        spans links - the paper's pipeline is per-link, and merging
        across links would fabricate cross-link events), but ranking
        normalizes over the merged population, so scores are
        comparable fleet-wide.  Ties break on
        ``(first_seen, key, pipeline)`` - fully deterministic.

        Args:
            profile: ranking weight profile (as
                :func:`repro.incidents.rank.rank_incidents`).
            jaccard / quiet_gap: correlation overrides (``None`` = each
                store's own persisted knobs).
            top: keep only the k best-ranked fleet incidents.
        """
        self._check_open("query incidents")
        with self._span.active(), time_stage(
            self._m_ranking
        ), self._tracer.span("fleet.rank", profile=profile):
            return self._ranked_incidents(profile, jaccard, quiet_gap, top)

    def _ranked_incidents(
        self,
        profile: str,
        jaccard: float | None,
        quiet_gap: int | None,
        top: int | None,
    ) -> list[FleetIncident]:
        if top is not None and top < 1:
            raise ConfigError(f"top must be >= 1: {top}")
        population: list[Incident] = []
        pipeline_of: dict[int, str] = {}
        for name, session in self._sessions.items():
            store = session.store
            for incident in store.correlated(jaccard, quiet_gap):
                population.append(incident)
                pipeline_of[id(incident)] = name
        # One population, so scores normalize across the whole fleet;
        # rank_incidents' order is refined by pipeline name on ties.
        merged = [
            FleetIncident(pipeline=pipeline_of[id(r.incident)], ranked=r)
            for r in rank_incidents(population, profile=profile)
        ]
        merged.sort(
            key=lambda f: (
                -f.score, f.incident.first_seen, f.incident.key, f.pipeline
            )
        )
        return merged if top is None else merged[:top]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release every pipeline, stores included (idempotent).

        Every release is attempted even when an earlier one raises -
        the fd symmetry the single-pipeline
        :meth:`AnomalyExtractor.close` guarantees, extended across the
        fleet; the first failure is re-raised once everything has been
        tried.
        """
        if self._closed:
            return
        self._closed = True
        self._span.end()
        first: BaseException | None = None
        for session in self._sessions.values():
            try:
                session.close()
            except BaseException as exc:
                if first is None:
                    first = exc
        if first is not None:
            raise first

    def __enter__(self) -> "FleetManager":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"FleetManager(pipelines={list(self._names)}, "
            f"closed={self._closed})"
        )
