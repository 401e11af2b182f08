"""The daemon's request dispatcher (transport-independent).

:class:`ServiceApp` owns everything between a parsed
:class:`~repro.service.protocol.HttpRequest` and a status/body pair:
route matching, CSV and JSONL ingest, digest ingest for
federated daemons (``POST /digest``), the ingest sequence protocol,
periodic checkpointing, the merged incident ranking, incident
provenance, the Prometheus export, and the health probe.  Keeping it
synchronous and transport-free is what makes it testable without a
socket - the supervisor is a thin asyncio shell around
:meth:`ServiceApp.handle`.

The ingest sequence protocol: every accepted ingest batch (one HTTP
``POST /ingest`` body, one TCP batch) increments ``sequence``; every
``checkpoint_every``-th batch also writes a durable checkpoint, and the
response reports both ``sequence`` and ``checkpointed_sequence``.  A
client that crashes the daemon replays its stream from
``checkpointed_sequence``; the restored fleet's resume floors absorb
the overlap.
"""

from __future__ import annotations

import io
import json
import time
from collections.abc import Iterable
from typing import Any

from repro.errors import (
    CheckpointError,
    ConfigError,
    FederationError,
    FlowError,
    IncidentError,
    ReproError,
    ServiceError,
    SketchError,
    TraceFormatError,
)
from repro.federation.digest import read_digests
from repro.federation.federator import Federator
from repro.fleet.manager import FleetManager
from repro.flows.io import iter_csv_handle, iter_csv_lines, iter_jsonl_handle
from repro.flows.table import FlowTable
from repro.incidents.provenance import explain_incident
from repro.obs.instruments import catalogued
from repro.obs.log import get_logger
from repro.registry import lookup
from repro.service.checkpoint import fleet_checkpoint, write_checkpoint
from repro.service.protocol import HttpRequest

#: ``POST /ingest`` body decoders by ``?format=``.
_INGEST_FORMATS = {"csv": iter_csv_handle, "jsonl": iter_jsonl_handle}

_JSON_CONTENT = "application/json"

_LOG = get_logger("service")


def _json_body(payload: Any) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def _error_body(message: str) -> bytes:
    return _json_body({"error": message})


class ServiceApp:
    """Dispatch requests against one live fleet.

    Args:
        fleet: the running :class:`FleetManager` (the app borrows it;
            the supervisor/CLI owns its lifecycle).
        checkpoint_path: durable checkpoint file, or ``None`` to run
            without checkpointing (``checkpointed_sequence`` stays 0
            and ``/healthz`` reports ``"checkpointing": false``).
        checkpoint_every: write a checkpoint every N accepted ingest
            batches.
        checkpoint_sync: fsync each checkpoint before the atomic
            rename.  Off by default: kill-safety needs only the
            rename, and fsync dominates the per-interval checkpoint
            budget on ordinary disks.
        chunk_rows: rows per chunk fed into the fleet from one ingest
            body (bounds parser memory on large bodies).
        sequence: the resumed ingest sequence (0 for a fresh run).
        federator: optional
            :class:`~repro.federation.federator.Federator`.  When set,
            the daemon also accepts ``POST /digest`` (per-site
            :class:`~repro.federation.digest.IntervalDigest` documents,
            one JSON object per line), its checkpoints carry the
            federator's resume state (its reports stay in its store,
            which must be durable when checkpointing), and
            ``/healthz`` reports the federation posture.
    """

    def __init__(
        self,
        fleet: FleetManager,
        checkpoint_path: str | None = None,
        checkpoint_every: int = 1,
        checkpoint_sync: bool = False,
        chunk_rows: int = 4096,
        sequence: int = 0,
        federator: Federator | None = None,
    ):
        if checkpoint_every < 1:
            raise ConfigError(
                f"checkpoint_every must be >= 1: {checkpoint_every}"
            )
        if chunk_rows < 1:
            raise ConfigError(f"chunk_rows must be >= 1: {chunk_rows}")
        if sequence < 0:
            raise ConfigError(f"sequence must be >= 0: {sequence}")
        if checkpoint_path is not None:
            for name in fleet.names:
                store = fleet.session(name).store
                if store is None or store.path == ":memory:":
                    raise ConfigError(
                        f"checkpointing requires a durable incident "
                        f"store per pipeline, but {name!r} uses "
                        f"{':memory:' if store else 'no store'}; set "
                        f"store_dir/store_path or drop checkpoint_path"
                    )
            # The federation's reports live only in its store: one in
            # memory would lose every report made before a crash.
            if (
                federator is not None
                and federator.store.path == ":memory:"
            ):
                raise ConfigError(
                    "checkpointing a federated daemon requires a durable "
                    "federation store, but the federator's is :memory:; "
                    "set [federation] store_path or drop checkpoint_path"
                )
        self.fleet = fleet
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        self.checkpoint_sync = checkpoint_sync
        self.chunk_rows = chunk_rows
        self.sequence = sequence
        self.federator = federator
        #: Sequence covered by the newest durable checkpoint.  A
        #: resumed daemon starts with both counters equal; they only
        #: diverge between checkpoint writes.
        self.checkpointed_sequence = sequence
        #: Why the newest periodic checkpoint failed (``None`` once a
        #: write succeeds again); ``/healthz`` shows it.
        self.checkpoint_error: str | None = None
        self._tracer = fleet.tracer
        registry = fleet.metrics
        self._m_requests = catalogued(
            registry, "repro_service_requests_total"
        )
        self._m_request_seconds = catalogued(
            registry, "repro_service_request_seconds"
        )
        self._m_ingest_rows = catalogued(
            registry, "repro_service_ingest_rows_total"
        ).labels()
        self._m_ckpt_writes = catalogued(
            registry, "repro_checkpoint_writes_total"
        ).labels()
        self._m_ckpt_failures = catalogued(
            registry, "repro_checkpoint_failures_total"
        ).labels()
        self._m_ckpt_seconds = catalogued(
            registry, "repro_checkpoint_write_seconds"
        ).labels()
        self._m_ckpt_bytes = catalogued(
            registry, "repro_checkpoint_bytes"
        ).labels()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def handle(self, request: HttpRequest) -> tuple[int, bytes, str]:
        """Serve one request; returns (status, body, content type).

        Library errors map to client statuses (400 bad input, 404
        unknown incident, 409 ingest conflicts, 413 oversized bodies);
        anything unexpected becomes a 500 carrying the exception text.
        """
        route = self._route_of(request)
        started = time.perf_counter()
        with self._tracer.span(
            "service.request", method=request.method, route=route
        ) as span:
            content_type = _JSON_CONTENT
            try:
                status, body, content_type = self._dispatch(
                    request, route
                )
            except IncidentError as exc:
                status = 404 if "no incident" in str(exc) else 409
                body = _error_body(str(exc))
            except (
                ServiceError,
                TraceFormatError,
                FlowError,
                ConfigError,
                FederationError,
                SketchError,
            ) as exc:
                status, body = 400, _error_body(str(exc))
            except Exception as exc:
                # The transport must answer and count every request;
                # outside ReproError this is a bug, so keep its trace.
                if not isinstance(exc, ReproError):
                    _LOG.exception(
                        "unhandled error serving %s %s",
                        request.method, request.path,
                    )
                status, body = 500, _error_body(str(exc))
            span.set_attribute("status", status)
        self._m_requests.labels(
            request.method, route, str(status)
        ).inc()
        self._m_request_seconds.labels(route).observe(
            time.perf_counter() - started
        )
        return status, body, content_type

    @staticmethod
    def _route_of(request: HttpRequest) -> str:
        path = request.path.rstrip("/") or "/"
        if path in (
            "/ingest", "/digest", "/incidents", "/metrics", "/healthz"
        ):
            return path
        if path.startswith("/incidents/"):
            return "/incidents/{id}"
        return "unknown"

    def _dispatch(
        self, request: HttpRequest, route: str
    ) -> tuple[int, bytes, str]:
        if route == "unknown":
            return (
                404,
                _error_body(f"no route for {request.path!r}"),
                _JSON_CONTENT,
            )
        if route == "/ingest":
            if request.method != "POST":
                return self._method_not_allowed(request, "POST")
            return self._handle_ingest(request)
        if route == "/digest":
            if request.method != "POST":
                return self._method_not_allowed(request, "POST")
            return self._handle_digest(request)
        if request.method != "GET":
            return self._method_not_allowed(request, "GET")
        if route == "/metrics":
            return (
                200,
                self.fleet.metrics.render_prometheus().encode("utf-8"),
                "text/plain; version=0.0.4",
            )
        if route == "/healthz":
            return 200, _json_body(self.health()), _JSON_CONTENT
        if route == "/incidents":
            return self._handle_incidents(request)
        return self._handle_incident_detail(request)

    @staticmethod
    def _method_not_allowed(
        request: HttpRequest, allowed: str
    ) -> tuple[int, bytes, str]:
        return (
            405,
            _error_body(
                f"{request.method} not allowed on {request.path}; "
                f"use {allowed}"
            ),
            _JSON_CONTENT,
        )

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def _handle_ingest(
        self, request: HttpRequest
    ) -> tuple[int, bytes, str]:
        decode = lookup(
            "ingest format", _INGEST_FORMATS, request.query.get("format", "csv")
        )
        try:
            text = request.body.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ServiceError(
                f"ingest body is not valid UTF-8: {exc}"
            ) from exc
        chunks = decode(
            io.StringIO(text), self.chunk_rows, "ingest", self.fleet.metrics
        )
        rows = self._feed(chunks, request.query.get("pipeline"))
        sequence = self.batch_accepted(rows)
        return (
            200,
            _json_body(
                {
                    "rows": rows,
                    "sequence": sequence,
                    "checkpointed_sequence": self.checkpointed_sequence,
                }
            ),
            _JSON_CONTENT,
        )

    def _handle_digest(
        self, request: HttpRequest
    ) -> tuple[int, bytes, str]:
        """``POST /digest``: accept per-site interval digests.

        The body is one :class:`IntervalDigest` JSON document per line
        (the canonical wire format of
        :meth:`~repro.federation.digest.IntervalDigest.to_json`).  Each
        accepted body advances the ingest sequence like an ingest
        batch, so digests land in the periodic checkpoints and a
        collector replays its stream from ``checkpointed_sequence``
        after a daemon crash.  A refused body (400) applies nothing and
        leaves the sequence where it was: malformed lines, foreign wire
        versions and digests whose sketch geometry contradicts their
        own schema are refused as the body is read, and a
        federator-level refusal (incompatible schema, unknown site,
        stale or duplicate interval) before the first digest of the
        body is buffered (:meth:`Federator.add_all`).
        """
        federator = self.federator
        if federator is None:
            raise ServiceError(
                "this daemon is not a federator; configure "
                "[federation] sites to accept digests"
            )
        try:
            text = request.body.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ServiceError(
                f"digest body is not valid UTF-8: {exc}"
            ) from exc
        parsed = read_digests(text.splitlines(), "digest")
        if not parsed:
            raise ServiceError("digest body carries no digests")
        released = federator.add_all(parsed)
        sequence = self.batch_accepted(0)
        return (
            200,
            _json_body(
                {
                    "digests": len(parsed),
                    "released": [
                        {
                            "interval": fi.interval,
                            "sites": list(fi.sites),
                            "stragglers": list(fi.stragglers),
                            "alarm": fi.alarm,
                        }
                        for fi in released
                    ],
                    "next_interval": federator.next_interval,
                    "sequence": sequence,
                    "checkpointed_sequence": self.checkpointed_sequence,
                }
            ),
            _JSON_CONTENT,
        )

    def batch_accepted(self, rows: int) -> int:
        """Advance the ingest sequence for one accepted batch and run
        the periodic checkpoint policy; returns the new sequence.
        Shared by the HTTP and TCP ingest surfaces.  A checkpoint that
        cannot be written is counted, logged and shown by ``/healthz``,
        never raised: the batch it follows is already applied."""
        self._m_ingest_rows.inc(rows)
        self.sequence += 1
        if (
            self.checkpoint_path is not None
            and self.sequence % self.checkpoint_every == 0
        ):
            try:
                self.checkpoint()
            except CheckpointError as exc:
                # The batch is applied: refusing it now would make a
                # client that honours all-or-nothing resend it, and
                # double-feed.  ``checkpointed_sequence`` stays behind
                # and says how far a restart would roll back.
                self._m_ckpt_failures.inc()
                if self.checkpoint_error is None:
                    _LOG.warning("periodic checkpoint failed: %s", exc)
                self.checkpoint_error = str(exc)
        return self.sequence

    def ingest_lines(
        self, lines: list[str], pipeline: str | None = None
    ) -> tuple[int, int]:
        """Ingest header-less CSV rows (the TCP line protocol's batch
        unit); returns ``(rows, sequence)``.  The batch is parsed and
        fed atomically before the sequence advances - a malformed row
        rejects the whole batch, naming its 1-based position in the
        batch, and the sequence stays put."""
        chunks = iter_csv_lines(
            lines, self.chunk_rows, "ingest", self.fleet.metrics
        )
        rows = self._feed(chunks, pipeline)
        return rows, self.batch_accepted(rows)

    def _feed(self, chunks: Iterable[FlowTable], pipeline: str | None) -> int:
        """Decode a whole body, then feed it.  Decoding, and the fleet's
        routing and checks of every table, finish before the first
        table is fed, so a refused body has fed nothing and the client
        can resend it corrected without double-counting."""
        tables = list(chunks)
        self.fleet.feed_all(tables, pipeline=pipeline)
        return sum(map(len, tables))

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self) -> int:
        """Write a durable checkpoint now; returns bytes written.

        The incident stores are already durable (their appends landed
        during feed), so the ordering contract of
        :mod:`repro.service.checkpoint` holds by construction.
        """
        if self.checkpoint_path is None:
            raise CheckpointError(
                "no checkpoint_path configured; enable [service] "
                "checkpoint_path to checkpoint"
            )
        started = time.perf_counter()
        with self._tracer.span(
            "service.checkpoint", sequence=self.sequence
        ) as span:
            doc = fleet_checkpoint(
                self.fleet,
                self.sequence,
                federation=(
                    self.federator.to_state()
                    if self.federator is not None
                    else None
                ),
            )
            size = write_checkpoint(
                self.checkpoint_path, doc, sync=self.checkpoint_sync
            )
            span.set_attribute("bytes", size)
        self.checkpointed_sequence = self.sequence
        self.checkpoint_error = None
        self._m_ckpt_writes.inc()
        self._m_ckpt_seconds.observe(time.perf_counter() - started)
        self._m_ckpt_bytes.set(size)
        return size

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _handle_incidents(
        self, request: HttpRequest
    ) -> tuple[int, bytes, str]:
        profile = request.query.get("profile", "balanced")
        top_text = request.query.get("top")
        top: int | None = None
        if top_text is not None:
            try:
                top = int(top_text)
            except ValueError as exc:
                raise ServiceError(
                    f"top must be an integer: {top_text!r}"
                ) from exc
        entries = self.fleet.incidents(profile=profile, top=top)
        payload = []
        for entry in entries:
            data = entry.to_dict()
            data["id"] = (
                f"{entry.pipeline}:{entry.incident.incident_id}"
            )
            payload.append(data)
        return (
            200,
            _json_body({"incidents": payload, "count": len(payload)}),
            _JSON_CONTENT,
        )

    def _handle_incident_detail(
        self, request: HttpRequest
    ) -> tuple[int, bytes, str]:
        raw = request.path.rstrip("/").rsplit("/", 1)[-1]
        pipeline, sep, id_text = raw.partition(":")
        if not sep:
            raise ServiceError(
                f"incident id must be <pipeline>:<number>, got {raw!r}"
            )
        try:
            incident_id = int(id_text)
        except ValueError as exc:
            raise ServiceError(
                f"incident id must be <pipeline>:<number>, got {raw!r}"
            ) from exc
        profile = request.query.get("profile", "balanced")
        entries = self.fleet.incidents(profile=profile)
        match = next(
            (
                e
                for e in entries
                if e.pipeline == pipeline
                and e.incident.incident_id == incident_id
            ),
            None,
        )
        if match is None:
            have = ", ".join(
                f"{e.pipeline}:{e.incident.incident_id}"
                for e in entries
            )
            raise IncidentError(
                f"no incident {raw!r}; fleet has "
                f"{have if have else 'none'}"
            )
        store = self.fleet.session(pipeline).store
        if store is None:
            raise ServiceError(
                f"pipeline {pipeline!r} has no incident store to "
                f"explain from"
            )
        provenance = explain_incident(store, match.ranked)
        data = provenance.to_dict()
        data["id"] = raw
        data["pipeline"] = pipeline
        return 200, _json_body(data), _JSON_CONTENT

    def health(self) -> dict[str, Any]:
        """The ``/healthz`` document: ingest progress, checkpoint
        state, and per-pipeline assembler posture (watermark, lag,
        pending buffers, drops, backpressure)."""
        pipelines: dict[str, Any] = {}
        for name in self.fleet.names:
            session = self.fleet.session(name)
            assembler = session.assembler
            watermark = assembler.watermark
            lag = watermark - (
                assembler.next_interval * session.interval_seconds
                + session.origin
            )
            pipelines[name] = {
                "watermark": (
                    None if watermark == float("-inf") else watermark
                ),
                "next_interval": assembler.next_interval,
                "watermark_lag_seconds": (
                    None if watermark == float("-inf") else lag
                ),
                "pending_intervals": assembler.pending_intervals,
                "pending_flows": assembler.pending_flows,
                "flows_seen": assembler.flows_seen,
                "late_dropped": assembler.late_dropped,
                "backpressure_emits": assembler.backpressure_emits,
                "intervals_emitted": assembler.intervals_emitted,
            }
        doc = {
            "status": "ok",
            "sequence": self.sequence,
            "checkpointed_sequence": self.checkpointed_sequence,
            "checkpointing": self.checkpoint_path is not None,
            "checkpoint": {"last_error": self.checkpoint_error},
            "pipelines": pipelines,
        }
        if self.federator is not None:
            doc["federation"] = {
                "sites": list(self.federator.sites),
                "next_interval": self.federator.next_interval,
                "pending_intervals": self.federator.pending_intervals,
                "reports": len(self.federator.store),
            }
        return doc
