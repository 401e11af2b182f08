"""SQLite-backed persistence for extraction reports.

The pipeline's per-interval reports are ephemeral; at production scale
the same anomaly spans many intervals and nobody re-reads raw tables.
:class:`IncidentStore` persists every alarmed interval's
:class:`~repro.core.report.ExtractionReport` - item-sets with supports
and triage hints, detector votes, interval bounds - in a single SQLite
file (stdlib ``sqlite3``, WAL journal), with append/query/compact APIs.

The store is a faithful log: a report appended and read back is equal,
as an object and byte-for-byte as canonical JSON, to the in-memory one
(``tests/incidents/test_store.py`` holds the invariant).  The JSON
column is the only copy of a report: an incident's drill-down
(:func:`~repro.incidents.provenance.explain_incident`) reads its
occurrences from the correlated reports and each interval's report by
:meth:`IncidentStore.report_at`.
"""

from __future__ import annotations

import os
import sqlite3
from collections.abc import Iterable, Iterator
from contextlib import contextmanager

from repro.core.config import (
    INCIDENT_JACCARD,
    INCIDENT_QUIET_GAP,
    IncidentSettings,
)
from repro.core.report import ExtractionReport
from repro.errors import ExtractionError, IncidentError
from repro.obs.instruments import catalogued
from repro.obs.metrics import NULL_REGISTRY, time_stage

#: Bump when the table layout changes; the store refuses to open a
#: database written by a different layout instead of misreading it.
SCHEMA_VERSION = 2

_SCHEMA = """
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS reports (
    report_id INTEGER PRIMARY KEY AUTOINCREMENT,
    interval  INTEGER NOT NULL,
    start     REAL NOT NULL,
    end       REAL NOT NULL,
    json      TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_reports_interval ON reports (interval);
"""


class IncidentStore:
    """Append-only report log with indexed queries over one SQLite file.

    Usage::

        with IncidentStore("incidents.db") as store:
            repro.api.extract(flows, interval_seconds=900.0, sink=store)
            for report in store.reports():
                print(report.interval, len(report.itemsets))

    The store doubles as the ``sink`` object the batch and streaming
    drivers accept: its :meth:`append` signature is the whole sink
    protocol.  ``":memory:"`` is accepted for tests and scratch work.
    """

    def __init__(
        self,
        path: str,
        timeout: float = 30.0,
        jaccard: float | None = None,
        quiet_gap: int | None = None,
        metrics=None,
    ):
        self.path = path
        registry = metrics if metrics is not None else NULL_REGISTRY
        self._m_appends = catalogued(registry, "repro_store_appends_total")
        self._m_refusals = catalogued(
            registry, "repro_store_reingest_refusals_total"
        )
        self._m_query = catalogued(registry, "repro_store_query_seconds")
        # Validate and canonicalize explicit knobs BEFORE anything is
        # persisted: a bad (or non-canonically rendered, e.g.
        # quiet_gap=2.0 -> "2.0") value written into store_meta would
        # poison every later open.  A whole float gap is taken as its
        # integer; the rest is the table's check.
        if isinstance(quiet_gap, float) and quiet_gap.is_integer():
            quiet_gap = int(quiet_gap)
        IncidentSettings(jaccard=jaccard, quiet_gap=quiet_gap)
        if jaccard is not None:
            jaccard = float(jaccard)
        if quiet_gap is not None:
            quiet_gap = int(quiet_gap)
        try:
            self._conn = sqlite3.connect(path, timeout=timeout)
        except sqlite3.Error as exc:
            raise IncidentError(f"cannot open store at {path!r}: {exc}") from exc
        try:
            # Refuse a database we cannot adopt BEFORE any write (the
            # WAL pragma alone would permanently convert the file, and
            # the schema script would plant store tables inside it): an
            # existing database must be empty or a store of the
            # supported layout.
            tables = {
                row[0] for row in self._conn.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )
            }
            if tables and "store_meta" not in tables:
                raise IncidentError(
                    f"{path!r} holds another application's tables, "
                    "not an incident store"
                )
            if "store_meta" in tables:
                self._reject_version_mismatch()
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.executescript(_SCHEMA)
            self._stamp_schema_version()
            #: Default correlation knobs for :meth:`incidents`.
            #: Explicit values (the pipeline threads
            #: ``ExtractionConfig.incident_jaccard`` /
            #: ``incident_quiet_gap`` through here) are persisted in
            #: ``store_meta``, so a later ``repro-extract incidents``
            #: query correlates with the knobs the store was *written*
            #: with instead of silently reverting to the fallback.
            self.jaccard = float(self._resolve_knob(
                "incident_jaccard", jaccard, INCIDENT_JACCARD
            ))
            self.quiet_gap = int(self._resolve_knob(
                "incident_quiet_gap", quiet_gap, INCIDENT_QUIET_GAP
            ))
            # In-memory mirror of the store_meta marker so the ingest
            # hot path (one guard check per append, one note per
            # interval) never re-reads it; valid because the monotonic
            # guard already assumes a single writer.
            row = self._conn.execute(
                "SELECT value FROM store_meta "
                "WHERE key = 'last_interval'"
            ).fetchone()
            self._last_interval = None if row is None else int(row[0])
        except (sqlite3.Error, ValueError, TypeError) as exc:
            # e.g. the path names an existing file that is not SQLite,
            # a persisted knob value is corrupt, or a write fails while
            # stamping - one contract for everything after connect():
            # wrap in IncidentError and never leak the connection.
            self._conn.close()
            raise IncidentError(
                f"cannot open store at {path!r}: {exc}"
            ) from exc
        except BaseException:
            self._conn.close()
            raise

    def _resolve_knob(self, key, given, default):
        with self._wrap_db_errors():
            if given is not None:
                conn = self._conn
                with conn:
                    conn.execute(
                        "INSERT OR REPLACE INTO store_meta (key, value) "
                        "VALUES (?, ?)",
                        (key, str(given)),
                    )
                return given
            row = self._conn.execute(
                "SELECT value FROM store_meta WHERE key = ?", (key,)
            ).fetchone()
            return default if row is None else row[0]

    def _reject_version_mismatch(self) -> None:
        """Raise (without writing anything) when the existing store was
        written by a different schema version."""
        with self._wrap_db_errors():
            row = self._conn.execute(
                "SELECT value FROM store_meta WHERE key = 'schema_version'"
            ).fetchone()
        if row is not None and row[0] != str(SCHEMA_VERSION):
            raise IncidentError(
                f"{self.path}: store schema version {row[0]} != "
                f"supported {SCHEMA_VERSION}"
            )

    def _stamp_schema_version(self) -> None:
        with self._wrap_db_errors():
            row = self._conn.execute(
                "SELECT value FROM store_meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None:
                self._conn.execute(
                    "INSERT INTO store_meta (key, value) VALUES (?, ?)",
                    ("schema_version", str(SCHEMA_VERSION)),
                )
                self._conn.commit()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "IncidentStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _connection(self) -> sqlite3.Connection:
        if self._conn is None:
            raise IncidentError(f"store at {self.path!r} is closed")
        return self._conn

    @contextmanager
    def _wrap_db_errors(self):
        """Surface sqlite failures (locked database, disk full, ...)
        as IncidentError so the CLI's 'error: ...' exit-2 contract
        holds for every operation, not just open/decode."""
        try:
            yield
        except sqlite3.Error as exc:
            raise IncidentError(f"{self.path}: {exc}") from exc

    # ------------------------------------------------------------------
    # Append
    # ------------------------------------------------------------------
    def _insert(
        self, conn: sqlite3.Connection, report: ExtractionReport
    ) -> int:
        with self._wrap_db_errors():
            cursor = conn.execute(
                "INSERT INTO reports (interval, start, end, json) "
                "VALUES (?, ?, ?, ?)",
                (report.interval, report.start, report.end,
                 report.to_json()),
            )
            return int(cursor.lastrowid)

    def _reject_reingest(self, interval: int, last: int | None) -> None:
        """The store is a monotonic log: once the pipeline has noted
        processing up to interval ``last``, a report for an interval <=
        ``last`` is a re-ingest of data already covered (e.g. re-running
        extract or stream with ``--store`` against the same database)
        and would silently duplicate every report and double the
        supports."""
        if last is not None and interval <= last:
            self._m_refusals.inc()
            raise IncidentError(
                f"{self.path}: already covers intervals up to {last}; "
                f"appending interval {interval} would duplicate "
                "reports - re-ingest into a fresh store, or resume the "
                "run instead of replaying it (`repro-extract serve "
                "--resume` restores a checkpointed daemon mid-stream "
                "and skips intervals the store already covers)"
            )

    def append(self, report: ExtractionReport) -> int:
        """Persist one report; returns its row id.

        This is the report-sink protocol consumed by the pipeline's
        interval step (:meth:`~repro.core.pipeline.AnomalyExtractor.step`),
        whatever source feeds it - batch, stream, fleet, or federation.
        The marker advances in the SAME transaction, so the re-ingest
        guard is armed atomically with the data it protects - which
        also makes single appends strictly interval-ordered (bulk-load
        unordered batches with :meth:`extend`).
        """
        conn = self._connection()
        self._reject_reingest(report.interval, self._last_interval)
        with self._wrap_db_errors(), conn:
            row_id = self._insert(conn, report)
            advanced = self._note_in_txn(conn, report.interval)
        if advanced is not None:
            self._last_interval = advanced
        self._m_appends.inc()
        return row_id

    def extend(self, reports: Iterable[ExtractionReport]) -> int:
        """Append many reports in ONE transaction (bulk ingest pays a
        single commit instead of one per report); returns how many were
        written.

        One batch is one ingest: intervals may arrive in any order
        *within* the batch, but the newest interval advances the marker
        in the same transaction, so a repeated bulk import trips the
        re-ingest guard instead of silently duplicating the log (no
        crash window between the data and the guard)."""
        conn = self._connection()
        count = 0
        newest = None
        advanced = None
        # The marker cannot change mid-transaction - read it once.
        last = self._last_interval
        with self._wrap_db_errors(), conn:
            for report in reports:
                self._reject_reingest(report.interval, last)
                self._insert(conn, report)
                count += 1
                if newest is None or report.interval > newest:
                    newest = report.interval
            if newest is not None:
                advanced = self._note_in_txn(conn, newest)
        if advanced is not None:
            self._last_interval = advanced
        self._m_appends.inc(count)
        return count

    def _note_in_txn(
        self, conn: sqlite3.Connection, interval: int
    ) -> int | None:
        """Advance the marker inside the caller's transaction; returns
        the new value when it advanced (the caller updates the cache
        only after the transaction commits)."""
        interval = int(interval)
        if (
            self._last_interval is not None
            and interval <= self._last_interval
        ):
            return None
        with self._wrap_db_errors():
            conn.execute(
                "INSERT OR REPLACE INTO store_meta (key, value) "
                "VALUES ('last_interval', ?)",
                (str(interval),),
            )
        return interval

    def note_interval(self, interval: int) -> None:
        """Record that the pipeline processed up to ``interval`` - even
        when it produced no report (clean intervals leave no row, but
        they must still age incidents toward quiet/closed).  Monotonic:
        an older value never overwrites a newer one.  The interval
        step calls this after every interval - single-site or
        federated - when the store is its sink.
        """
        if (
            self._last_interval is not None
            and int(interval) <= self._last_interval
        ):
            return
        conn = self._connection()
        with self._wrap_db_errors(), conn:
            advanced = self._note_in_txn(conn, interval)
        if advanced is not None:
            self._last_interval = advanced

    def last_interval(self) -> int | None:
        """Newest interval the pipeline reported processing via
        :meth:`note_interval` (None for stores written before the
        pipeline started recording it)."""
        return self._last_interval

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def _decode(self, payload: str) -> ExtractionReport:
        try:
            return ExtractionReport.from_json(payload)
        except (ValueError, ExtractionError) as exc:
            # Truncated/hand-edited row (not JSON, or not a report):
            # surface as the store's error so the CLI prints
            # "error: ..." and exits 2 instead of a raw traceback.
            raise IncidentError(
                f"{self.path}: corrupt report row ({exc})"
            ) from exc

    def __len__(self) -> int:
        with self._wrap_db_errors():
            row = self._connection().execute(
                "SELECT COUNT(*) FROM reports"
            ).fetchone()
        return int(row[0])

    def intervals(self) -> list[int]:
        """Distinct interval indices with at least one report, ascending."""
        with self._wrap_db_errors():
            rows = self._connection().execute(
                "SELECT DISTINCT interval FROM reports ORDER BY interval"
            ).fetchall()
        return [int(r[0]) for r in rows]

    def iter_reports(
        self,
        since: int | None = None,
        until: int | None = None,
    ) -> Iterator[ExtractionReport]:
        """Stream reports in (interval, insertion) order.

        Args:
            since: keep reports with ``interval >= since``.
            until: keep reports with ``interval <= until``.
        """
        clauses, params = [], []
        if since is not None:
            clauses.append("interval >= ?")
            params.append(int(since))
        if until is not None:
            clauses.append("interval <= ?")
            params.append(int(until))
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        with self._wrap_db_errors():
            cursor = self._connection().execute(
                f"SELECT json FROM reports {where} "
                "ORDER BY interval, report_id",
                params,
            )
            for (payload,) in cursor:
                yield self._decode(payload)

    def reports(
        self,
        since: int | None = None,
        until: int | None = None,
    ) -> list[ExtractionReport]:
        """Eager version of :meth:`iter_reports`."""
        return list(self.iter_reports(since=since, until=until))

    def report_at(self, interval: int) -> ExtractionReport:
        """The report of one interval (first, if several were appended)."""
        with self._wrap_db_errors():
            row = self._connection().execute(
                "SELECT json FROM reports WHERE interval = ? "
                "ORDER BY report_id LIMIT 1",
                (int(interval),),
            ).fetchone()
        if row is None:
            raise IncidentError(
                f"{self.path}: no report stored for interval {interval}"
            )
        return self._decode(row[0])

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def compact(
        self, before_interval: int | None = None, vacuum: bool = True
    ) -> int:
        """Drop old reports and reclaim file space.

        Args:
            before_interval: delete reports with
                ``interval < before_interval`` (``None`` deletes
                nothing - pure VACUUM).
            vacuum: rewrite the database file afterwards.

        Returns:
            Number of reports deleted.
        """
        conn = self._connection()
        deleted = 0
        with self._wrap_db_errors():
            if before_interval is not None:
                with conn:
                    cursor = conn.execute(
                        "DELETE FROM reports WHERE interval < ?",
                        (int(before_interval),),
                    )
                    deleted = cursor.rowcount
            if vacuum:
                conn.execute("VACUUM")
        return int(deleted)

    # ------------------------------------------------------------------
    # Convenience: the full incident view
    # ------------------------------------------------------------------
    def correlated(
        self,
        jaccard: float | None = None,
        quiet_gap: int | None = None,
    ):
        """Every stored report grouped into
        :class:`~repro.incidents.correlate.Incident` objects - the one
        place a report history is correlated, whatever run mode wrote
        it.  ``jaccard``/``quiet_gap`` default to the values the store
        was *written* with (the pipeline seeds them from
        ``ExtractionConfig`` and they persist in ``store_meta``), else
        the fallbacks in :mod:`repro.core.config`.
        """
        from repro.incidents.correlate import correlate

        return correlate(
            self.iter_reports(),
            jaccard=self.jaccard if jaccard is None else jaccard,
            quiet_gap=self.quiet_gap if quiet_gap is None else quiet_gap,
            # Lifecycle states age against the last interval the
            # pipeline processed, not merely the last that alarmed -
            # otherwise a long-finished attack followed by clean
            # traffic reads "active" forever.
            now=self.last_interval(),
        )

    def incidents(
        self,
        jaccard: float | None = None,
        quiet_gap: int | None = None,
        profile: str = "balanced",
        top: int | None = None,
    ):
        """Correlate and rank everything in the store.

        Returns :class:`~repro.incidents.rank.RankedIncident` objects,
        best first (the ``top`` best, when given): :meth:`correlated`
        ranked by :func:`~repro.incidents.rank.rank_incidents`, for CLI
        and notebook use.
        """
        from repro.incidents.rank import rank_incidents

        with time_stage(self._m_query):
            return rank_incidents(
                self.correlated(jaccard, quiet_gap), profile=profile, top=top
            )


def open_store(
    path: str,
    must_exist: bool = False,
    jaccard: float | None = None,
    quiet_gap: int | None = None,
) -> IncidentStore:
    """Open (or create) a store; with ``must_exist`` a missing file is an
    error instead of a silently created empty database (the CLI query
    path wants that).  ``jaccard``/``quiet_gap`` are the correlation
    knobs to persist (``None`` keeps the store's current values)."""
    if must_exist and path != ":memory:" and not os.path.exists(path):
        raise IncidentError(f"no incident store at {path!r}")
    return IncidentStore(path, jaccard=jaccard, quiet_gap=quiet_gap)
