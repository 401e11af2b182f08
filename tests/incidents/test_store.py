"""Unit tests for the SQLite-backed incident store."""

import json
import sqlite3

import pytest

from repro.core.report import ExtractionReport, TriagedItemset
from repro.detection.features import CustomFeature, Feature
from repro.errors import IncidentError
from repro.incidents.store import (
    IncidentStore,
    itemset_key,
    open_store,
    parse_itemset_key,
)
from repro.mining.items import FrequentItemset, encode_item
from repro.state import canonical_json

VICTIM = encode_item(Feature.DST_IP, 42)
PORT80 = encode_item(Feature.DST_PORT, 80)
PROTO = encode_item(Feature.PROTOCOL, 6)


def make_report(interval, itemsets=(), alarmed=("dstIP",)):
    """Hand-built report: itemsets is [(items, support, hint), ...]."""
    triaged = tuple(
        TriagedItemset(
            itemset=FrequentItemset(
                items=tuple(sorted(items)), support=support
            ),
            hint=hint,
        )
        for items, support, hint in itemsets
    )
    return ExtractionReport(
        interval=interval,
        start=interval * 900.0,
        end=(interval + 1) * 900.0,
        input_flows=1000,
        selected_flows=400,
        prefilter_mode="union",
        algorithm="apriori",
        min_support=50,
        alarmed_features=tuple(alarmed),
        itemsets=triaged,
    )


REPORT_A = make_report(
    5, [((VICTIM, PORT80), 300, "suspicious"), ((PROTO,), 120, "common-size")]
)
REPORT_B = make_report(6, [((VICTIM, PORT80), 350, "suspicious")])


@pytest.fixture()
def store():
    with IncidentStore(":memory:") as s:
        yield s


class TestKeys:
    def test_round_trip(self):
        key = itemset_key((VICTIM, PORT80))
        assert parse_itemset_key(key) == (VICTIM, PORT80)

    def test_malformed_key_rejected(self):
        with pytest.raises(IncidentError, match="malformed"):
            parse_itemset_key("1,banana")


class TestAppendAndQuery:
    def test_round_trip_objects_and_bytes(self, store):
        store.append(REPORT_A)
        store.append(REPORT_B)
        got = store.reports()
        assert got == [REPORT_A, REPORT_B]
        assert [r.to_json() for r in got] == [
            REPORT_A.to_json(), REPORT_B.to_json()
        ]

    def test_non_ascii_feature_name_round_trips(self, tmp_path):
        """Reports render through the one canonical JSON writer, which
        keeps non-ASCII text as UTF-8; the store holds it and reads the
        same report back, byte for byte."""
        feature = CustomFeature("Zielport\u00b7\u00fc", "dst_port")
        report = make_report(
            7, [((VICTIM,), 90, "suspicious")],
            alarmed=("dstIP", feature.short_name),
        )
        text = report.to_json()
        assert feature.short_name in text
        assert text == canonical_json(report.to_dict())
        path = str(tmp_path / "utf8.db")
        with IncidentStore(path) as store:
            store.append(report)
        with IncidentStore(path) as store:
            (again,) = store.reports()
        assert again == report
        assert again.to_json() == text

    def test_ascii_rendering_unchanged(self):
        """An ASCII report renders the bytes the stores already hold."""
        assert REPORT_A.to_json() == json.dumps(
            REPORT_A.to_dict(), sort_keys=True, separators=(",", ":")
        )

    def test_len_counts_reports(self, store):
        assert len(store) == 0
        store.extend([REPORT_A, REPORT_B])
        assert len(store) == 2

    def test_reports_ordered_by_interval(self, store):
        # extend() takes a batch in any order; reads are interval-sorted.
        store.extend([REPORT_B, REPORT_A])
        assert [r.interval for r in store.reports()] == [5, 6]

    def test_append_is_strictly_interval_ordered(self, store):
        """Single appends arm the marker in their own transaction, so
        they must arrive in increasing interval order - unordered
        batches go through extend()."""
        store.append(REPORT_B)  # interval 6
        with pytest.raises(IncidentError, match="duplicate"):
            store.append(REPORT_A)  # interval 5

    def test_since_until_filters(self, store):
        store.extend([make_report(i) for i in range(10)])
        assert [r.interval for r in store.reports(since=7)] == [7, 8, 9]
        assert [r.interval for r in store.reports(until=2)] == [0, 1, 2]
        assert [r.interval for r in store.reports(since=3, until=4)] == [3, 4]

    def test_intervals_listing(self, store):
        store.extend([REPORT_B, REPORT_A])
        assert store.intervals() == [5, 6]

    def test_report_at(self, store):
        store.extend([REPORT_A, REPORT_B])
        assert store.report_at(6) == REPORT_B

    def test_report_at_missing_interval(self, store):
        with pytest.raises(IncidentError, match="no report"):
            store.report_at(99)

    def test_itemset_history(self, store):
        store.extend([REPORT_A, REPORT_B])
        history = store.itemset_history((VICTIM, PORT80))
        assert history == [(5, 300, "suspicious"), (6, 350, "suspicious")]
        assert store.itemset_history((PROTO,)) == [(5, 120, "common-size")]

    def test_itemset_history_bounded_by_span(self, store):
        """An incident's drill-down must not absorb the history of an
        earlier, closed incident that carried the same key."""
        store.extend([
            make_report(i, [((VICTIM, PORT80), 100 + i, "suspicious")])
            for i in (1, 2, 10, 11)
        ])
        assert store.itemset_history(
            (VICTIM, PORT80), since=10, until=11
        ) == [(10, 110, "suspicious"), (11, 111, "suspicious")]
        assert store.itemset_history(
            (VICTIM, PORT80), until=2
        ) == [(1, 101, "suspicious"), (2, 102, "suspicious")]

    def test_empty_report_round_trips(self, store):
        empty = make_report(3, [], alarmed=("dstPort",))
        store.append(empty)
        assert store.reports() == [empty]


class TestPersistence:
    def test_survives_reopen(self, tmp_path):
        path = str(tmp_path / "inc.db")
        with IncidentStore(path) as store:
            store.append(REPORT_A)
        with IncidentStore(path) as store:
            assert store.reports() == [REPORT_A]

    def test_wal_mode(self, tmp_path):
        path = str(tmp_path / "inc.db")
        with IncidentStore(path) as store:
            mode = store._connection().execute(
                "PRAGMA journal_mode"
            ).fetchone()[0]
            assert mode == "wal"

    def test_schema_version_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "inc.db")
        IncidentStore(path).close()
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE store_meta SET value = '999' "
            "WHERE key = 'schema_version'"
        )
        conn.commit()
        conn.close()
        with pytest.raises(IncidentError, match="schema version"):
            IncidentStore(path)

    def test_closed_store_raises(self, tmp_path):
        store = IncidentStore(str(tmp_path / "inc.db"))
        store.close()
        store.close()  # idempotent
        with pytest.raises(IncidentError, match="closed"):
            store.append(REPORT_A)

    def test_open_store_must_exist(self, tmp_path):
        with pytest.raises(IncidentError, match="no incident store"):
            open_store(str(tmp_path / "missing.db"), must_exist=True)

    def test_non_sqlite_file_rejected_cleanly(self, tmp_path):
        path = tmp_path / "garbage.db"
        path.write_text("this is not a database\n")
        with pytest.raises(IncidentError, match="cannot open store"):
            IncidentStore(str(path))

    def test_future_version_store_rejected_without_mutation(
        self, tmp_path
    ):
        """A store written by a future layout must be refused before
        the WAL flip or the v1 schema script touch it - an older binary
        must not corrupt a newer store it cannot read."""
        path = str(tmp_path / "future.db")
        conn = sqlite3.connect(path)
        conn.execute(
            "CREATE TABLE store_meta (key TEXT PRIMARY KEY, "
            "value TEXT NOT NULL)"
        )
        conn.execute(
            "INSERT INTO store_meta VALUES ('schema_version', '2')"
        )
        conn.execute("CREATE TABLE reports_v2 (x INTEGER)")
        conn.commit()
        conn.close()
        with pytest.raises(IncidentError, match="schema version 2"):
            IncidentStore(path)
        conn = sqlite3.connect(path)
        tables = {
            row[0] for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        journal = conn.execute("PRAGMA journal_mode").fetchone()[0]
        conn.close()
        assert tables == {"store_meta", "reports_v2"}
        assert journal != "wal"

    def test_foreign_database_rejected_without_mutation(self, tmp_path):
        """Opening some other application's SQLite file (e.g. a wrong
        path to `repro-extract incidents`) must refuse - and must not
        install the store schema or flip the file to WAL."""
        path = str(tmp_path / "other-app.db")
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE users (id INTEGER PRIMARY KEY)")
        conn.commit()
        conn.close()
        with pytest.raises(IncidentError, match="not an incident store"):
            IncidentStore(path)
        conn = sqlite3.connect(path)
        tables = {
            row[0] for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        journal = conn.execute("PRAGMA journal_mode").fetchone()[0]
        conn.close()
        assert tables == {"users"}
        assert journal != "wal"

    def test_open_store_creates_when_allowed(self, tmp_path):
        path = str(tmp_path / "new.db")
        with open_store(path) as store:
            assert len(store) == 0


class TestCompact:
    def test_compact_drops_old_reports(self, store):
        store.extend([make_report(i) for i in range(10)])
        deleted = store.compact(before_interval=7)
        assert deleted == 7
        assert store.intervals() == [7, 8, 9]

    def test_compact_cascades_to_itemsets(self, store):
        store.extend([REPORT_A, REPORT_B])
        store.compact(before_interval=6)
        # interval-5 occurrence gone, interval-6 one kept
        assert store.itemset_history((VICTIM, PORT80)) == [
            (6, 350, "suspicious")
        ]

    def test_pure_vacuum_deletes_nothing(self, store):
        store.append(REPORT_A)
        assert store.compact() == 0
        assert len(store) == 1

    def test_compact_reclaims_file_space(self, tmp_path):
        path = tmp_path / "inc.db"
        with IncidentStore(str(path)) as store:
            big = make_report(
                0,
                [((encode_item(Feature.SRC_IP, i),), 100, "suspicious")
                 for i in range(500)],
            )
            store.append(big)  # interval 0, before the log advances
            store.extend(make_report(
                i, [((VICTIM, PORT80), 300, "suspicious")]
            ) for i in range(1, 50))
            store._connection().execute("PRAGMA wal_checkpoint(FULL)")
            before = path.stat().st_size
            store.compact(before_interval=50)
            store._connection().execute("PRAGMA wal_checkpoint(FULL)")
            after = path.stat().st_size
        assert after < before


class TestLastInterval:
    def test_unset_by_default(self, store):
        assert store.last_interval() is None

    def test_note_is_monotonic(self, store):
        store.note_interval(7)
        store.note_interval(3)  # an older value never wins
        assert store.last_interval() == 7
        store.note_interval(9)
        assert store.last_interval() == 9

    def test_survives_reopen(self, tmp_path):
        path = str(tmp_path / "inc.db")
        with IncidentStore(path) as store:
            store.note_interval(12)
        with IncidentStore(path) as store:
            assert store.last_interval() == 12

    def test_reingest_into_noted_store_refused(self, store):
        """Re-running extract/stream --store against the same database
        must not silently duplicate reports and double the supports."""
        store.extend([REPORT_A, REPORT_B])  # intervals 5 and 6
        store.note_interval(6)
        with pytest.raises(IncidentError, match="duplicate"):
            store.append(REPORT_A)
        with pytest.raises(IncidentError, match="duplicate"):
            store.extend([REPORT_B])
        # New intervals keep appending - the log stays monotonic.
        store.append(make_report(7))
        assert store.intervals() == [5, 6, 7]

    def test_extend_arms_the_guard_itself(self, store):
        """One batch is one ingest: a repeated bulk import must trip
        the guard without anyone calling note_interval manually."""
        store.extend([REPORT_B, REPORT_A])  # any order within a batch
        assert store.last_interval() == 6
        with pytest.raises(IncidentError, match="duplicate"):
            store.extend([REPORT_A, REPORT_B])
        assert store.intervals() == [5, 6]

    def test_trailing_clean_stretch_ages_incidents(self, store):
        # Reports exist only for alarmed intervals: without the noted
        # last-processed interval, an attack that ended at interval 6
        # would read "active" forever.
        store.extend([REPORT_A, REPORT_B])  # intervals 5 and 6
        assert store.incidents(quiet_gap=2)[0].incident.state == "active"
        store.note_interval(20)
        assert store.incidents(quiet_gap=2)[0].incident.state == "closed"


class TestKnobPersistence:
    def test_explicit_knobs_survive_reopen(self, tmp_path):
        """The CLI query path (open_store, no knob args) must correlate
        with the knobs the store was written with, not silently revert
        to 0.5/2."""
        path = str(tmp_path / "inc.db")
        with IncidentStore(path, jaccard=1.0, quiet_gap=7) as store:
            store.append(make_report(
                5, [((VICTIM, PORT80), 300, "suspicious")]
            ))
            store.append(make_report(
                11, [((VICTIM, PORT80), 400, "suspicious")]
            ))
        with open_store(path, must_exist=True) as store:
            assert store.jaccard == 1.0
            assert store.quiet_gap == 7
            # quiet_gap=7 keeps the gap-6 reappearance in ONE incident;
            # the 0.5/2 fallback would have split it.
            assert len(store.incidents()) == 1

    def test_fresh_store_falls_back_to_defaults(self, tmp_path):
        with IncidentStore(str(tmp_path / "inc.db")) as store:
            assert store.jaccard == 0.5
            assert store.quiet_gap == 2

    def test_reopen_with_explicit_knobs_overwrites(self, tmp_path):
        path = str(tmp_path / "inc.db")
        IncidentStore(path, jaccard=1.0, quiet_gap=7).close()
        IncidentStore(path, quiet_gap=3).close()  # jaccard untouched
        with open_store(path) as store:
            assert store.jaccard == 1.0
            assert store.quiet_gap == 3

    def test_invalid_knobs_rejected_before_persisting(self, tmp_path):
        """A bad explicit knob must fail at the door - persisted, it
        would poison every later open of the store."""
        path = str(tmp_path / "inc.db")
        with pytest.raises(IncidentError, match="jaccard"):
            IncidentStore(path, jaccard=0.0)
        with pytest.raises(IncidentError, match="quiet_gap"):
            IncidentStore(path, quiet_gap=2.5)
        with pytest.raises(IncidentError, match="quiet_gap"):
            IncidentStore(path, quiet_gap=0)
        # The rejections wrote nothing: the store opens clean.
        with open_store(path) as store:
            assert (store.jaccard, store.quiet_gap) == (0.5, 2)

    def test_integer_valued_float_quiet_gap_canonicalized(self, tmp_path):
        """quiet_gap=2.0 is valid but must persist as '2', not '2.0' -
        a non-canonical rendering would make every later int() parse
        (and hence every later open) fail."""
        path = str(tmp_path / "inc.db")
        IncidentStore(path, jaccard=1.0, quiet_gap=2.0).close()
        with open_store(path) as store:
            assert store.quiet_gap == 2
            assert isinstance(store.quiet_gap, int)
            assert store.jaccard == 1.0

    def test_default_config_write_run_keeps_tuned_knobs(self, tmp_path):
        """A later append run with knob-less config (the CLI write path
        has no jaccard/quiet-gap flags) must not clobber the knobs the
        store was tuned with."""
        from repro.core.config import ExtractionConfig
        from repro.core.pipeline import AnomalyExtractor

        path = str(tmp_path / "inc.db")
        IncidentStore(path, jaccard=0.9, quiet_gap=5).close()
        with AnomalyExtractor(ExtractionConfig(store_path=path)):
            pass
        with open_store(path) as store:
            assert store.jaccard == 0.9
            assert store.quiet_gap == 5


class TestCorruption:
    def _truncate_rows(self, path):
        conn = sqlite3.connect(path)
        conn.execute("UPDATE reports SET json = substr(json, 1, 10)")
        conn.commit()
        conn.close()

    def test_corrupt_row_in_reports(self, tmp_path):
        path = str(tmp_path / "inc.db")
        with IncidentStore(path) as store:
            store.append(REPORT_A)
        self._truncate_rows(path)
        with IncidentStore(path) as store:
            with pytest.raises(IncidentError, match="corrupt report"):
                store.reports()

    def test_corrupt_persisted_knob_wrapped(self, tmp_path):
        """A hand-edited knob value must surface as IncidentError (the
        CLI's 'error: ...' exit-2 contract), not a raw ValueError."""
        path = str(tmp_path / "inc.db")
        IncidentStore(path).close()
        conn = sqlite3.connect(path)
        conn.execute(
            "INSERT OR REPLACE INTO store_meta VALUES "
            "('incident_jaccard', 'banana')"
        )
        conn.commit()
        conn.close()
        with pytest.raises(IncidentError, match="cannot open store"):
            IncidentStore(path)

    def test_corrupt_row_in_report_at(self, tmp_path):
        path = str(tmp_path / "inc.db")
        with IncidentStore(path) as store:
            store.append(REPORT_A)
        self._truncate_rows(path)
        with IncidentStore(path) as store:
            with pytest.raises(IncidentError, match="corrupt report"):
                store.report_at(REPORT_A.interval)


class TestSinkIntegration:
    def test_store_satisfies_report_sink(self, store):
        # append() is the whole sink protocol a session uses.
        from repro.core.pipeline import ReportSink

        assert isinstance(store, ReportSink)

    def test_incidents_convenience(self, store):
        store.extend([REPORT_A, REPORT_B])
        ranked = store.incidents(jaccard=0.5, quiet_gap=2)
        assert ranked
        top = ranked[0].incident
        assert top.key == tuple(sorted((VICTIM, PORT80)))
        assert top.intervals_seen == 2

    def test_config_correlation_knobs_reach_the_store(self, tmp_path):
        """ExtractionConfig.incident_jaccard / incident_quiet_gap must
        actually govern store.incidents(), not be dead knobs."""
        from repro.core.config import ExtractionConfig
        from repro.core.pipeline import AnomalyExtractor

        config = ExtractionConfig(
            store_path=str(tmp_path / "inc.db"),
            incident_jaccard=1.0,
            incident_quiet_gap=7,
        )
        with AnomalyExtractor(config) as extractor:
            store = extractor.store
            assert store.jaccard == 1.0
            assert store.quiet_gap == 7
            # quiet_gap=7 keeps the gap-6 reappearance in ONE incident;
            # the default gap of 2 would have split it into two.
            store.append(make_report(
                5, [((VICTIM, PORT80), 300, "suspicious")]
            ))
            store.append(make_report(
                11, [((VICTIM, PORT80), 400, "suspicious")]
            ))
            ranked = store.incidents()
            assert len(ranked) == 1
            assert ranked[0].incident.intervals_seen == 2
            # jaccard=1.0 (exact only): a drifted itemset at interval 12
            # must open a second incident instead of merging at ~0.67.
            store.append(make_report(
                12, [((VICTIM, PORT80, PROTO), 200, "suspicious")]
            ))
            assert len(store.incidents()) == 2
