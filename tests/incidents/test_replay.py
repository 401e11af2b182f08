"""Replay equivalence (ISSUE 3 acceptance criterion).

Reports persisted through the store must round-trip to objects equal -
and byte-for-byte JSON-identical - to the in-memory batch output, and a
recurring anomaly injected across 3+ intervals must correlate into
exactly one ranked (suspicious) incident in both batch and streaming
modes.
"""

import numpy as np
import pytest

import repro.api as api
from repro.anomalies import DDoSInjector, EventSchedule
from repro.core.config import ExtractionConfig
from repro.core.report import ExtractionReport
from repro.core.session import run_session
from repro.detection.detector import DetectorConfig
from repro.detection.features import Feature
from repro.incidents import IncidentStore, correlate
from repro.mining.items import encode_item
from repro.traffic import TraceGenerator, small_test

#: The DDoS recurs in these intervals (bursts of the same attack).
BURST_INTERVALS = (20, 22, 24)
INTERVAL_SECONDS = 900.0
CHUNK_ROWS = 617  # misaligned with interval boundaries on purpose


def _config():
    return ExtractionConfig(
        detector=DetectorConfig(
            clones=3, bins=256, vote_threshold=3, training_intervals=16
        ),
        min_support=300,
    )


@pytest.fixture(scope="module")
def burst_trace():
    """30 intervals; one DDoS victim attacked in three bursts."""
    profile = small_test(1500)
    generator = TraceGenerator(profile, seed=3)
    schedule = EventSchedule()
    victim = profile.internal_base + 5
    for interval in BURST_INTERVALS:
        schedule.add_at_interval(
            DDoSInjector(victim_ip=victim, flows=1200, sources=250),
            interval,
            INTERVAL_SECONDS,
            duration=880.0,
        )
    trace = generator.generate(30, schedule=schedule)
    return trace, victim


def _chunked(table, rows):
    for lo in range(0, len(table), rows):
        yield table.select(np.arange(lo, min(lo + rows, len(table))))


@pytest.fixture(scope="module")
def batch(burst_trace):
    trace, _ = burst_trace
    store = IncidentStore(":memory:")
    result = api.extract(
        trace.flows, _config(), interval_seconds=INTERVAL_SECONDS, sink=store,
        seed=1,
    )
    return result, store


@pytest.fixture(scope="module")
def streamed(burst_trace):
    trace, _ = burst_trace
    store = IncidentStore(":memory:")
    result = api.stream(
        _chunked(trace.flows, CHUNK_ROWS), _config(),
        interval_seconds=INTERVAL_SECONDS, sink=store, seed=1,
    )
    return result, store


class TestStoreReplayEquivalence:
    def test_batch_reports_round_trip_byte_for_byte(self, batch):
        result, store = batch
        in_memory = [
            ExtractionReport.from_result(e, INTERVAL_SECONDS)
            for e in result.extractions
        ]
        replayed = store.reports()
        assert replayed == in_memory
        assert [r.to_json() for r in replayed] == [
            r.to_json() for r in in_memory
        ]

    def test_stream_reports_round_trip_byte_for_byte(self, streamed):
        result, store = streamed
        in_memory = [
            ExtractionReport.from_result(e, INTERVAL_SECONDS)
            for e in result.extractions
        ]
        replayed = store.reports()
        assert replayed == in_memory
        assert [r.to_json() for r in replayed] == [
            r.to_json() for r in in_memory
        ]

    def test_batch_and_stream_stores_identical(self, batch, streamed):
        _, batch_store = batch
        _, stream_store = streamed
        assert [r.to_json() for r in batch_store.reports()] == [
            r.to_json() for r in stream_store.reports()
        ]


class TestWindowModeReports:
    def test_window_reports_span_the_mined_window(self, burst_trace):
        """Sliding-window extractions describe N intervals of traffic;
        the persisted bounds must cover all N, not just the triggering
        interval, or flow counts and (end - start) disagree."""
        import repro.api as api

        trace, _ = burst_trace
        store = IncidentStore(":memory:")
        config = ExtractionConfig(
            detector=DetectorConfig(
                clones=3, bins=256, vote_threshold=3,
                training_intervals=16,
            ),
            min_support=300,
            window_intervals=3,
        )
        with api.session(
            config, seed=1, interval_seconds=INTERVAL_SECONDS,
            sink=store,
        ) as streamer:
            result = run_session(
                streamer, _chunked(trace.flows, CHUNK_ROWS)
            )
            assert result.extractions
            for extraction in result.extractions:
                report = streamer.report_for(extraction)
                # Window is full by the time anything alarms (interval
                # >= 17 > window size 3).
                assert report.end - report.start == pytest.approx(
                    3 * INTERVAL_SECONDS
                )
                assert report.end == pytest.approx(
                    (extraction.interval + 1) * INTERVAL_SECONDS
                )
                assert report.input_flows == (
                    extraction.prefilter.input_flows
                )
        assert [r.to_json() for r in store.reports()] == [
            streamer.report_for(e).to_json() for e in result.extractions
        ]

    def test_report_for_rejects_foreign_extraction(self, burst_trace):
        import repro.api as api
        from repro.errors import ExtractionError

        with api.session(
            _config(), interval_seconds=INTERVAL_SECONDS
        ) as streamer:
            with pytest.raises(ExtractionError, match="unknown"):
                streamer.report_for(object())


class TestInterruptedRunGuard:
    def test_marker_advances_during_batch_run(self, burst_trace):
        """An interrupted batch run must leave the re-ingest guard
        armed for what it already stored - noting only at trace end
        would let a retry silently duplicate every stored report."""
        from repro.errors import IncidentError

        trace, _ = burst_trace
        store = IncidentStore(":memory:")

        class Boom(RuntimeError):
            pass

        class ExplodingSink:
            """Delegates to the store, dies on the second append."""

            def __init__(self, inner):
                self.inner = inner
                self.appended = 0

            def append(self, report):
                if self.appended >= 1:
                    raise Boom("interrupted mid-trace")
                self.appended += 1
                return self.inner.append(report)

            def note_interval(self, interval):
                self.inner.note_interval(interval)

        with pytest.raises(Boom):
            api.extract(
                trace.flows, _config(),
                interval_seconds=INTERVAL_SECONDS, seed=1,
                sink=ExplodingSink(store),
            )
        assert store.last_interval() is not None
        assert store.last_interval() >= BURST_INTERVALS[0]
        with pytest.raises(IncidentError, match="duplicate"):
            store.append(store.reports()[0])


class TestLastIntervalNoted:
    def test_batch_and_stream_note_the_trace_end(self, batch, streamed):
        # 30 generated intervals -> both drivers processed 0..29, even
        # though only the burst intervals produced reports.
        for _, store in (batch, streamed):
            assert store.last_interval() == 29

    def test_ended_attack_reads_closed_not_active(self, batch):
        """The bursts stop at interval 24 and the trace runs clean to
        29; with quiet_gap=2 the incident must have aged to closed -
        deriving `now` from the last *report* would leave it active
        forever."""
        _, store = batch
        top = store.incidents(jaccard=0.5, quiet_gap=2)[0].incident
        assert top.last_seen == BURST_INTERVALS[-1]
        assert top.state == "closed"


class TestSingleIncidentCorrelation:
    def _suspicious_incidents(self, store):
        incidents = correlate(
            store.reports(), jaccard=0.5, quiet_gap=2
        )
        return incidents, [i for i in incidents if i.suspicious]

    def test_burst_intervals_all_extracted(self, batch):
        result, _ = batch
        assert set(BURST_INTERVALS) <= set(result.flagged_intervals)

    def test_batch_correlates_to_one_incident(self, batch, burst_trace):
        _, victim = burst_trace
        _, store = batch
        incidents, suspicious = self._suspicious_incidents(store)
        assert len(suspicious) == 1
        (incident,) = suspicious
        # The incident is the injected DDoS: it names the victim.
        assert encode_item(Feature.DST_IP, victim) in incident.items
        assert incident.first_seen == BURST_INTERVALS[0]
        assert incident.last_seen == BURST_INTERVALS[-1]
        assert incident.intervals_seen == len(BURST_INTERVALS)

    def test_stream_correlates_to_one_incident(self, streamed):
        _, store = streamed
        _, suspicious = self._suspicious_incidents(store)
        assert len(suspicious) == 1
        assert suspicious[0].intervals_seen == len(BURST_INTERVALS)

    def test_batch_and_stream_agree_on_the_incident(
        self, batch, streamed
    ):
        _, batch_store = batch
        _, stream_store = streamed
        (a,) = self._suspicious_incidents(batch_store)[1]
        (b,) = self._suspicious_incidents(stream_store)[1]
        assert a.items == b.items
        assert (a.first_seen, a.last_seen, a.intervals_seen) == (
            b.first_seen, b.last_seen, b.intervals_seen
        )
        assert a.total_support == b.total_support
        assert a.peak_support == b.peak_support

    def test_the_real_incident_ranks_first(self, batch):
        """Offset echoes (endpoint-free item-sets flagged when a burst
        stops) may open extra benign-looking incidents; ranking must put
        the real, suspicious, persistent one on top."""
        _, store = batch
        ranked = store.incidents(jaccard=0.5, quiet_gap=2)
        assert ranked
        top = ranked[0].incident
        assert top.suspicious
        assert top.intervals_seen == len(BURST_INTERVALS)
        for entry in ranked[1:]:
            assert entry.score <= ranked[0].score
