"""The session's contract: one orchestration path, one mode.

`ExtractionSession` is the single execution surface `api.extract` and
`api.stream` run on.  A session fed a whole trace (in one piece or
arbitrary time-ordered chunks) equals `api.extract` byte-for-byte, a
session driven incrementally (feed / flush / result) equals one that
is fed and finished, and `close()` releases the owned extractor's
store even when a mid-feed chunk raised.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api as api
from repro.core.config import ExtractionConfig
from repro.core.session import StreamExtraction, run_session, run_trace
from repro.detection.detector import DetectorConfig
from repro.errors import ConfigError, ExtractionError
from repro.flows.table import FlowTable
from repro.incidents.store import IncidentStore

INTERVAL_SECONDS = 900.0


def _config(**overrides):
    return ExtractionConfig(
        detector=DetectorConfig(
            clones=3, bins=256, vote_threshold=3, training_intervals=16
        ),
        min_support=300,
        **overrides,
    )


def _chunked(table, rows):
    for lo in range(0, len(table), rows):
        yield table.select(np.arange(lo, min(lo + rows, len(table))))


def _rendered(extractions):
    return "\n\n".join(e.render() for e in extractions)


def _session(**kwargs):
    return api.session(
        _config(), interval_seconds=INTERVAL_SECONDS, seed=1, **kwargs
    )


@pytest.fixture(scope="module")
def batch(ddos_trace):
    return api.extract(
        ddos_trace.flows, _config(), interval_seconds=INTERVAL_SECONDS,
        seed=1,
    )


class TestWholeTraceSessionEquivalence:
    def test_whole_trace_feed_equals_extract(self, ddos_trace, batch):
        with _session() as session:
            session.feed(ddos_trace.flows)
            result = session.finish()
        assert isinstance(result, StreamExtraction)
        assert isinstance(batch, StreamExtraction)
        assert result.flagged_intervals == batch.flagged_intervals
        assert result.flagged_intervals  # the DDoS was actually caught
        assert _rendered(result.extractions) == _rendered(batch.extractions)
        assert (
            result.detection.alarm_intervals()
            == batch.detection.alarm_intervals()
        )

    def test_mid_run_flush_closes_the_open_interval(self, ddos_trace, batch):
        """A mid-run flush emits the interval the first half ends in;
        the second half's rows of it arrive late and are counted, not
        replayed through the detectors."""
        flows = ddos_trace.flows
        half = len(flows) // 2
        first = flows.select(np.arange(half))
        second = flows.select(np.arange(half, len(flows)))
        straddled = int(first.start.max() // INTERVAL_SECONDS)
        late = int(
            (second.start < (straddled + 1) * INTERVAL_SECONDS).sum()
        )
        assert late  # the split really lands mid-interval
        with _session() as session:
            session.feed(first)
            session.flush()
            session.feed(second)
            result = session.finish()
        assert result.late_dropped_closed == late
        assert result.late_dropped_pre_origin == 0
        assert result.flows == len(flows) - late
        assert result.intervals == batch.detection.n_intervals
        assert result.detection.n_intervals == result.intervals
        before = [
            e for e in batch.extractions if e.interval < straddled
        ]
        assert _rendered(
            [e for e in result.extractions if e.interval < straddled]
        ) == _rendered(before)

    def test_chunk_feed_equals_extract(self, ddos_trace, batch):
        """Time-ordered chunks close every interval before its next
        one starts, so arbitrary chunking cannot change the result."""
        with _session() as session:
            for chunk in _chunked(ddos_trace.flows, 613):
                session.feed(chunk)
            result = session.finish()
        assert _rendered(result.extractions) == _rendered(batch.extractions)

    def test_sink_reports_byte_identical(self, ddos_trace):
        direct = IncidentStore(":memory:")
        via_session = IncidentStore(":memory:")
        api.extract(
            ddos_trace.flows, _config(), interval_seconds=INTERVAL_SECONDS,
            seed=1, sink=direct,
        )
        with _session(sink=via_session) as session:
            result = run_session(session, [ddos_trace.flows])
        assert [r.to_json() for r in via_session.reports()] == [
            r.to_json() for r in direct.reports()
        ]
        assert via_session.last_interval() == direct.last_interval()
        assert len(via_session) == len(result.extractions)


class TestExtractPinsTheStreamingTable:
    def test_streaming_settings_do_not_reach_extract(self, ddos_trace, batch):
        """`api.extract` mines every interval on its own and keeps every
        extraction, whatever the config's [streaming] table says."""
        got = api.extract(
            ddos_trace.flows,
            _config(
                streaming={
                    "window_intervals": 3,
                    "keep_extractions": False,
                    "max_pending_intervals": 1,
                }
            ),
            interval_seconds=INTERVAL_SECONDS,
            seed=1,
        )
        assert got.extractions
        assert _rendered(got.extractions) == _rendered(batch.extractions)
        assert got.windows_mined == got.windows_skipped == 0

    def test_timestamp_jump_past_the_gap_guard_refused(self, tiny_flows):
        """A stored trace runs through the assembler, so a timestamp
        jump its gap guard refuses is refused here too - instead of
        stepping every empty interval in between."""
        jumped = FlowTable.concat([
            tiny_flows,
            FlowTable.from_arrays(
                [1], [2], [3], [4], [6], [1], [40], start=[1e12]
            ),
        ])
        with pytest.raises(ConfigError, match="max_gap_intervals"):
            api.extract(jumped, _config(), interval_seconds=INTERVAL_SECONDS)


class TestStreamSessionEquivalence:
    def test_feed_equals_incremental_session(self, ddos_trace):
        incremental = []
        with api.session(
            _config(), seed=1, interval_seconds=INTERVAL_SECONDS
        ) as streamer:
            for chunk in _chunked(ddos_trace.flows, 517):
                incremental.extend(streamer.feed(chunk))
            incremental.extend(streamer.flush())
            expected = streamer.result()
        with api.session(
            _config(), mode="stream", interval_seconds=INTERVAL_SECONDS,
            seed=1,
        ) as session:
            got = []
            for chunk in _chunked(ddos_trace.flows, 517):
                got.extend(session.feed(chunk))
            result = session.finish()
        assert isinstance(result, StreamExtraction)
        assert _rendered(got) == _rendered(incremental)
        assert result.intervals == expected.intervals
        assert result.flows == expected.flows
        assert result.extraction_count == expected.extraction_count
        assert _rendered(result.extractions) == _rendered(
            expected.extractions
        )


@settings(max_examples=5, deadline=None)
@given(chunk_rows=st.integers(min_value=97, max_value=4001))
def test_chunking_never_changes_results(ddos_trace, batch, chunk_rows):
    """Property: for ANY chunk size, a chunk-fed session equals
    `api.extract` (the trace is time-ordered, so no flow is ever late),
    and so does `run_trace` over the trace with its chunks reversed
    (the trace is windowed before it is fed, so row order is moot)."""
    chunks = list(_chunked(ddos_trace.flows, chunk_rows))
    with _session() as session:
        reordered = run_trace(session, FlowTable.concat(chunks[::-1]))
    with _session() as session:
        streamed = run_session(session, chunks)
    expected = _rendered(batch.extractions)
    assert _rendered(reordered.extractions) == expected
    assert _rendered(streamed.extractions) == expected
    assert reordered.late_dropped == streamed.late_dropped == 0


class TestSessionLifecycle:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ExtractionError, match="unknown session mode"):
            api.session(_config(), mode="batch-stream")

    def test_batch_mode_names_extract(self):
        with pytest.raises(ExtractionError, match="api.extract"):
            api.session(_config(), mode="batch")

    def test_feed_after_finish_rejected(self, tiny_flows):
        with api.session(_config()) as session:
            session.feed(tiny_flows)
            session.finish()
            with pytest.raises(ExtractionError, match="already finished"):
                session.feed(tiny_flows)
            # finish is single-shot too...
            with pytest.raises(ExtractionError, match="already finished"):
                session.finish()
            # ...but the result stays readable.
            assert session.result().extractions == []

    def test_feed_after_close_rejected(self, tiny_flows):
        session = api.session(_config(), mode="stream")
        session.close()
        session.close()  # idempotent
        with pytest.raises(ExtractionError, match="closed"):
            session.feed(tiny_flows)


class TestLeakRegression:
    """`close()` must release the store even when a mid-feed chunk
    raises."""

    def _poisoned_chunk(self):
        # A timestamp jump far past the assembler's max-gap guard: the
        # push raises ConfigError mid-feed.
        return FlowTable.from_arrays(
            [1], [2], [3], [4], [6], [1], [40], start=[1e12]
        )

    def test_mid_feed_raise_releases_store(self, tmp_path):
        db = str(tmp_path / "leak.db")
        with pytest.raises(ConfigError):
            with api.session(
                _config(store_path=db),
                mode="stream",
                interval_seconds=INTERVAL_SECONDS,
            ) as session:
                session.feed(self._poisoned_chunk())
        store = session.store
        with pytest.raises(ExtractionError, match="session is closed"):
            session.feed(self._poisoned_chunk())
        assert store is not None and store._conn is None

    def test_owning_session_close_is_try_finally(self, tmp_path):
        """A metrics trail that fails to close must not leak the store."""
        db = str(tmp_path / "chain.db")
        session = api.session(_config(store_path=db))
        store = session.store

        def boom():
            raise RuntimeError("sink close failed")

        session._trail = type("S", (), {"close": staticmethod(boom)})()
        with pytest.raises(RuntimeError, match="sink close failed"):
            session.close()
        assert store._conn is None  # store released despite the raise

    def test_construction_failure_closes_store(self, tmp_path):
        db = str(tmp_path / "ctor.db")
        # The assembler refuses the interval grid after the extractor
        # has opened its store.
        with pytest.raises(ConfigError, match="positive"):
            api.session(_config(store_path=db), interval_seconds=0.0)
        # The store the extractor opened was closed on the error path:
        # a fresh open adopts the file cleanly (it was stamped, not
        # left locked mid-write).
        with api.open_store(db, must_exist=True) as store:
            assert len(store) == 0

    def test_session_rejects_bad_interval(self):
        with pytest.raises(ConfigError, match="positive"):
            api.session(_config(), interval_seconds=0.0)
