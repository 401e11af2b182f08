"""Unit tests for stream-mode sessions (one-shot and window modes)."""

import numpy as np
import pytest

import repro.api as api
from repro.core.config import ExtractionConfig
from repro.core.session import run_session
from repro.detection.detector import DetectorConfig
from repro.detection.features import Feature
from repro.errors import ConfigError

CHUNK_ROWS = 400


def _config(**overrides):
    return ExtractionConfig(
        detector=DetectorConfig(
            clones=3, bins=256, vote_threshold=3, training_intervals=16
        ),
        min_support=300,
        **overrides,
    )


def _chunked(table, rows=CHUNK_ROWS):
    for lo in range(0, len(table), rows):
        yield table.select(np.arange(lo, min(lo + rows, len(table))))


class TestOneShotMode:
    def test_extractions_arrive_incrementally(self, ddos_trace):
        """The DDoS extraction must surface mid-stream, before flush."""
        streamer = api.session(
            _config(), seed=1, interval_seconds=ddos_trace.interval_seconds
        )
        seen_before_flush = []
        for chunk in _chunked(ddos_trace.flows):
            seen_before_flush.extend(streamer.feed(chunk))
        assert 24 in [e.interval for e in seen_before_flush]
        streamer.flush()
        result = streamer.result()
        assert result.intervals == ddos_trace.n_intervals
        assert result.flows == len(ddos_trace.flows)
        assert result.late_dropped == 0
        assert result.windows_mined == 0  # one-shot mode never windows

    def test_result_snapshot_mid_stream(self, ddos_trace):
        streamer = api.session(
            _config(), seed=1, interval_seconds=ddos_trace.interval_seconds
        )
        chunks = list(_chunked(ddos_trace.flows))
        for chunk in chunks[: len(chunks) // 2]:
            streamer.feed(chunk)
        partial = streamer.result()
        assert 0 < partial.intervals < ddos_trace.n_intervals
        assert partial.detection.n_intervals == partial.intervals


class TestWindowMode:
    def test_window_mode_catches_ddos(self, ddos_trace, small_profile):
        streamer = api.session(
            _config(window_intervals=3),
            seed=1,
            interval_seconds=ddos_trace.interval_seconds,
        )
        result = run_session(streamer, _chunked(ddos_trace.flows))
        assert result.windows_mined >= 1
        victim = small_profile.internal_base + 5
        hits = [
            s.as_dict().get(Feature.DST_IP)
            for e in result.extractions
            for s in e.itemsets
        ]
        assert victim in hits
        # The report must describe the mined window, not the single
        # interval: stated flow counts and itemset supports consistent.
        for e in result.extractions:
            assert e.prefilter.selected_flows == e.mining.n_transactions
            assert e.prefilter.selected_flows <= e.prefilter.input_flows
            for itemset in e.itemsets:
                assert itemset.support <= e.prefilter.selected_flows

    def test_window_accounting_consistent(self, ddos_trace):
        streamer = api.session(
            _config(window_intervals=4),
            seed=1,
            interval_seconds=ddos_trace.interval_seconds,
        )
        result = run_session(streamer, _chunked(ddos_trace.flows))
        # Exactly the mined windows became extractions.
        assert result.windows_mined == len(result.extractions)
        assert result.intervals == ddos_trace.n_intervals


class TestKeepReports:
    def test_dropped_reports_keep_extractions_identical(self, ddos_trace):
        kept = run_session(
            api.session(
                _config(), seed=1,
                interval_seconds=ddos_trace.interval_seconds,
            ),
            _chunked(ddos_trace.flows),
        )
        unbounded = api.session(
            _config(),
            seed=1,
            interval_seconds=ddos_trace.interval_seconds,
            keep_reports=False,
        )
        dropped = run_session(unbounded, _chunked(ddos_trace.flows))
        assert [e.render() for e in dropped.extractions] == (
            [e.render() for e in kept.extractions]
        )
        assert dropped.detection is None
        assert kept.detection is not None
        # The bank really is empty - memory stays flat on long streams.
        assert unbounded.detector_bank.reports == []


class TestConfigKnobs:
    def test_stream_knobs_validated(self):
        with pytest.raises(ConfigError):
            ExtractionConfig(window_intervals=0)
        with pytest.raises(ConfigError):
            ExtractionConfig(max_delay_seconds=-1.0)
        with pytest.raises(ConfigError):
            ExtractionConfig(max_pending_intervals=0)

    def test_context_manager_closes_owned_extractor(self, tmp_path):
        db = str(tmp_path / "owned.db")
        with api.session(_config(store_path=db)) as s:
            assert s.store._conn is not None
        assert s.store._conn is None
        # close() is idempotent
        s.close()

    def test_stream_summary_import_path(self):
        # The historical import path of the stream summary still
        # resolves to the canonical class.
        from repro.core.session import StreamExtraction as Canonical
        from repro.streaming import StreamExtraction

        assert StreamExtraction is Canonical
