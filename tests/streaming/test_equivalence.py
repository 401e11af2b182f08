"""Batch/stream equivalence: the streaming pipeline must reproduce the
batch (`api.extract`) output byte for byte on the same trace (ISSUE 2
acceptance criterion)."""

import numpy as np
import pytest

import repro.api as api
from repro.core.config import ExtractionConfig
from repro.core.session import run_session
from repro.detection.detector import DetectorConfig
from repro.flows.io import iter_csv, write_csv
from repro.flows.table import ALL_COLUMNS, FlowTable

CHUNK_ROWS = 517  # deliberately misaligned with interval boundaries


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


@pytest.fixture(scope="module")
def batch(ddos_trace):
    return api.extract(
        ddos_trace.flows, _config(),
        interval_seconds=ddos_trace.interval_seconds, seed=1,
    )


@pytest.fixture(scope="module")
def streamed(ddos_trace):
    return api.stream(
        _chunked(ddos_trace.flows, CHUNK_ROWS), _config(),
        interval_seconds=ddos_trace.interval_seconds, seed=1,
    )


class TestRunStreamEquivalence:
    def test_reports_byte_identical(self, batch, streamed):
        assert _rendered(streamed.extractions) == _rendered(batch.extractions)
        assert streamed.flagged_intervals == batch.flagged_intervals
        assert streamed.flagged_intervals  # the DDoS was actually caught

    def test_detection_run_identical(self, batch, streamed):
        assert streamed.detection.n_intervals == batch.detection.n_intervals
        assert (
            streamed.detection.alarm_intervals()
            == batch.detection.alarm_intervals()
        )
        for feature in batch.detection.features:
            assert np.array_equal(
                streamed.detection.kl_series(feature),
                batch.detection.kl_series(feature),
            )

    def test_prefilter_and_mining_fields_identical(self, batch, streamed):
        for got, want in zip(streamed.extractions, batch.extractions):
            assert got.prefilter.flows == want.prefilter.flows
            assert got.mining.all_frequent == want.mining.all_frequent
            assert got.mining.min_support == want.mining.min_support


class TestCsvStreamEquivalence:
    def test_csv_chunked_stream_identical(
        self, tmp_path_factory, ddos_trace, batch
    ):
        path = tmp_path_factory.mktemp("stream") / "trace.csv"
        write_csv(ddos_trace.flows, path)
        with api.session(
            _config(),
            seed=1,
            interval_seconds=ddos_trace.interval_seconds,
        ) as streamer:
            result = run_session(
                streamer, iter_csv(path, chunk_rows=777)
            )
        assert result.late_dropped == 0
        assert result.flows == len(ddos_trace.flows)
        assert _rendered(result.extractions) == _rendered(batch.extractions)


class TestLateDropAccounting:
    def test_stream_surfaces_late_drops(self, ddos_trace, rng):
        """A stream reordered beyond the lateness allowance must not
        pretend to equal the batch result: the dropped flows are
        counted on the returned summary."""
        order = rng.permutation(len(ddos_trace.flows))
        shuffled = ddos_trace.flows.select(order)
        result = api.stream(
            _chunked(shuffled, CHUNK_ROWS), _config(),
            interval_seconds=ddos_trace.interval_seconds, seed=1,
        )
        assert result.late_dropped > 0
        assert result.late_dropped == (
            result.late_dropped_pre_origin + result.late_dropped_closed
        )

    def test_batch_path_reports_zero_late_drops(self, batch):
        assert batch.late_dropped == 0

    def test_in_order_stream_reports_zero_late_drops(self, streamed):
        assert streamed.late_dropped == 0


class TestOutOfOrderEquivalence:
    def test_shuffled_stream_matches_batch_on_shuffled_trace(
        self, ddos_trace, rng
    ):
        """With enough lateness allowance, an arbitrarily reordered
        stream still reproduces the batch result for the same (equally
        reordered) trace."""
        order = rng.permutation(len(ddos_trace.flows))
        shuffled = ddos_trace.flows.select(order)
        want = api.extract(
            shuffled, _config(),
            interval_seconds=ddos_trace.interval_seconds, seed=1,
        )
        got = api.stream(
            _chunked(shuffled, CHUNK_ROWS),
            _config(max_delay_seconds=1e9),
            interval_seconds=ddos_trace.interval_seconds, seed=1,
        )
        assert _rendered(got.extractions) == _rendered(want.extractions)
        assert got.flagged_intervals == want.flagged_intervals


class TestClockStepBackwards:
    """The exporter's clock steps back across an interval boundary
    mid-capture: rows stamped after the step land in an interval the
    stream has already emitted."""

    #: The step: 600 s into interval 20 the clock jumps back 700 s, so
    #: the next 100 s of traffic is stamped into interval 19.
    STEP_AT, STEP_BACK = 20 * 900.0 + 600.0, 700.0

    @pytest.fixture(scope="class")
    def stepped(self, ddos_trace):
        """The trace in arrival order with the step applied, and the
        mask of the rows the step pushed back over the boundary."""
        flows = ddos_trace.flows.sort_by_start()
        after = flows.start >= self.STEP_AT
        columns = {name: flows.column(name) for name in ALL_COLUMNS}
        columns["start"] = np.where(
            after, flows.start - self.STEP_BACK, flows.start
        )
        back = after & (columns["start"] < self.STEP_AT - 600.0)
        return FlowTable(columns), back

    def _reports(self, trace, **kwargs):
        reports = []
        result = api.extract(
            trace, _config(), interval_seconds=900.0, seed=1,
            sink=reports, **kwargs,
        )
        return result, [r.to_json() for r in reports]

    def test_extract_keeps_every_row(self, stepped):
        trace, back = stepped
        result, _ = self._reports(trace)
        assert back.sum() > 0
        assert result.flows == len(trace)
        assert result.late_dropped == 0

    def test_stream_counts_the_stepped_rows_as_closed_late(self, stepped):
        trace, back = stepped
        reports = []
        streamed = api.stream(
            _chunked(trace, CHUNK_ROWS), _config(),
            interval_seconds=900.0, seed=1, sink=reports,
        )
        assert streamed.late_dropped_closed == back.sum() > 0
        assert streamed.late_dropped_pre_origin == 0
        # What the stream did not drop, it reports exactly as
        # extract does on the trace without the stepped-back rows.
        want, want_reports = self._reports(trace.select(~back))
        assert want_reports  # the DDoS still alarms after the step
        assert [r.to_json() for r in reports] == want_reports
        assert streamed.flagged_intervals == want.flagged_intervals
        assert (
            streamed.detection.alarm_intervals()
            == want.detection.alarm_intervals()
        )
