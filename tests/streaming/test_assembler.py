"""Unit tests for the watermark-driven interval assembler."""

import numpy as np
import pytest

from repro.errors import CheckpointError, ConfigError
from repro.flows.stream import MAX_GAP_INTERVALS, iter_intervals
from repro.flows.table import FlowTable
from repro.streaming import IntervalAssembler


def _flows(starts, port=80):
    n = len(starts)
    return FlowTable.from_arrays(
        src_ip=np.arange(n) + 10,
        dst_ip=np.full(n, 20),
        src_port=np.arange(n) + 1024,
        dst_port=np.full(n, port),
        protocol=[6] * n,
        packets=[1] * n,
        bytes_=[40] * n,
        start=np.asarray(starts, dtype=np.float64),
    )


class TestCompletion:
    def test_in_order_stream_completes_behind_watermark(self):
        asm = IntervalAssembler(interval_seconds=10.0)
        done = asm.push(_flows([0.0, 5.0, 12.0, 25.0]))
        # Watermark at 25 releases intervals 0 and 1; 2 stays open.
        assert [v.index for v in done] == [0, 1]
        assert len(done[0]) == 2
        assert len(done[1]) == 1
        assert asm.pending_intervals == 1

    def test_flush_releases_trailing_interval(self):
        asm = IntervalAssembler(interval_seconds=10.0)
        asm.push(_flows([0.0, 12.0]))
        done = asm.flush()
        assert [v.index for v in done] == [1]
        assert asm.pending_intervals == 0
        assert asm.flush() == []

    def test_gap_intervals_emitted_empty(self):
        asm = IntervalAssembler(interval_seconds=10.0)
        done = asm.push(_flows([2.0, 35.0]))
        assert [v.index for v in done] == [0, 1, 2]
        assert [len(v) for v in done] == [1, 0, 0]

    def test_interval_bounds(self):
        asm = IntervalAssembler(interval_seconds=10.0, origin=100.0)
        done = asm.push(_flows([101.0, 125.0]))
        assert done[0].start == 100.0
        assert done[0].end == 110.0
        assert done[0].duration == 10.0

    def test_empty_chunk_is_noop(self):
        asm = IntervalAssembler(interval_seconds=10.0)
        assert asm.push(FlowTable.empty()) == []
        assert asm.flows_seen == 0

    def test_empty_stream_emits_nothing(self):
        asm = IntervalAssembler(interval_seconds=10.0)
        assert asm.flush() == []
        assert asm.intervals_emitted == 0


class TestOrderingAndLateness:
    def test_arrival_order_preserved_within_interval(self):
        asm = IntervalAssembler(interval_seconds=10.0)
        asm.push(_flows([1.0], port=1))
        asm.push(_flows([2.0], port=2))
        asm.push(_flows([3.0], port=3))
        (view,) = asm.flush()
        assert view.flows.dst_port.tolist() == [1, 2, 3]

    def test_out_of_order_within_delay_binned_correctly(self):
        asm = IntervalAssembler(interval_seconds=10.0, max_delay_seconds=10.0)
        done = asm.push(_flows([14.0]))
        assert done == []
        done = asm.push(_flows([3.0]))  # older than the watermark, on time
        assert done == []
        views = asm.flush()
        assert [len(v) for v in views] == [1, 1]
        assert views[0].flows.start.tolist() == [3.0]

    def test_late_records_dropped_and_counted(self):
        asm = IntervalAssembler(interval_seconds=10.0)
        asm.push(_flows([25.0]))  # emits intervals 0 and 1
        done = asm.push(_flows([1.0, 2.0, 26.0]))
        assert done == []
        assert asm.late_dropped == 2
        assert asm.flows_seen == 2  # the 25.0 and 26.0 flows
        (view,) = asm.flush()
        assert view.index == 2
        assert len(view) == 2

    def test_flow_before_origin_rejected_at_stream_start(self):
        asm = IntervalAssembler(interval_seconds=10.0, origin=50.0)
        with pytest.raises(ConfigError, match="origin"):
            asm.push(_flows([10.0]))

    def test_pre_origin_jitter_tolerated_before_first_emit(self):
        """Under a large max_delay nothing may have been emitted yet
        when a jittered pre-origin record arrives; buffered valid data
        must survive it."""
        asm = IntervalAssembler(
            interval_seconds=10.0, origin=50.0, max_delay_seconds=3600.0
        )
        asm.push(_flows([55.0, 62.0]))  # buffered, nothing emitted
        done = asm.push(_flows([49.9]))
        assert done == []
        assert asm.late_dropped == 1
        assert asm.flows_seen == 2
        views = asm.flush()
        assert [len(v) for v in views] == [1, 1]

    def test_flow_before_origin_is_late_drop_once_underway(self):
        """After interval 0 has been emitted, a pre-origin flow is just
        an extreme late arrival - it must not abort the stream nor
        discard the chunk's valid rows."""
        asm = IntervalAssembler(interval_seconds=10.0, origin=50.0)
        asm.push(_flows([55.0, 75.0]))  # emits intervals 0 and 1
        done = asm.push(_flows([10.0, 76.0]))
        assert done == []
        assert asm.late_dropped == 1
        (view,) = asm.flush()
        assert view.index == 2
        assert len(view) == 2


class TestBackpressure:
    def test_max_pending_force_emits_oldest(self):
        asm = IntervalAssembler(
            interval_seconds=10.0,
            max_delay_seconds=1e9,  # the watermark alone would never emit
            max_pending_intervals=2,
        )
        done = asm.push(_flows([5.0, 15.0, 25.0]))
        # Three open intervals exceed the cap of 2: interval 0 is forced.
        assert [v.index for v in done] == [0]
        assert asm.pending_intervals == 2

    def test_pending_flows_tracks_buffer(self):
        asm = IntervalAssembler(interval_seconds=10.0)
        asm.push(_flows([0.0, 1.0, 2.0]))
        assert asm.pending_flows == 3
        asm.flush()
        assert asm.pending_flows == 0


class TestGapGuard:
    def test_absurd_timestamp_jump_rejected(self):
        """An epoch-milliseconds flow against origin 0 must fail fast
        instead of materializing billions of empty gap intervals."""
        asm = IntervalAssembler(interval_seconds=900.0)
        asm.push(_flows([10.0]))
        with pytest.raises(ConfigError, match="max_gap_intervals"):
            asm.push(_flows([1.7e12]))

    def test_gap_threshold(self):
        # The allowance holds every interval open: the emit cursor
        # stays at 0 and nothing is drained.
        asm = IntervalAssembler(interval_seconds=10.0, max_delay_seconds=1e9)
        # A jump of exactly MAX_GAP_INTERVALS: allowed.
        asm.push(_flows([1.0, MAX_GAP_INTERVALS * 10.0 + 1.0]))
        with pytest.raises(ConfigError, match="jumps"):
            asm.push(_flows([(MAX_GAP_INTERVALS + 1) * 10.0 + 1.0]))

    def test_rejected_push_leaves_state_untouched(self):
        """A chunk mixing valid flows with an absurd timestamp must be
        rejected atomically: re-pushing the cleaned rows may not
        double-count anything."""
        asm = IntervalAssembler(interval_seconds=10.0)
        asm.push(_flows([5.0]))
        with pytest.raises(ConfigError):
            asm.push(_flows([12.0, 1.7e12]))
        assert asm.flows_seen == 1
        assert asm.pending_flows == 1
        assert asm.watermark == 5.0
        asm.push(_flows([12.0]))  # the cleaned chunk, counted once
        assert asm.flows_seen == 2


class TestValidation:
    def test_bad_interval_seconds(self):
        with pytest.raises(ConfigError):
            IntervalAssembler(interval_seconds=0.0)
        with pytest.raises(ConfigError):
            IntervalAssembler(interval_seconds=float("nan"))
        with pytest.raises(ConfigError):
            IntervalAssembler(interval_seconds=float("inf"))

    def test_bad_origin(self):
        with pytest.raises(ConfigError, match="origin"):
            IntervalAssembler(origin=float("nan"))

    def test_bad_max_delay(self):
        with pytest.raises(ConfigError):
            IntervalAssembler(max_delay_seconds=-1.0)
        with pytest.raises(ConfigError):
            IntervalAssembler(max_delay_seconds=float("nan"))

    def test_bad_max_pending(self):
        with pytest.raises(ConfigError):
            IntervalAssembler(max_pending_intervals=0)


class TestBatchEquivalence:
    @pytest.mark.parametrize("chunk_rows", [1, 7, 64, 1000])
    def test_matches_iter_intervals_on_shuffled_trace(self, chunk_rows, rng):
        starts = rng.uniform(0.0, 120.0, size=200)
        trace = _flows(starts)
        asm = IntervalAssembler(
            interval_seconds=10.0, max_delay_seconds=1e6
        )
        views = []
        for lo in range(0, len(trace), chunk_rows):
            views.extend(
                asm.push(trace.select(np.arange(lo, min(lo + chunk_rows,
                                                        len(trace)))))
            )
        views.extend(asm.flush())
        expected = list(iter_intervals(trace, 10.0, origin=0.0))
        assert [v.index for v in views] == [v.index for v in expected]
        for got, want in zip(views, expected):
            assert got.start == want.start
            assert got.end == want.end
            assert got.flows == want.flows


class TestCheckpointRefusals:
    """A restored document that would lose flows is refused, naming
    the field, instead of emitting a wrong answer."""

    @staticmethod
    def _state():
        asm = IntervalAssembler(interval_seconds=10.0, max_delay_seconds=100.0)
        asm.push(_flows([1.0, 12.0, 25.0]))
        state = asm.to_state()
        assert [k for k, _ in state["pending"]] == [0, 1, 2]
        return state

    def test_round_trip_restores(self):
        asm = IntervalAssembler(interval_seconds=10.0, max_delay_seconds=100.0)
        asm.from_state(self._state())
        assert [len(v) for v in asm.flush()] == [1, 1, 1]

    def test_duplicate_pending_interval_refused(self):
        state = self._state()
        state["pending"].append(state["pending"][0])
        with pytest.raises(CheckpointError, match="pending names an interval"):
            IntervalAssembler(interval_seconds=10.0).from_state(state)

    def test_pending_interval_below_next_emit_refused(self):
        state = self._state()
        state["next_emit"] = 1
        with pytest.raises(CheckpointError, match="next_emit"):
            IntervalAssembler(interval_seconds=10.0).from_state(state)

    def test_pending_interval_above_highest_seen_refused(self):
        state = self._state()
        state["highest_seen"] = 1
        with pytest.raises(CheckpointError, match="highest_seen"):
            IntervalAssembler(interval_seconds=10.0).from_state(state)
