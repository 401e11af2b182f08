"""Windowing and assembly hand out row ranges of time-ordered input.

Indices that never decrease are their own stable sort, so a
time-ordered chunk (or trace) is cut into row ranges of itself instead
of being copied out through an argsort.  The property below holds the
assembler to the split it replaced - a stable argsort + ``select`` of
every chunk, kept here as :class:`ReferenceAssembler` - on random small
streams: chunks straddling intervals, rows shuffled within the lateness
allowance, rows past it, rows before the origin.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.flows.stream import check_gap, interval_index, iter_intervals
from repro.flows.table import FlowTable
from repro.state import canonical_json
from repro.streaming import IntervalAssembler

INTERVAL = 10.0


class ReferenceAssembler(IntervalAssembler):
    """The assembler with the argsort + ``select`` split of every
    chunk: the oracle for the row-range split."""

    def push(self, chunk):
        if len(chunk) == 0:
            return []
        timestamps = chunk.start
        indices = interval_index(
            timestamps, self.origin, self.interval_seconds
        )
        if indices.min() < 0 and self.flows_seen == 0:
            raise ConfigError(
                "origin is later than the earliest flow; intervals would "
                "be negative"
            )
        order = np.argsort(indices, kind="stable")
        unique_ks, first = np.unique(indices[order], return_index=True)
        boundaries = np.append(first, len(order))
        check_gap(
            "flow", int(unique_ks.max()), self._next_emit, "the emit cursor"
        )
        for i, k in enumerate(int(k) for k in unique_ks.tolist()):
            rows = chunk.select(order[boundaries[i]: boundaries[i + 1]])
            if k < self._next_emit:
                if k < 0:
                    self.late_dropped_pre_origin += len(rows)
                else:
                    self.late_dropped_closed += len(rows)
                continue
            self._pending.setdefault(k, []).append(rows)
            self.flows_seen += len(rows)
            self._highest_seen = max(self._highest_seen, k)
        self._watermark = max(self._watermark, float(timestamps.max()))
        return self._drain()


def _flows(starts):
    n = len(starts)
    return FlowTable.from_arrays(
        src_ip=np.arange(n) + 10,
        dst_ip=np.full(n, 20),
        src_port=np.arange(n) + 1024,
        dst_port=np.full(n, 80),
        protocol=[6] * n,
        packets=np.arange(n) % 7 + 1,
        bytes_=[40] * n,
        start=np.asarray(starts, dtype=np.float64),
    )


@st.composite
def streams(draw):
    """A small time-ordered trace, disordered within the lateness
    allowance, with late and pre-origin rows, cut into chunks."""
    seed = draw(st.integers(0, 2**31 - 1))
    n = draw(st.integers(1, 80))
    max_delay = draw(st.sampled_from([0.0, 4.0, 15.0]))
    rng = np.random.default_rng(seed)
    starts = np.sort(rng.uniform(0.0, 120.0, n))
    if draw(st.booleans()):
        # Arrival order within the allowance of time order.
        starts = starts[np.argsort(starts + rng.uniform(0.0, max_delay, n))]
    late = rng.random(n) < draw(st.sampled_from([0.0, 0.1]))
    starts[late] -= rng.uniform(20.0, 60.0, int(late.sum()))
    trace = _flows(starts)
    cuts = rng.choice(np.arange(1, n), size=min(n - 1, 6), replace=False)
    bounds = [0, *np.sort(cuts).tolist(), n]
    chunks = [
        trace.select(np.arange(lo, hi)) for lo, hi in zip(bounds, bounds[1:])
    ]
    knobs = {
        "interval_seconds": INTERVAL,
        "max_delay_seconds": max_delay,
        "max_pending_intervals": draw(st.sampled_from([None, 1, 3])),
    }
    return knobs, chunks


def _emitted(views):
    return [(v.index, v.start, v.end, v.flows) for v in views]


def _outcome(push, chunk):
    try:
        return _emitted(push(chunk)), None
    except ConfigError as exc:
        return None, type(exc)


@settings(max_examples=150, deadline=None)
@given(case=streams())
def test_row_range_split_equals_the_argsort_split(case):
    knobs, chunks = case
    got, want = IntervalAssembler(**knobs), ReferenceAssembler(**knobs)
    for chunk in chunks:
        out, error = _outcome(got.push, chunk)
        assert (out, error) == _outcome(want.push, chunk)
        if error is not None:
            return
        assert canonical_json(got.to_state()) == canonical_json(
            want.to_state()
        )
    assert _emitted(got.flush()) == _emitted(want.flush())
    assert got.late_dropped_pre_origin == want.late_dropped_pre_origin
    assert got.late_dropped_closed == want.late_dropped_closed
    assert got.backpressure_emits == want.backpressure_emits
    assert canonical_json(got.to_state()) == canonical_json(want.to_state())


def _interleaved(trace, rng):
    """``trace`` (time-ordered) with its intervals' rows interleaved at
    random, each interval's rows keeping their relative order."""
    indices = interval_index(trace.start, 0.0, INTERVAL)
    shuffled = rng.permutation(indices)
    slots = np.argsort(shuffled, kind="stable")
    return trace.select(np.argsort(slots))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 60))
def test_iter_intervals_time_ordered_equals_shuffled(seed, n):
    rng = np.random.default_rng(seed)
    trace = _flows(np.sort(rng.uniform(0.0, 90.0, n)))
    shuffled = _interleaved(trace, rng)
    ordered = list(iter_intervals(trace, INTERVAL, 0.0))
    assert _emitted(ordered) == _emitted(
        iter_intervals(shuffled, INTERVAL, 0.0)
    )
    for view in ordered:
        if len(view):
            assert np.shares_memory(view.flows.start, trace.start)


class TestSharedRows:
    def test_chunk_inside_one_interval_is_buffered_as_itself(self):
        asm = IntervalAssembler(interval_seconds=INTERVAL)
        chunk = _flows([1.0, 2.0, 2.5])
        asm.push(chunk)
        (view,) = asm.push(_flows([11.0]))
        assert view.flows is chunk
        assert np.shares_memory(view.flows.src_ip, chunk.src_ip)

    def test_straddling_chunk_is_cut_into_row_ranges(self):
        asm = IntervalAssembler(interval_seconds=INTERVAL)
        chunk = _flows([1.0, 2.0, 12.0, 13.0, 25.0])
        views = asm.push(chunk)
        assert [(v.index, len(v)) for v in views] == [(0, 2), (1, 2)]
        for view in views:
            assert np.shares_memory(view.flows.start, chunk.start)
            assert not view.flows.start.flags.writeable

    def test_disordered_chunk_is_copied(self):
        asm = IntervalAssembler(interval_seconds=INTERVAL)
        chunk = _flows([12.0, 1.0, 13.0, 2.0, 25.0])
        views = asm.push(chunk)
        assert [v.flows.start.tolist() for v in views] == [
            [1.0, 2.0],
            [12.0, 13.0],
        ]
        assert not any(
            np.shares_memory(v.flows.start, chunk.start) for v in views
        )

    def test_iter_intervals_of_one_interval_is_the_trace(self):
        trace = _flows([1.0, 3.0, 9.0])
        (view,) = iter_intervals(trace, INTERVAL, origin=0.0)
        assert view.flows is trace


def test_far_apart_indices_still_meet_the_gap_guard():
    """A decreasing pair of indices whose difference wraps int64 must
    still sort: the guard then sees the true highest interval.  (The
    allowance keeps a guard that lets the row through from draining
    ~9e18 gap intervals.)"""
    asm = IntervalAssembler(interval_seconds=1.0, max_delay_seconds=1e300)
    asm.push(_flows([0.0]))
    far = 9.0e18
    with pytest.raises(ConfigError, match="max_gap_intervals"):
        asm.push(_flows([far, -far]))
    assert asm.flows_seen == 1
    assert asm.late_dropped == 0
