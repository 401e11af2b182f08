"""Unit tests for interval windowing."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.flows.stream import (
    interval_index,
    interval_of,
    iter_intervals,
)
from repro.flows.table import FlowTable


def _table_with_starts(starts):
    n = len(starts)
    return FlowTable.from_arrays(
        [1] * n, [2] * n, [3] * n, [4] * n, [6] * n, [1] * n, [40] * n,
        start=starts,
    )


class TestIntervalIndex:
    def test_basic_mapping(self):
        idx = interval_index(np.array([0.0, 899.9, 900.0, 1800.0]), 0.0, 900.0)
        assert list(idx) == [0, 0, 1, 2]

    def test_origin_shift(self):
        idx = interval_index(np.array([1000.0]), 1000.0, 900.0)
        assert idx[0] == 0

    def test_rejects_bad_interval(self):
        with pytest.raises(ConfigError):
            interval_index(np.array([1.0]), 0.0, 0.0)


class TestIterIntervals:
    def test_flows_assigned_to_correct_windows(self):
        table = _table_with_starts([0.0, 100.0, 950.0, 1850.0])
        views = list(iter_intervals(table, 900.0))
        assert [len(v) for v in views] == [2, 1, 1]
        assert [v.index for v in views] == [0, 1, 2]

    def test_empty_intervals_included_by_default(self):
        table = _table_with_starts([0.0, 2000.0])
        views = list(iter_intervals(table, 900.0))
        assert [len(v) for v in views] == [1, 0, 1]

    def test_empty_intervals_can_be_skipped(self):
        table = _table_with_starts([0.0, 2000.0])
        views = list(iter_intervals(table, 900.0, include_empty=False))
        assert [v.index for v in views] == [0, 2]

    def test_far_timestamp_skipped_to_without_an_index_span_array(self):
        """Without empties the windowing is sized by the rows: a
        timestamp a billion intervals out is one more view, not a
        billion-entry boundary array."""
        table = _table_with_starts([0.0, 1e12, 5.0])
        views = iter_intervals(table, 900.0, include_empty=False)
        assert [(v.index, len(v)) for v in views] == [
            (0, 2), (1_111_111_111, 1),
        ]

    def test_window_boundaries(self):
        table = _table_with_starts([0.0, 900.0])
        views = list(iter_intervals(table, 900.0, origin=0.0))
        assert views[0].start == 0.0 and views[0].end == 900.0
        assert views[1].start == 900.0
        assert views[0].duration == 900.0

    def test_boundary_flow_goes_to_next_interval(self):
        table = _table_with_starts([900.0])
        views = list(iter_intervals(table, 900.0, origin=0.0))
        assert [len(v) for v in views] == [0, 1]

    def test_empty_trace_yields_nothing(self):
        assert list(iter_intervals(FlowTable.empty(), 900.0)) == []

    def test_origin_after_first_flow_rejected(self):
        table = _table_with_starts([0.0, 100.0])
        with pytest.raises(ConfigError, match="origin"):
            list(iter_intervals(table, 900.0, origin=50.0))

    def test_bad_interval_length_rejected(self):
        table = _table_with_starts([0.0])
        with pytest.raises(ConfigError):
            list(iter_intervals(table, -1.0))

    def test_unsorted_input_handled(self):
        table = _table_with_starts([1850.0, 0.0, 950.0])
        views = list(iter_intervals(table, 900.0))
        assert [len(v) for v in views] == [1, 1, 1]

    def test_all_flows_covered_exactly_once(self, rng):
        starts = rng.uniform(0, 10 * 900.0, size=500)
        table = _table_with_starts(list(starts))
        views = list(iter_intervals(table, 900.0, origin=0.0))
        assert sum(len(v) for v in views) == 500


class TestIntervalOf:
    def test_single_interval_extraction(self):
        table = _table_with_starts([0.0, 950.0, 1000.0, 1850.0])
        view = interval_of(table, 1, 900.0, origin=0.0)
        assert len(view) == 2
        assert view.index == 1

    def test_matches_split(self):
        table = _table_with_starts([0.0, 950.0, 1000.0, 1850.0])
        views = list(iter_intervals(table, 900.0, origin=0.0))
        solo = interval_of(table, 2, 900.0, origin=0.0)
        assert len(solo) == len(views[2])

    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigError):
            interval_of(FlowTable.empty(), 0, 900.0)

    def test_negative_index_rejected(self):
        table = _table_with_starts([0.0, 950.0])
        with pytest.raises(ConfigError, match="index"):
            interval_of(table, -1, 900.0, origin=0.0)

    def test_bad_interval_length_rejected(self):
        table = _table_with_starts([0.0, 950.0])
        with pytest.raises(ConfigError, match="positive"):
            interval_of(table, 0, 0.0, origin=0.0)
        with pytest.raises(ConfigError, match="positive"):
            interval_of(table, 0, -900.0, origin=0.0)
