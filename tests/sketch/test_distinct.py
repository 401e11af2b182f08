"""Unit tests for the sorted distinct-value summary and its merge."""

import numpy as np

from repro.sketch.distinct import sorted_distinct, union_counts


def _column(values):
    return sorted_distinct(np.asarray(values, dtype=np.uint64))


class TestSortedDistinct:
    def test_values_sorted_with_run_lengths(self):
        distinct, counts = _column([9, 2, 9, 5, 2, 9])
        assert distinct.tolist() == [2, 5, 9]
        assert counts.tolist() == [2.0, 1.0, 3.0]

    def test_output_dtypes_and_read_only_values(self):
        distinct, counts = sorted_distinct(np.array([3, 1], dtype=np.uint16))
        assert distinct.dtype == np.uint64
        assert counts.dtype == np.float64
        assert not distinct.flags.writeable

    def test_empty_column(self):
        distinct, counts = _column([])
        assert distinct.dtype == np.uint64 and distinct.size == 0
        assert counts.dtype == np.float64 and counts.size == 0

    def test_top_of_the_key_range_keeps_its_order(self):
        top = 2**64 - 1
        distinct, counts = _column([top, 0, top])
        assert distinct.tolist() == [0, top]
        assert counts.tolist() == [1.0, 2.0]


class TestUnionCounts:
    def test_shared_values_add_their_counts(self):
        union, counts = union_counts(*_column([1, 4, 4]), *_column([4, 7]))
        assert union.tolist() == [1, 4, 7]
        assert counts.tolist() == [1.0, 3.0, 1.0]

    def test_disjoint_sides_interleave(self):
        union, counts = union_counts(*_column([2, 6]), *_column([1, 5, 9]))
        assert union.tolist() == [1, 2, 5, 6, 9]
        assert counts.tolist() == [1.0] * 5

    def test_empty_side_returns_the_other_uncopied(self):
        values, counts = _column([3, 3, 8])
        empty = _column([])
        right = union_counts(*empty, values, counts)
        assert right[0] is values and right[1] is counts
        left = union_counts(values, counts, *empty)
        assert left[0] is values and left[1] is counts

    def test_merged_arrays_are_read_only(self):
        union, counts = union_counts(*_column([1]), *_column([2]))
        assert not union.flags.writeable
        assert not counts.flags.writeable
