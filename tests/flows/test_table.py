"""Unit tests for the columnar FlowTable."""

import numpy as np
import pytest

from repro.errors import FlowError
from repro.flows.record import BASELINE_LABEL, FlowRecord
from repro.flows.table import ALL_COLUMNS, FEATURE_COLUMNS, FlowTable


class TestConstruction:
    def test_from_arrays_defaults(self):
        table = FlowTable.from_arrays(
            [1], [2], [3], [4], [6], [1], [40]
        )
        assert len(table) == 1
        assert table.start[0] == 0.0
        assert table.label[0] == BASELINE_LABEL

    def test_empty(self):
        table = FlowTable.empty()
        assert len(table) == 0
        assert table.summary()["flows"] == 0

    def test_missing_column_rejected(self):
        with pytest.raises(FlowError, match="missing columns"):
            FlowTable({name: np.array([1]) for name in FEATURE_COLUMNS})

    def test_ragged_columns_rejected(self):
        columns = {name: np.array([1]) for name in ALL_COLUMNS}
        columns["src_ip"] = np.array([1, 2])
        with pytest.raises(FlowError, match="ragged"):
            FlowTable(columns)

    def test_columns_are_read_only(self):
        table = FlowTable.from_arrays([1], [2], [3], [4], [6], [1], [40])
        with pytest.raises(ValueError):
            table.src_ip[0] = 99


class TestAccess:
    def test_column_by_name(self, tiny_flows):
        assert np.array_equal(tiny_flows.column("dst_port"), tiny_flows.dst_port)

    def test_unknown_column(self, tiny_flows):
        with pytest.raises(FlowError, match="unknown column"):
            tiny_flows.column("nope")

    def test_row_out_of_range(self, tiny_flows):
        with pytest.raises(FlowError, match="out of range"):
            tiny_flows.row(100)

    def test_negative_row_index(self, tiny_flows):
        assert tiny_flows.row(-1) == tiny_flows.row(len(tiny_flows) - 1)

    def test_iteration_yields_records(self, tiny_flows):
        rows = list(tiny_flows)
        assert len(rows) == len(tiny_flows)
        assert all(isinstance(r, FlowRecord) for r in rows)


class TestSelection:
    def test_select_boolean_mask(self, tiny_flows):
        mask = tiny_flows.dst_port == 80
        picked = tiny_flows.select(mask)
        assert len(picked) == 4
        assert (picked.dst_port == 80).all()

    def test_select_mask_length_checked(self, tiny_flows):
        with pytest.raises(FlowError, match="mask length"):
            tiny_flows.select(np.array([True, False]))

    def test_select_indices(self, tiny_flows):
        picked = tiny_flows.select(np.array([5, 0]))
        assert len(picked) == 2
        assert picked.row(0) == tiny_flows.row(5)

    def test_row_range_shares_rows(self, tiny_flows):
        cut = tiny_flows.row_range(1, 4)
        assert cut == tiny_flows.select(np.arange(1, 4))
        assert cut.to_state() == tiny_flows.select(np.arange(1, 4)).to_state()
        for name in ALL_COLUMNS:
            column = cut.column(name)
            assert np.shares_memory(column, tiny_flows.column(name))
            assert not column.flags.writeable

    def test_row_range_edges(self, tiny_flows):
        assert tiny_flows.row_range(0, len(tiny_flows)) is tiny_flows
        assert len(tiny_flows.row_range(3, 3)) == 0
        for lo, hi in [(-1, 2), (4, 3), (0, 7)]:
            with pytest.raises(FlowError, match="row range"):
                tiny_flows.row_range(lo, hi)

    def test_sort_by_start(self):
        table = FlowTable.from_arrays(
            [1, 2, 3], [1, 1, 1], [1, 1, 1], [1, 1, 1],
            [6, 6, 6], [1, 1, 1], [40, 40, 40],
            start=[3.0, 1.0, 2.0],
        )
        ordered = table.sort_by_start()
        assert list(ordered.start) == [1.0, 2.0, 3.0]
        assert list(ordered.src_ip) == [2, 3, 1]


class TestConcat:
    def test_concat_preserves_order(self, tiny_flows):
        merged = FlowTable.concat([tiny_flows, tiny_flows])
        assert len(merged) == 2 * len(tiny_flows)
        assert merged.row(len(tiny_flows)) == tiny_flows.row(0)

    def test_concat_empty_list(self):
        assert len(FlowTable.concat([])) == 0

    def test_concat_with_empty_table(self, tiny_flows):
        merged = FlowTable.concat([tiny_flows, FlowTable.empty()])
        assert merged == tiny_flows


class TestGroundTruth:
    def test_anomalous_mask(self, tiny_flows):
        assert tiny_flows.anomalous_mask.sum() == 2

    def test_event_labels_sorted_unique(self, tiny_flows):
        assert list(tiny_flows.event_labels()) == [0, 1]


class TestMisc:
    def test_summary_counts(self, tiny_flows):
        summary = tiny_flows.summary()
        assert summary["flows"] == 6
        assert summary["anomalous"] == 2
        assert summary["unique_src_ips"] == 4

    def test_equality(self, tiny_flows):
        assert tiny_flows == FlowTable.concat([tiny_flows])
        assert tiny_flows != tiny_flows.select(np.array([0, 1]))

    def test_equality_other_type(self, tiny_flows):
        assert tiny_flows.__eq__(42) is NotImplemented

    def test_unhashable(self, tiny_flows):
        with pytest.raises(TypeError):
            hash(tiny_flows)

    def test_repr_mentions_counts(self, tiny_flows):
        assert "n=6" in repr(tiny_flows)


class TestPackedState:
    """The packed-array checkpoint codec (pack_array / to_state)."""

    def test_to_state_is_memoized(self, tiny_flows):
        assert tiny_flows.to_state() is tiny_flows.to_state()

    def test_state_is_deterministic(self, tiny_flows):
        clone = FlowTable.concat([tiny_flows])
        assert tiny_flows.to_state() == clone.to_state()

    def test_plain_sequence_state_accepted(self):
        state = {name: [1] for name in ALL_COLUMNS}
        state["start"] = [1.5]
        table = FlowTable.from_state(state)
        assert len(table) == 1
        assert table.start[0] == 1.5

    def test_malformed_packed_array_rejected(self, tiny_flows):
        state = {
            name: dict(packed) for name, packed in
            tiny_flows.to_state().items()
        }
        state["src_ip"] = {"dtype": "<u4", "data": "!!not-base64!!"}
        with pytest.raises(FlowError, match="malformed table state"):
            FlowTable.from_state(state)

    def test_ragged_packed_buffer_rejected(self, tiny_flows):
        import base64

        state = {
            name: dict(packed) for name, packed in
            tiny_flows.to_state().items()
        }
        state["src_ip"] = {
            "dtype": "<u4",
            "data": base64.b64encode(b"abc").decode(),
        }
        with pytest.raises(FlowError, match="does not\\s+divide"):
            FlowTable.from_state(state)

    def test_narrowing_is_value_lossless(self):
        from repro.state import pack_array, unpack_array

        rng = np.random.default_rng(7)
        arrays = [
            rng.integers(0, 2**16, 2048).astype(np.uint32),
            rng.integers(0, 2**32, 2048).astype(np.uint64),
            rng.integers(0, 200, 2048).astype(np.float64),
            rng.uniform(0, 1, 2048),
            np.concatenate([[np.nan, -1.0, 0.5], np.zeros(2048)]),
        ]
        for array in arrays:
            packed = pack_array(array)
            restored = unpack_array(packed).astype(array.dtype)
            assert np.array_equal(restored, array, equal_nan=True)

    def test_narrowing_shrinks_integer_columns(self):
        from repro.state import pack_array

        ports = np.arange(4096, dtype=np.uint32)
        assert pack_array(ports)["dtype"] == "<u2"
        counts = np.arange(256, dtype=np.float64)
        assert pack_array(counts)["dtype"] == "|u1"
