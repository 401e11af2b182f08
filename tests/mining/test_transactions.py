"""Unit tests for transaction sets."""

import numpy as np
import pytest

from repro.detection.features import Feature
from repro.errors import MiningError
from repro.flows.io import iter_csv_handle
from repro.flows.table import FlowTable
from repro.mining import miners
from repro.mining.items import FEATURE_SHIFT, VALUE_MASK, encode_item
from repro.mining.transactions import TRANSACTION_WIDTH, TransactionSet


@pytest.fixture()
def transactions(tiny_flows):
    return TransactionSet.from_flows(tiny_flows)


class TestConstruction:
    def test_width_is_seven(self, transactions, tiny_flows):
        assert transactions.matrix.shape == (len(tiny_flows), TRANSACTION_WIDTH)

    def test_bad_matrix_shape_rejected(self):
        with pytest.raises(MiningError):
            TransactionSet(np.zeros((3, 4), dtype=np.int64))

    @pytest.mark.parametrize(
        "cell", [encode_item(Feature.SRC_IP, 5), -1, 9 << FEATURE_SHIFT]
    )
    def test_cell_of_another_feature_rejected(self, transactions, cell):
        """The columns re-tag values by position: a dst_port cell
        holding a src_ip item (or a negative cell, or an unknown tag)
        would silently turn into another item."""
        matrix = transactions.matrix.copy()
        matrix[2, 3] = cell
        with pytest.raises(MiningError, match=r"\[3\]"):
            TransactionSet(matrix)

    def test_columns_are_the_tables_own(self, tiny_flows, transactions):
        """No copy on encode: the miners read the table's columns."""
        assert transactions._columns[0] is tiny_flows.src_ip
        assert transactions._columns[6] is tiny_flows.bytes
        assert not transactions.matrix.flags.writeable

    def test_items_decode_back_to_flow_values(self, transactions, tiny_flows):
        row = transactions.matrix[0]
        expected = [
            encode_item(Feature.SRC_IP, 10),
            encode_item(Feature.DST_IP, 20),
            encode_item(Feature.SRC_PORT, 1024),
            encode_item(Feature.DST_PORT, 80),
            encode_item(Feature.PROTOCOL, 6),
            encode_item(Feature.PACKETS, 1),
            encode_item(Feature.BYTES, 40),
        ]
        assert row.tolist() == expected


class TestSupports:
    def test_item_supports_total(self, transactions, tiny_flows):
        items, counts = transactions.item_supports()
        assert counts.sum() == len(tiny_flows) * TRANSACTION_WIDTH

    def test_frequent_items_thresholding(self, transactions):
        port80 = encode_item(Feature.DST_PORT, 80)
        frequent = transactions.frequent_items(min_support=4)
        assert frequent[port80] == 4
        port25 = encode_item(Feature.DST_PORT, 25)
        assert port25 not in frequent

    def test_frequent_items_validation(self, transactions):
        with pytest.raises(MiningError):
            transactions.frequent_items(0)

    def test_tidset_matches_manual_scan(self, transactions, tiny_flows):
        item = encode_item(Feature.DST_PORT, 80)
        tids = transactions.tidset(item)
        manual = [i for i, r in enumerate(tiny_flows) if r.dst_port == 80]
        assert tids.tolist() == manual

    def test_tidsets_bulk_matches_single(self, transactions):
        items = [
            encode_item(Feature.DST_PORT, 80),
            encode_item(Feature.SRC_IP, 10),
            encode_item(Feature.PACKETS, 1),
        ]
        bulk = transactions.tidsets(items)
        for item in items:
            assert bulk[item].tolist() == transactions.tidset(item).tolist()

    def test_contains_mask_multi_item(self, transactions):
        items = (
            encode_item(Feature.SRC_IP, 10),
            encode_item(Feature.DST_PORT, 80),
        )
        mask = transactions.contains_mask(items)
        assert mask.tolist() == [True, True, False, False, False, True]

    def test_support_of(self, transactions):
        items = (
            encode_item(Feature.SRC_IP, 10),
            encode_item(Feature.DST_PORT, 80),
        )
        assert transactions.support_of(items) == 3
        assert transactions.support_of(()) == len(transactions)

    def test_rows_as_sets(self, transactions):
        rows = transactions.rows_as_sets()
        assert len(rows) == len(transactions)
        assert all(len(row) == TRANSACTION_WIDTH for row in rows)

    def test_empty_flows(self):
        transactions = TransactionSet.from_flows(FlowTable.empty())
        assert len(transactions) == 0
        items, counts = transactions.item_supports()
        assert len(items) == 0


BUILT_IN_MINERS = ("apriori", "eclat", "fpgrowth", "son")


def _assert_well_formed_and_mined(transactions, item, support):
    """Every cell's tag is its column, no item is negative, and the
    four registered miners agree on a result that holds ``item``."""
    matrix = transactions.matrix
    assert (matrix >= 0).all()
    assert (matrix >> FEATURE_SHIFT == np.arange(TRANSACTION_WIDTH)).all()
    results = [
        miners.get(name)(transactions, support).all_frequent
        for name in BUILT_IN_MINERS
    ]
    assert all(result == results[0] for result in results[1:])
    assert results[0][(item,)] == support


class TestValueMaskClip:
    """Fault-matrix cell: item values at the 2^48 ``VALUE_MASK`` clip."""

    @pytest.mark.parametrize("column", ["packets", "bytes"])
    @pytest.mark.parametrize(
        "value", [2**48 - 1, 2**48, 2**63, 2**64 - 1]
    )
    def test_huge_counts_become_the_one_clipped_item(self, column, value):
        counts = {
            "packets": np.array([1, 2, 3, 1, 2, 3], dtype=np.uint64),
            "bytes_": np.array([40, 41, 42, 40, 41, 42], dtype=np.uint64),
        }
        counts["bytes_" if column == "bytes" else column][:4] = value
        flows = FlowTable.from_arrays(
            src_ip=[1, 1, 1, 1, 2, 3], dst_ip=[9] * 6,
            src_port=[5, 6, 7, 8, 9, 10], dst_port=[80] * 6,
            protocol=[6] * 6, **counts,
        )
        transactions = TransactionSet.from_flows(flows)
        feature = Feature(column)
        item = encode_item(feature, min(value, VALUE_MASK))
        col = item >> FEATURE_SHIFT
        assert transactions.matrix[:4, col].tolist() == [item] * 4
        assert transactions.support_of((item,)) == 4
        _assert_well_formed_and_mined(transactions, item, 4)

    def test_every_clipped_value_is_the_same_item(self):
        flows = FlowTable.from_arrays(
            src_ip=[1] * 4, dst_ip=[2] * 4, src_port=[3] * 4,
            dst_port=[4] * 4, protocol=[6] * 4, packets=[1] * 4,
            bytes_=np.array(
                [2**48 - 1, 2**48, 2**63, 2**64 - 1], dtype=np.uint64
            ),
        )
        transactions = TransactionSet.from_flows(flows)
        item = encode_item(Feature.BYTES, VALUE_MASK)
        _assert_well_formed_and_mined(transactions, item, 4)

    def test_csv_row_past_int64_mines_to_a_typed_result(self):
        """The reported traceback: the text edge accepts a byte count
        that fits uint64 but not int64."""
        header = "src_ip,dst_ip,src_port,dst_port,protocol,packets,bytes,start,label"
        lines = [header] + [
            f"1,2,{port},80,6,1,9223372036854775813,0.0,-1"
            for port in (1000, 1001, 1002)
        ]
        (flows,) = iter_csv_handle(lines)
        transactions = TransactionSet.from_flows(flows)
        item = encode_item(Feature.BYTES, VALUE_MASK)
        _assert_well_formed_and_mined(transactions, item, 3)


class TestBitmaps:
    def test_rows_are_the_tidsets(self, transactions):
        items = [
            encode_item(Feature.DST_PORT, 80),
            encode_item(Feature.SRC_IP, 10),
            encode_item(Feature.PACKETS, 1),
        ]
        bits = transactions.bitmaps(items)
        assert bits.shape == (3, 1) and bits.dtype == np.uint64
        for row, item in zip(bits, items):
            tids = [t for t in range(64) if int(row[0]) >> t & 1]
            assert tids == transactions.tidset(item).tolist()

    def test_absent_and_foreign_items_are_zero_rows(self, transactions):
        absent = encode_item(Feature.DST_PORT, 81)
        foreign = 99 << FEATURE_SHIFT  # no such feature column
        bits = transactions.bitmaps([absent, foreign, -1])
        assert bits.shape == (3, 1) and not bits.any()

    def test_value_past_the_column_width_matches_nothing(self):
        """A src_ip item of value 2^32 + 5 does not fit the uint32
        column; a wrapping cast would match the flows with src_ip 5."""
        flows = FlowTable.from_arrays(
            src_ip=[5, 5, 6], dst_ip=[1] * 3, src_port=[2] * 3,
            dst_port=[80] * 3, protocol=[6] * 3, packets=[1] * 3,
            bytes_=[40] * 3,
        )
        transactions = TransactionSet.from_flows(flows)
        wide = encode_item(Feature.SRC_IP, 2**32 + 5)
        narrow = encode_item(Feature.SRC_IP, 5)
        bits = transactions.bitmaps([wide, narrow])
        assert not bits[0].any()
        assert int(bits[1, 0]) == 0b011
        assert transactions.support_of((wide,)) == 0

    def test_no_items_and_no_transactions(self, transactions):
        assert transactions.bitmaps([]).shape == (0, 1)
        empty = TransactionSet.from_flows(FlowTable.empty())
        assert empty.bitmaps([encode_item(Feature.DST_PORT, 80)]).shape == (1, 0)
