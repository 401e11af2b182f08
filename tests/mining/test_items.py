"""Unit tests for item encoding and FrequentItemset."""

import pytest

from repro.detection.features import Feature
from repro.errors import MiningError
from repro.mining.items import (
    FrequentItemset,
    decode_item,
    encode_item,
    format_item,
    item_feature,
    itemsets_sorted,
)


class TestEncoding:
    def test_round_trip_all_features(self):
        for feature in Feature:
            item = encode_item(feature, 8080)
            assert decode_item(item) == (feature, 8080)

    def test_same_value_different_feature_distinct(self):
        a = encode_item(Feature.SRC_PORT, 80)
        b = encode_item(Feature.DST_PORT, 80)
        assert a != b

    def test_item_feature(self):
        assert item_feature(encode_item(Feature.BYTES, 1500)) is Feature.BYTES

    def test_value_range_checked(self):
        with pytest.raises(MiningError):
            encode_item(Feature.BYTES, 1 << 48)
        with pytest.raises(MiningError):
            encode_item(Feature.BYTES, -1)

    def test_decode_rejects_garbage(self):
        with pytest.raises(MiningError):
            decode_item(99 << 48)

    def test_format_item(self):
        assert format_item(encode_item(Feature.DST_PORT, 80)) == "dstPort=80"
        ip_item = encode_item(Feature.SRC_IP, 167772161)
        assert format_item(ip_item) == "srcIP=10.0.0.1"


class TestFrequentItemset:
    def _itemset(self, pairs, support=10):
        items = tuple(sorted(encode_item(f, v) for f, v in pairs))
        return FrequentItemset(items=items, support=support)

    def test_size_and_dict(self):
        itemset = self._itemset([(Feature.DST_PORT, 80), (Feature.PROTOCOL, 6)])
        assert itemset.size == 2
        assert itemset.as_dict() == {Feature.DST_PORT: 80, Feature.PROTOCOL: 6}

    def test_rejects_duplicate_feature(self):
        items = tuple(
            sorted(
                [encode_item(Feature.DST_PORT, 80),
                 encode_item(Feature.DST_PORT, 25)]
            )
        )
        with pytest.raises(MiningError, match="two items of one feature"):
            FrequentItemset(items=items, support=1)

    def test_rejects_unsorted_items(self):
        a = encode_item(Feature.SRC_IP, 5)
        b = encode_item(Feature.DST_PORT, 80)
        with pytest.raises(MiningError, match="sorted"):
            FrequentItemset(items=(max(a, b), min(a, b)), support=1)

    def test_rejects_empty(self):
        with pytest.raises(MiningError):
            FrequentItemset(items=(), support=1)

    def test_rejects_negative_support(self):
        with pytest.raises(MiningError):
            self._itemset([(Feature.DST_PORT, 80)], support=-1)

    def test_str_readable(self):
        itemset = self._itemset([(Feature.DST_PORT, 7000)], support=42)
        assert "dstPort=7000" in str(itemset)
        assert "support=42" in str(itemset)

    def test_sorted_order(self):
        a = self._itemset([(Feature.DST_PORT, 80)], support=10)
        b = self._itemset([(Feature.DST_PORT, 25)], support=99)
        c = self._itemset(
            [(Feature.DST_PORT, 81), (Feature.PROTOCOL, 6)], support=10
        )
        ordered = itemsets_sorted([a, b, c])
        assert ordered[0] is b          # highest support first
        assert ordered[1] is c          # ties broken by size descending
        assert ordered[2] is a
