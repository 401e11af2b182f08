"""Unit tests for maximal item-set filtering."""

import numpy as np
import pytest

from repro.detection.features import Feature
from repro.flows.table import FlowTable
from repro.mining.apriori import apriori
from repro.mining.items import FrequentItemset, encode_item, itemsets_sorted
from repro.mining.maximal import filter_maximal, is_maximal_in
from repro.mining.transactions import TransactionSet

A = encode_item(Feature.SRC_IP, 1)
B = encode_item(Feature.DST_IP, 2)
C = encode_item(Feature.DST_PORT, 80)


def _sorted(*items):
    return tuple(sorted(items))


class TestFilterMaximal:
    def test_removes_subsets(self):
        frequent = {
            _sorted(A): 10,
            _sorted(B): 9,
            _sorted(A, B): 8,
        }
        maximal = filter_maximal(frequent)
        assert maximal == {_sorted(A, B): 8}

    def test_keeps_incomparable_sets(self):
        frequent = {
            _sorted(A): 10,
            _sorted(B): 9,
            _sorted(C): 8,
            _sorted(A, B): 7,
        }
        maximal = filter_maximal(frequent)
        assert set(maximal) == {_sorted(A, B), _sorted(C)}

    def test_empty(self):
        assert filter_maximal({}) == {}

    def test_single_itemset(self):
        frequent = {_sorted(A): 5}
        assert filter_maximal(frequent) == frequent

    def test_chain_keeps_only_top(self):
        frequent = {
            _sorted(A): 10,
            _sorted(A, B): 9,
            _sorted(A, B, C): 8,
            _sorted(B): 10,
            _sorted(C): 10,
            _sorted(B, C): 9,
            _sorted(A, C): 9,
        }
        maximal = filter_maximal(frequent)
        assert maximal == {_sorted(A, B, C): 8}

    def test_supports_preserved(self):
        frequent = {_sorted(A): 10, _sorted(A, B): 3, _sorted(B): 5}
        maximal = filter_maximal(frequent)
        assert maximal[_sorted(A, B)] == 3


    def test_equal_support_subset_removed(self):
        """A and B always co-occur: only the pair is reported."""
        frequent = {_sorted(A): 10, _sorted(B): 10, _sorted(A, B): 10}
        assert filter_maximal(frequent) == {_sorted(A, B): 10}

    def test_higher_support_subset_removed_too(self):
        """Maximality ignores supports: a subset with more support than
        its frequent superset still goes."""
        frequent = {_sorted(A): 15, _sorted(B): 10, _sorted(A, B): 10}
        assert filter_maximal(frequent) == {_sorted(A, B): 10}


class TestIsMaximalIn:
    def test_reference_agrees_with_filter(self):
        frequent = {
            _sorted(A): 10,
            _sorted(B): 9,
            _sorted(C): 8,
            _sorted(A, B): 7,
            _sorted(B, C): 6,
        }
        maximal = filter_maximal(frequent)
        for items in frequent:
            assert (items in maximal) == is_maximal_in(items, frequent)

    def test_reference_agrees_on_a_full_lattice(self):
        frequent = {
            _sorted(A): 15,
            _sorted(B): 10,
            _sorted(C): 15,
            _sorted(A, B): 10,
            _sorted(A, C): 15,
            _sorted(B, C): 10,
            _sorted(A, B, C): 10,
        }
        maximal = filter_maximal(frequent)
        assert maximal == {_sorted(A, B, C): 10}
        for items in frequent:
            assert (items in maximal) == is_maximal_in(items, frequent)


class TestOnRealData:
    @pytest.fixture(scope="class")
    def mined(self):
        rng = np.random.default_rng(3)
        n = 200
        flows = FlowTable.from_arrays(
            src_ip=rng.integers(0, 4, n),
            dst_ip=rng.integers(0, 4, n),
            src_port=rng.integers(0, 4, n),
            dst_port=rng.integers(0, 4, n),
            protocol=[6] * n,
            packets=rng.integers(1, 3, n),
            bytes_=rng.integers(40, 43, n),
        )
        return apriori(TransactionSet.from_flows(flows), 20)

    def test_all_maximal_are_truly_maximal(self, mined):
        for items in filter_maximal(mined.all_frequent):
            assert is_maximal_in(items, mined.all_frequent)

    def test_no_maximal_itemset_missed(self, mined):
        maximal = filter_maximal(mined.all_frequent)
        for items in mined.all_frequent:
            if is_maximal_in(items, mined.all_frequent):
                assert items in maximal

    def test_every_frequent_itemset_has_a_maximal_superset(self, mined):
        maximal = [set(items) for items in filter_maximal(mined.all_frequent)]
        for items in mined.all_frequent:
            assert any(set(items) <= other for other in maximal)

    def test_maximal_family_is_an_antichain(self, mined):
        maximal = [set(items) for items in filter_maximal(mined.all_frequent)]
        for i, left in enumerate(maximal):
            for right in maximal[i + 1:]:
                assert not left <= right and not right <= left

    def test_report_is_the_filtered_family_in_report_order(self, mined):
        expected = itemsets_sorted(
            [
                FrequentItemset(items=items, support=support)
                for items, support in filter_maximal(mined.all_frequent).items()
            ]
        )
        assert mined.itemsets == expected

    def test_level_stats_count_what_the_filter_kept(self, mined):
        maximal = filter_maximal(mined.all_frequent)
        for stats in mined.level_stats:
            assert stats.kept == sum(1 for m in maximal if len(m) == stats.size)
