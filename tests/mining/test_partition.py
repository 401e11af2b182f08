"""Unit tests for the shard partition/merge layer and the SON miner."""

import numpy as np
import pytest

from repro.errors import MiningError
from repro.mining.apriori import apriori
from repro.mining.partition import (
    count_candidates,
    local_min_support,
    merge_candidates,
    merge_results,
    partition_transactions,
    son,
)
from repro.mining.transactions import TransactionSet
from repro.registry import miners


class TestPartition:
    def test_shards_reassemble_to_input(self, tiny_flows):
        transactions = TransactionSet.from_flows(tiny_flows)
        shards = partition_transactions(transactions, 3)
        stacked = np.vstack([s.matrix for s in shards])
        assert np.array_equal(stacked, transactions.matrix)

    def test_shard_sizes_near_equal(self, tiny_flows):
        transactions = TransactionSet.from_flows(tiny_flows)
        sizes = [len(s) for s in partition_transactions(transactions, 4)]
        assert sum(sizes) == len(transactions)
        assert max(sizes) - min(sizes) <= 1

    def test_more_partitions_than_rows_drops_empty(self, tiny_flows):
        transactions = TransactionSet.from_flows(tiny_flows)
        shards = partition_transactions(transactions, 100)
        assert len(shards) == len(transactions)
        assert all(len(s) == 1 for s in shards)

    def test_single_partition_is_identity(self, tiny_flows):
        transactions = TransactionSet.from_flows(tiny_flows)
        (shard,) = partition_transactions(transactions, 1)
        assert np.array_equal(shard.matrix, transactions.matrix)

    def test_invalid_count_rejected(self, tiny_flows):
        transactions = TransactionSet.from_flows(tiny_flows)
        with pytest.raises(MiningError, match="n_partitions"):
            partition_transactions(transactions, 0)


class TestLocalMinSupport:
    def test_proportional_ceiling(self):
        # 100 of 1000 transactions at s=50 -> ceil(5) = 5.
        assert local_min_support(50, 100, 1000) == 5
        # Non-divisible sizes round up (no false negatives).
        assert local_min_support(50, 101, 1000) == 6

    def test_never_below_one(self):
        assert local_min_support(2, 1, 1000) == 1

    def test_full_shard_keeps_threshold(self):
        assert local_min_support(7, 42, 42) == 7

    def test_empty_universe(self):
        assert local_min_support(5, 0, 0) == 1

    def test_son_guarantee_on_real_data(self, tiny_flows):
        """Every globally frequent item-set is locally frequent in at
        least one shard at the scaled threshold (the SON pigeonhole)."""
        transactions = TransactionSet.from_flows(tiny_flows)
        min_support = 2
        shards = partition_transactions(transactions, 3)
        local = [
            set(
                apriori(
                    shard,
                    local_min_support(
                        min_support, len(shard), len(transactions)
                    ),
                    maximal_only=False,
                ).all_frequent
            )
            for shard in shards
        ]
        for items in apriori(
            transactions, min_support, maximal_only=False
        ).all_frequent:
            assert any(items in candidates for candidates in local)


class TestMerge:
    def test_merge_candidates_dedupes_and_sorts(self):
        merged = merge_candidates([[(3,), (1, 2)], [(1, 2), (5,)]])
        assert merged == [(1, 2), (3,), (5,)]

    def test_merge_results_sums_and_filters(self):
        shard_counts = [
            {(1,): 3, (2,): 1, (1, 2): 1},
            {(1,): 2, (2,): 1, (1, 2): 0},
        ]
        result = merge_results(
            shard_counts, n_transactions=10, min_support=2,
            maximal_only=False,
        )
        # (1, 2) sums to 1 < 2 and is dropped by the global filter.
        assert result.all_frequent == {(1,): 5, (2,): 2}
        assert result.n_transactions == 10
        assert result.algorithm == "son"

    def test_count_candidates_is_exact(self, tiny_flows):
        transactions = TransactionSet.from_flows(tiny_flows)
        frequent = apriori(transactions, 2, maximal_only=False).all_frequent
        counts = count_candidates(transactions, sorted(frequent))
        assert counts == frequent


def _itemset_pairs(result):
    return [(s.items, s.support) for s in result.itemsets]


class TestSon:
    """SON: identical item-sets and supports to ``apriori`` on every
    fixture and partition count; only the ``algorithm`` tag differs."""

    def test_matches_apriori_on_table2(self, table2_small):
        transactions = TransactionSet.from_flows(table2_small.flows)
        reference = apriori(transactions, table2_small.min_support)
        result = son(transactions, table2_small.min_support, partitions=4)
        assert result.all_frequent == reference.all_frequent
        assert _itemset_pairs(result) == _itemset_pairs(reference)

    @pytest.mark.parametrize("partitions", [1, 2, 3, 4, 5, 100])
    def test_partition_count_is_invisible(self, tiny_flows, partitions):
        transactions = TransactionSet.from_flows(tiny_flows)
        reference = apriori(transactions, 2)
        result = son(transactions, 2, partitions=partitions)
        assert result.all_frequent == reference.all_frequent
        assert _itemset_pairs(result) == _itemset_pairs(reference)

    def test_level_stats_match(self, tiny_flows):
        transactions = TransactionSet.from_flows(tiny_flows)
        reference = apriori(transactions, 2)
        result = son(transactions, 2, partitions=3)
        assert result.level_stats == reference.level_stats

    def test_non_maximal_output(self, tiny_flows):
        transactions = TransactionSet.from_flows(tiny_flows)
        reference = apriori(transactions, 2, maximal_only=False)
        result = son(transactions, 2, maximal_only=False, partitions=2)
        assert _itemset_pairs(result) == _itemset_pairs(reference)

    def test_empty_transactions(self):
        empty = TransactionSet(np.empty((0, 7), dtype=np.int64))
        result = son(empty, 5, partitions=3)
        assert result.itemsets == []
        assert result.all_frequent == {}
        assert result.n_transactions == 0

    def test_support_above_input_size(self, tiny_flows):
        transactions = TransactionSet.from_flows(tiny_flows)
        result = son(transactions, len(transactions) + 1, partitions=2)
        assert result.itemsets == []

    def test_algorithm_tag(self, tiny_flows):
        transactions = TransactionSet.from_flows(tiny_flows)
        assert son(transactions, 2).algorithm == "son"

    def test_invalid_support_rejected(self, tiny_flows):
        transactions = TransactionSet.from_flows(tiny_flows)
        with pytest.raises(MiningError, match="min_support"):
            son(transactions, 0)

    def test_registered_in_miners(self, tiny_flows):
        transactions = TransactionSet.from_flows(tiny_flows)
        reference = apriori(transactions, 2)
        assert miners.get("son") is son
        result = miners.get("son")(transactions, 2)
        assert result.all_frequent == reference.all_frequent
