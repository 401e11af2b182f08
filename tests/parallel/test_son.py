"""SON partitioned miner: equivalence with the serial miners.

The acceptance bar of the subsystem: identical item-sets and supports to
``apriori`` on every fixture, for every backend and partition count.
"""

import pytest

from repro.errors import MiningError
from repro.mining.apriori import apriori
from repro.mining.transactions import TransactionSet
from repro.parallel.executor import EXECUTOR_BACKENDS, get_executor
from repro.parallel.son import son
from repro.registry import miners


def _itemset_pairs(result):
    return [(s.items, s.support) for s in result.itemsets]


@pytest.fixture(scope="module")
def table2_transactions(table2_small):
    return (
        TransactionSet.from_flows(table2_small.flows),
        table2_small.min_support,
    )


class TestEquivalence:
    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_matches_apriori_on_table2(self, table2_transactions, backend):
        transactions, min_support = table2_transactions
        reference = apriori(transactions, min_support)
        with get_executor(backend, jobs=2) as executor:
            result = son(
                transactions, min_support, partitions=4, executor=executor
            )
        assert result.all_frequent == reference.all_frequent
        assert _itemset_pairs(result) == _itemset_pairs(reference)

    @pytest.mark.parametrize("partitions", [1, 2, 3, 5, 100])
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

    @pytest.mark.parametrize("local_miner", ["apriori", "eclat", "fpgrowth"])
    def test_any_local_miner(self, tiny_flows, local_miner):
        transactions = TransactionSet.from_flows(tiny_flows)
        reference = apriori(transactions, 2)
        result = son(
            transactions, 2, partitions=2, local_miner=local_miner
        )
        assert result.all_frequent == reference.all_frequent

    def test_non_maximal_output(self, tiny_flows):
        transactions = TransactionSet.from_flows(tiny_flows)
        reference = apriori(transactions, 2, maximal_only=False)
        result = son(transactions, 2, maximal_only=False, partitions=2)
        assert _itemset_pairs(result) == _itemset_pairs(reference)


class TestEdges:
    def test_empty_transactions(self):
        import numpy as np

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

    def test_unknown_local_miner_rejected(self, tiny_flows):
        transactions = TransactionSet.from_flows(tiny_flows)
        with pytest.raises(MiningError, match="local miner"):
            son(transactions, 2, local_miner="bogus")

    def test_registered_in_miners(self, tiny_flows):
        transactions = TransactionSet.from_flows(tiny_flows)
        reference = apriori(transactions, 2)
        result = miners.get("son")(transactions, 2)
        assert result.all_frequent == reference.all_frequent
