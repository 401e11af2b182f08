"""Unit tests for FP-Growth and Eclat, plus cross-miner consistency."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.flows.table import FlowTable
from repro.mining.apriori import apriori
from repro.mining.eclat import eclat
from repro.mining.fpgrowth import fpgrowth
from repro.mining.transactions import TransactionSet
from tests.mining.reference import brute_force_frequent


def _random_flows(n, seed, value_range=12):
    """Dense value collisions so multi-item patterns emerge."""
    rng = np.random.default_rng(seed)
    return FlowTable.from_arrays(
        src_ip=rng.integers(0, value_range, n),
        dst_ip=rng.integers(0, value_range, n),
        src_port=rng.integers(0, value_range, n),
        dst_port=rng.integers(0, value_range, n),
        protocol=rng.integers(0, 3, n),
        packets=rng.integers(1, 5, n),
        bytes_=rng.integers(40, 44, n),
    )


@pytest.fixture(scope="module", params=[0, 1, 2])
def dense_transactions(request):
    return TransactionSet.from_flows(_random_flows(120, seed=request.param))


class TestFpGrowth:
    def test_matches_brute_force(self, dense_transactions):
        result = fpgrowth(dense_transactions, min_support=15)
        assert result.all_frequent == brute_force_frequent(
            dense_transactions, 15
        )

    def test_empty_input(self):
        result = fpgrowth(TransactionSet.from_flows(FlowTable.empty()), 1)
        assert result.itemsets == []

    def test_validation(self, dense_transactions):
        with pytest.raises(ConfigError, match="min_support"):
            fpgrowth(dense_transactions, 0)

    def test_algorithm_tag(self, dense_transactions):
        assert fpgrowth(dense_transactions, 30).algorithm == "fpgrowth"


class TestEclat:
    def test_matches_brute_force(self, dense_transactions):
        result = eclat(dense_transactions, min_support=15)
        assert result.all_frequent == brute_force_frequent(
            dense_transactions, 15
        )

    def test_empty_input(self):
        result = eclat(TransactionSet.from_flows(FlowTable.empty()), 1)
        assert result.itemsets == []

    def test_validation(self, dense_transactions):
        with pytest.raises(ConfigError, match="min_support"):
            eclat(dense_transactions, 0)

    def test_algorithm_tag(self, dense_transactions):
        assert eclat(dense_transactions, 30).algorithm == "eclat"


class TestMinerConsistency:
    @pytest.mark.parametrize("min_support", [5, 15, 40, 80])
    def test_all_three_miners_agree(self, dense_transactions, min_support):
        a = apriori(dense_transactions, min_support)
        f = fpgrowth(dense_transactions, min_support)
        e = eclat(dense_transactions, min_support)
        assert a.all_frequent == f.all_frequent == e.all_frequent
        assert (
            {s.items: s.support for s in a.itemsets}
            == {s.items: s.support for s in f.itemsets}
            == {s.items: s.support for s in e.itemsets}
        )

    def test_agree_on_table2_scenario(self, table2_small):
        transactions = TransactionSet.from_flows(table2_small.flows)
        support = table2_small.min_support
        a = apriori(transactions, support)
        f = fpgrowth(transactions, support)
        e = eclat(transactions, support)
        assert a.all_frequent == f.all_frequent == e.all_frequent
