"""Unit tests for the modified Apriori miner."""

import numpy as np
import pytest

from repro.errors import ConfigError, MiningError
from repro.flows.table import FlowTable
from repro.mining.apriori import apriori
from repro.mining.transactions import TransactionSet
from tests.mining.reference import brute_force_frequent, brute_force_maximal


def _flows_with_pattern(n_pattern=50, n_noise=30, seed=0):
    """n_pattern flows share (dst_ip=9, dst_port=7000); noise is random."""
    rng = np.random.default_rng(seed)
    total = n_pattern + n_noise
    dst_ip = np.concatenate(
        [np.full(n_pattern, 9), rng.integers(100, 10_000, n_noise)]
    )
    dst_port = np.concatenate(
        [np.full(n_pattern, 7000), rng.integers(1, 60_000, n_noise)]
    )
    return FlowTable.from_arrays(
        src_ip=rng.integers(0, 1 << 30, total),
        dst_ip=dst_ip,
        src_port=rng.integers(1024, 65536, total),
        dst_port=dst_port,
        protocol=[6] * total,
        packets=rng.integers(1, 4, total),
        bytes_=rng.integers(40, 2000, total),
    )


@pytest.fixture(scope="module")
def pattern_transactions():
    return TransactionSet.from_flows(_flows_with_pattern())


class TestApriori:
    def test_matches_brute_force(self, pattern_transactions):
        result = apriori(pattern_transactions, min_support=10)
        expected = brute_force_frequent(pattern_transactions, 10)
        assert result.all_frequent == expected

    def test_maximal_matches_brute_force(self, pattern_transactions):
        result = apriori(pattern_transactions, min_support=10)
        expected = brute_force_maximal(
            brute_force_frequent(pattern_transactions, 10)
        )
        mined = {s.items: s.support for s in result.itemsets}
        assert mined == expected

    def test_horizontal_backend_agrees(self, pattern_transactions):
        vertical = apriori(pattern_transactions, 10, counting="vertical")
        horizontal = apriori(pattern_transactions, 10, counting="horizontal")
        assert vertical.all_frequent == horizontal.all_frequent

    def test_pattern_is_top_itemset(self, pattern_transactions):
        result = apriori(pattern_transactions, min_support=40)
        top = result.itemsets[0]
        decoded = {f.short_name: v for f, v in top.as_dict().items()}
        assert decoded["dstIP"] == 9
        assert decoded["dstPort"] == 7000
        assert decoded["proto"] == 6
        assert top.support == 50

    def test_support_counts_are_exact(self, pattern_transactions):
        result = apriori(pattern_transactions, min_support=5)
        for items, support in result.all_frequent.items():
            assert support == pattern_transactions.support_of(items)

    def test_antimonotone_supports(self, pattern_transactions):
        result = apriori(pattern_transactions, min_support=5)
        frequent = result.all_frequent
        for items, support in frequent.items():
            if len(items) >= 2:
                for drop in range(len(items)):
                    subset = items[:drop] + items[drop + 1:]
                    assert frequent[subset] >= support

    def test_level_stats_consistent(self, pattern_transactions):
        result = apriori(pattern_transactions, min_support=10)
        for stats in result.level_stats:
            assert 0 <= stats.kept <= stats.found
            assert stats.removed == stats.found - stats.kept
        total_found = sum(s.found for s in result.level_stats)
        assert total_found == len(result.all_frequent)

    def test_maximal_only_false_returns_everything(self, pattern_transactions):
        result = apriori(pattern_transactions, 10, maximal_only=False)
        assert len(result.itemsets) == len(result.all_frequent)

    def test_min_support_above_everything(self, pattern_transactions):
        result = apriori(pattern_transactions, min_support=10_000)
        assert result.itemsets == []
        assert result.all_frequent == {}
        assert result.max_size == 0

    def test_min_support_one_on_empty_input(self):
        transactions = TransactionSet.from_flows(FlowTable.empty())
        result = apriori(transactions, min_support=1)
        assert result.itemsets == []
        assert result.n_transactions == 0

    def test_max_size_caps_levels(self, pattern_transactions):
        result = apriori(pattern_transactions, min_support=10, max_size=2)
        assert result.max_size <= 2

    def test_validation(self, pattern_transactions):
        with pytest.raises(ConfigError, match="min_support"):
            apriori(pattern_transactions, min_support=0)
        with pytest.raises(MiningError):
            apriori(pattern_transactions, 10, counting="quantum")
        with pytest.raises(MiningError):
            apriori(pattern_transactions, 10, max_size=0)
        with pytest.raises(MiningError):
            apriori(pattern_transactions, 10, max_size=8)

    def test_seven_levels_maximum(self):
        # All transactions identical: the full 7-item-set is frequent.
        flows = FlowTable.from_arrays(
            [1] * 5, [2] * 5, [3] * 5, [4] * 5, [6] * 5, [1] * 5, [40] * 5
        )
        result = apriori(TransactionSet.from_flows(flows), min_support=5)
        assert result.max_size == 7
        assert len(result.itemsets) == 1
        assert result.itemsets[0].size == 7
        assert result.itemsets[0].support == 5
        # All 127 subsets are frequent; only the 7-item-set is maximal.
        assert len(result.all_frequent) == 127

    def test_summary_lines_shape(self, pattern_transactions):
        result = apriori(pattern_transactions, min_support=10)
        lines = result.summary_lines()
        assert "apriori" in lines[0]
        assert any("maximal item-sets" in line for line in lines)
