"""Frequent item-set mining over flow transactions."""

from repro.mining.apriori import apriori
from repro.mining.closed import closed_itemsets, filter_closed, is_closed_in
from repro.mining.eclat import eclat
from repro.mining.fpgrowth import fpgrowth
from repro.mining.items import (
    FEATURE_SHIFT,
    VALUE_MASK,
    FrequentItemset,
    decode_item,
    encode_item,
    format_item,
    item_feature,
    itemsets_sorted,
)
from repro.mining.maximal import filter_maximal, is_maximal_in
from repro.mining.multilevel import (
    LevelledItemset,
    aggregate_prefixes,
    mine_multilevel,
    prefix_mask,
)
from repro.mining.partition import (
    count_candidates,
    local_min_support,
    merge_candidates,
    merge_results,
    partition_transactions,
    son,
)
from repro.mining.result import LevelStats, MiningResult
from repro.mining.rules import AssociationRule, derive_rules
from repro.mining.streaming import SlidingWindowMiner
from repro.mining.topk import mine_top_k, support_for_top_k
from repro.mining.transactions import TRANSACTION_WIDTH, TransactionSet

# The built-in miners, by name, in :data:`repro.registry.miners`.
from repro.registry import miners

miners.register("apriori", apriori, replace=True)
miners.register("fpgrowth", fpgrowth, replace=True)
miners.register("eclat", eclat, replace=True)
miners.register("son", son, replace=True)

__all__ = [
    "apriori",
    "fpgrowth",
    "eclat",
    "son",
    "filter_closed",
    "closed_itemsets",
    "is_closed_in",
    "mine_top_k",
    "support_for_top_k",
    "SlidingWindowMiner",
    "aggregate_prefixes",
    "mine_multilevel",
    "prefix_mask",
    "LevelledItemset",
    "FEATURE_SHIFT",
    "VALUE_MASK",
    "FrequentItemset",
    "encode_item",
    "decode_item",
    "format_item",
    "item_feature",
    "itemsets_sorted",
    "filter_maximal",
    "is_maximal_in",
    "partition_transactions",
    "local_min_support",
    "merge_candidates",
    "merge_results",
    "count_candidates",
    "LevelStats",
    "MiningResult",
    "AssociationRule",
    "derive_rules",
    "TRANSACTION_WIDTH",
    "TransactionSet",
]
