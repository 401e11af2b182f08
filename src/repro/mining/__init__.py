"""Frequent item-set mining over flow transactions."""

from repro.mining.apriori import apriori
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
from repro.mining.partition import son
from repro.mining.result import LevelStats, MiningResult
from repro.mining.streaming import SlidingWindowMiner
from repro.mining.transactions import TRANSACTION_WIDTH, TransactionSet

#: The miners a config names: ``miner(transactions, min_support,
#: maximal_only=True) -> MiningResult``.
miners = {"apriori": apriori, "fpgrowth": fpgrowth, "eclat": eclat, "son": son}

__all__ = [
    "miners",
    "apriori",
    "fpgrowth",
    "eclat",
    "son",
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
    "LevelStats",
    "MiningResult",
    "TRANSACTION_WIDTH",
    "TransactionSet",
]
