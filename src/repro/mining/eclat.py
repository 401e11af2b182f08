"""Eclat miner (Zaki 2000, reference [35] of the paper).

Vertical depth-first mining: every item carries its tidset (sorted
transaction-id array); extending a prefix intersects tidsets.  Related
work the paper cites (Li & Deng) applies an Eclat variant to flow
traces, so the comparator belongs in the reproduction.  Output family is
identical to Apriori and FP-Growth (property-tested).
"""

from __future__ import annotations

import numpy as np

from repro.mining.items import FEATURE_SHIFT
from repro.mining.maximal import filter_maximal
from repro.mining.result import MiningResult, build_result
from repro.mining.transactions import TransactionSet


def _recurse(
    prefix: tuple[int, ...],
    candidates: list[tuple[int, np.ndarray]],
    min_support: int,
    out: dict[tuple[int, ...], int],
) -> None:
    """DFS over prefix extensions.

    ``candidates`` holds (item, tidset-under-prefix) pairs, ordered by
    increasing support - the classic heuristic keeping intermediate
    tidsets small.
    """
    for idx, (item, tids) in enumerate(candidates):
        new_prefix = tuple(sorted(prefix + (item,)))
        out[new_prefix] = len(tids)
        extensions: list[tuple[int, np.ndarray]] = []
        for other, other_tids in candidates[idx + 1:]:
            # Items of one feature are mutually exclusive per transaction.
            if (other >> FEATURE_SHIFT) == (item >> FEATURE_SHIFT):
                continue
            joined = np.intersect1d(tids, other_tids, assume_unique=True)
            if len(joined) >= min_support:
                extensions.append((other, joined))
        if extensions:
            extensions.sort(key=lambda pair: (len(pair[1]), pair[0]))
            _recurse(new_prefix, extensions, min_support, out)


def eclat(
    transactions: TransactionSet,
    min_support: int,
    maximal_only: bool = True,
) -> MiningResult:
    """Mine frequent item-sets with vertical DFS (Eclat)."""
    item_support = transactions.frequent_items(min_support)
    all_frequent: dict[tuple[int, ...], int] = {}
    if item_support:
        tidsets = transactions.tidsets(list(item_support))
        candidates = sorted(
            ((item, tidsets[item]) for item in item_support),
            key=lambda pair: (len(pair[1]), pair[0]),
        )
        _recurse((), candidates, min_support, all_frequent)
    maximal = filter_maximal(all_frequent)
    kept = maximal if maximal_only else all_frequent
    return build_result(
        algorithm="eclat",
        all_frequent=all_frequent,
        maximal=kept,
        n_transactions=len(transactions),
        min_support=min_support,
    )
