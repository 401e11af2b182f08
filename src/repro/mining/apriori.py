"""Modified Apriori: level-wise mining with maximal-only output.

This is the paper's algorithm (Section II-B): the standard
Agrawal-Srikant level-wise structure - candidate generation from the
previous level, subset pruning, support counting, at most seven rounds
because transactions have width seven - modified to emit only *maximal*
frequent item-sets.

Two support-counting backends are provided:

* ``"vertical"`` (default) - bit-packed tidsets.  A level is one
  ``(item-sets, ceil(n / 64))`` uint64 matrix whose row order is the
  level's key order (:meth:`TransactionSet.bitmaps` builds level 1); a
  block of candidates is counted with one AND of the two joined
  parents' rows and one ``np.bitwise_count`` row sum, and the rows that
  reach the support are carried forward as the next level
  (:func:`~repro.mining.transactions.joined_blocks`).  A level costs a
  handful of numpy calls, not one set intersection per candidate.
* ``"horizontal"`` - literal per-candidate scan over the transaction
  matrix (:meth:`TransactionSet.support_of`); the reference the test
  suite compares the vertical backend against, order included.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from repro.errors import MiningError
from repro.mining.items import FEATURE_SHIFT
from repro.mining.maximal import filter_maximal
from repro.mining.result import MiningResult, build_result
from repro.mining.transactions import (
    TRANSACTION_WIDTH,
    TransactionSet,
    joined_blocks,
)

_COUNTING_BACKENDS = ("vertical", "horizontal")


def _generate_candidates(
    level: list[tuple[int, ...]],
) -> tuple[list[tuple[int, ...]], list[tuple[int, int]]]:
    """F_(k) x F_(k) join with Apriori subset pruning.

    ``level`` must be non-empty and in sorted order, which every level
    is: level 1 is sorted by item and a join of a sorted level emits its
    candidates sorted.  Returns the candidates and, for each, the positions in
    ``level`` of the two parents that share its k-1 prefix - the rows
    the vertical backend ANDs.
    """
    frequent = set(level)
    candidates: list[tuple[int, ...]] = []
    parents: list[tuple[int, int]] = []
    # Apriori pruning: every k-subset must be frequent.  The two that
    # drop one of the last two items are the parents themselves.
    drops = range(len(level[0]) - 1)
    # Sorted order puts the item-sets sharing a k-1 prefix side by side.
    for _, group in groupby(enumerate(level), key=lambda row: row[1][:-1]):
        rows = list(group)
        features = [items[-1] >> FEATURE_SHIFT for _, items in rows]
        for x, (i, a) in enumerate(rows):
            for y in range(x + 1, len(rows)):
                # Items of one feature are mutually exclusive within a
                # transaction; a candidate holding two has support 0.
                if features[y] == features[x]:
                    continue
                j, b = rows[y]
                candidate = a + (b[-1],)
                for drop in drops:
                    if candidate[:drop] + candidate[drop + 1:] not in frequent:
                        break
                else:
                    candidates.append(candidate)
                    parents.append((i, j))
    return candidates, parents


def apriori(
    transactions: TransactionSet,
    min_support: int,
    maximal_only: bool = True,
    counting: str = "vertical",
    max_size: int = TRANSACTION_WIDTH,
) -> MiningResult:
    """Mine frequent item-sets with the paper's modified Apriori.

    Args:
        transactions: encoded flow transactions.
        min_support: absolute minimum support ``s`` (flow count).
        maximal_only: emit only maximal item-sets (the paper's
            modification); when False, ``itemsets`` holds every
            frequent item-set.
        counting: "vertical" (bit-packed tidsets, AND + popcount) or
            "horizontal" (literal scan, the test reference).
        max_size: optional cap on item-set size (defaults to the
            transaction width, 7).

    Returns:
        A :class:`~repro.mining.result.MiningResult`.
    """
    if counting not in _COUNTING_BACKENDS:
        raise MiningError(
            f"unknown counting backend {counting!r}; "
            f"choose from {_COUNTING_BACKENDS}"
        )
    if not 1 <= max_size <= TRANSACTION_WIDTH:
        raise MiningError(
            f"max_size must be in [1, {TRANSACTION_WIDTH}]: {max_size}"
        )

    # Round 1: frequent single items.
    item_support = transactions.frequent_items(min_support)
    all_frequent: dict[tuple[int, ...], int] = {
        (item,): support for item, support in sorted(item_support.items())
    }
    level = list(all_frequent)

    vertical = counting == "vertical"
    if vertical:
        bits = transactions.bitmaps([items[0] for items in level])

    size = 1
    while level and size < max_size:
        candidates, parents = _generate_candidates(level)
        if not candidates:
            break
        if vertical:
            supports: list[int] = []
            reached = []
            for joined, counts in joined_blocks(bits, np.array(parents)):
                supports += counts.tolist()
                reached.append(joined[counts >= min_support])
            bits = np.concatenate(reached)
        else:
            supports = [transactions.support_of(c) for c in candidates]
        found = {
            candidate: support
            for candidate, support in zip(candidates, supports)
            if support >= min_support
        }
        all_frequent.update(found)
        level = list(found)
        size += 1

    maximal = filter_maximal(all_frequent)
    kept = maximal if maximal_only else all_frequent
    return build_result(
        algorithm="apriori",
        all_frequent=all_frequent,
        maximal=kept,
        n_transactions=len(transactions),
        min_support=min_support,
    )
