"""SON two-pass partitioned frequent item-set mining.

The Savasere-Omiecinski-Navathe scheme (the "partition algorithm"
family the paper's Section III-E points toward for scaling) splits the
transaction set into shards, mines each shard with a proportionally
scaled support threshold, and verifies the union of the locally
frequent candidates with one exact global counting pass.  :func:`son`
runs both passes serially; the pieces it is built from - splitting a
:class:`~repro.mining.transactions.TransactionSet` into shards, scaling
the threshold, deduplicating candidate item-sets across shards, and
merging per-shard exact counts back into a canonical, re-ranked
:class:`~repro.mining.result.MiningResult` - are public for callers
that shard elsewhere.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.errors import MiningError
from repro.mining.apriori import apriori
from repro.mining.maximal import filter_maximal
from repro.mining.result import MiningResult, build_result
from repro.mining.transactions import TransactionSet, joined_blocks


def partition_transactions(
    transactions: TransactionSet, n_partitions: int
) -> list[TransactionSet]:
    """Split a transaction set into ``n_partitions`` contiguous shards.

    Shards are row-contiguous views of near-equal size (within one row,
    sized as ``np.array_split`` sizes them), so concatenating them in
    order reproduces the input exactly.  Empty shards (more partitions
    than transactions) are dropped.
    """
    if n_partitions < 1:
        raise MiningError(f"n_partitions must be >= 1: {n_partitions}")
    parts = np.array_split(np.arange(len(transactions)), n_partitions)
    return [
        transactions.row_range(int(part[0]), int(part[-1]) + 1)
        for part in parts
        if part.size
    ]


def local_min_support(
    min_support: int, shard_size: int, total_size: int
) -> int:
    """Per-shard support threshold: ``ceil(s * |shard| / |D|)``.

    The SON guarantee: an item-set with global support >= ``s`` must
    reach this proportional threshold in at least one shard (otherwise
    the per-shard supports would sum below ``s``), so mining every shard
    at the scaled threshold produces a candidate superset of the global
    answer - no false negatives by construction.
    """
    if min_support < 1:
        raise MiningError(f"min_support must be >= 1: {min_support}")
    if shard_size < 0 or total_size < shard_size:
        raise MiningError(
            f"invalid shard sizing: shard {shard_size} of {total_size}"
        )
    if total_size == 0:
        return 1
    return max(1, -((-min_support * shard_size) // total_size))


def merge_candidates(
    shard_candidates: Iterable[Iterable[tuple[int, ...]]],
) -> list[tuple[int, ...]]:
    """Deduplicated union of per-shard candidate item-sets.

    Returns a sorted list so the global counting pass (and therefore
    every downstream report) is deterministic regardless of shard
    completion order.
    """
    merged: set[tuple[int, ...]] = set()
    for candidates in shard_candidates:
        merged.update(candidates)
    return sorted(merged)


def count_candidates(
    shard: TransactionSet, candidates: Sequence[tuple[int, ...]]
) -> dict[tuple[int, ...], int]:
    """Exact support of every candidate on one shard.

    One bit-packed view of the candidates' distinct items serves them
    all: a candidate's support is the popcount of the AND of its items'
    rows, taken a block of same-sized candidates at a time
    (:meth:`TransactionSet.support_of` is the per-candidate reference).
    """
    distinct = sorted({item for items in candidates for item in items})
    row_of = {item: row for row, item in enumerate(distinct)}
    bits = shard.bitmaps(distinct)
    counts = dict.fromkeys(candidates, 0)
    by_size: dict[int, list[tuple[int, ...]]] = {}
    for items in counts:
        by_size.setdefault(len(items), []).append(items)
    for size, group in by_size.items():
        if size == 0:
            counts[()] = len(shard)  # every transaction holds nothing
            continue
        rows = np.array([[row_of[item] for item in items] for items in group])
        supports = [
            support
            for _, block in joined_blocks(bits, rows)
            for support in block.tolist()
        ]
        counts.update(zip(group, supports))
    return counts


def merge_results(
    shard_counts: Sequence[dict[tuple[int, ...], int]],
    n_transactions: int,
    min_support: int,
    maximal_only: bool = True,
    algorithm: str = "son",
) -> MiningResult:
    """Combine per-shard exact counts into one canonical result.

    Every dict in ``shard_counts`` must cover the same candidate set
    (the output of the global counting pass); supports are summed,
    candidates below ``min_support`` are discarded, and the survivors
    are maximal-filtered and re-ranked into the canonical report order
    by :func:`~repro.mining.result.build_result`.
    """
    totals: dict[tuple[int, ...], int] = {}
    for counts in shard_counts:
        for items, support in counts.items():
            totals[items] = totals.get(items, 0) + support
    frequent = {
        items: support
        for items, support in totals.items()
        if support >= min_support
    }
    kept = filter_maximal(frequent) if maximal_only else frequent
    return build_result(
        algorithm=algorithm,
        all_frequent=frequent,
        maximal=kept,
        n_transactions=n_transactions,
        min_support=min_support,
    )


def son(
    transactions: TransactionSet,
    min_support: int,
    maximal_only: bool = True,
    partitions: int = 1,
) -> MiningResult:
    """Mine frequent item-sets with the partitioned two-pass scheme.

    1. **Candidate pass** - mine each of ``partitions`` shards with
       :func:`~repro.mining.apriori.apriori` at the proportionally
       scaled threshold :func:`local_min_support`; every globally
       frequent item-set is locally frequent in at least one shard, so
       the union of the local answers is a candidate superset.
    2. **Counting pass** - count the exact global support of every
       candidate with :func:`count_candidates` per shard and keep those
       meeting ``min_support``.

    The output is identical - same item-sets, same supports - to
    running ``apriori`` on the unpartitioned input (the property suite
    asserts it); only the ``algorithm`` tag ("son") differs.  One shard
    (the default, and what ``miners["son"]`` runs) degenerates to
    apriori plus a verification pass.
    """
    if min_support < 1:
        raise MiningError(f"min_support must be >= 1: {min_support}")
    n = len(transactions)
    shards = partition_transactions(transactions, partitions)
    candidates = merge_candidates(
        apriori(
            shard,
            local_min_support(min_support, len(shard), n),
            maximal_only=False,
        ).all_frequent
        for shard in shards
    )
    return merge_results(
        [count_candidates(shard, candidates) for shard in shards],
        n_transactions=n,
        min_support=min_support,
        maximal_only=maximal_only,
    )
