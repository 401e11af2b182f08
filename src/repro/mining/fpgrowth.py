"""FP-Growth miner.

Section III-E notes that "progressive implementations that use FP-trees
... have been shown to outperform standard hash tree implementations" of
Apriori.  This module provides that faster comparator: identical output
family, different algorithm - useful both as a performance baseline
(the ``forensic_sweep`` ledger workload in ``benchmarks/perf/`` times
it as ``mining.fpgrowth_s``) and as a correctness cross-check (the
property tests assert Apriori == FP-Growth == Eclat).
"""

from __future__ import annotations

from collections import defaultdict

from repro.mining.maximal import filter_maximal
from repro.mining.result import MiningResult, build_result
from repro.mining.transactions import TransactionSet


class _Node:
    """FP-tree node."""

    __slots__ = ("item", "count", "parent", "children")

    def __init__(self, item: int | None, parent: "_Node | None"):
        self.item = item
        self.count = 0
        self.parent = parent
        self.children: dict[int, _Node] = {}


def _build_tree(
    transactions: list[tuple[tuple[int, ...], int]],
) -> tuple[_Node, dict[int, list[_Node]]]:
    """Build an FP-tree from (ordered item tuple, weight) pairs."""
    root = _Node(None, None)
    header: dict[int, list[_Node]] = defaultdict(list)
    for items, weight in transactions:
        node = root
        for item in items:
            child = node.children.get(item)
            if child is None:
                child = _Node(item, node)
                node.children[item] = child
                header[item].append(child)
            child.count += weight
            node = child
    return root, header


def _mine_tree(
    header: dict[int, list[_Node]],
    item_order: dict[int, int],
    suffix: tuple[int, ...],
    min_support: int,
    out: dict[tuple[int, ...], int],
) -> None:
    """Recursively mine conditional FP-trees."""
    # Process items from least to most frequent (bottom of the tree).
    for item in sorted(header, key=lambda i: item_order[i], reverse=True):
        nodes = header[item]
        support = sum(node.count for node in nodes)
        if support < min_support:
            continue
        found = tuple(sorted((item,) + suffix))
        out[found] = support
        # Conditional pattern base: prefix paths of every node.
        conditional: dict[tuple[int, ...], int] = defaultdict(int)
        for node in nodes:
            path = []
            parent = node.parent
            while parent is not None and parent.item is not None:
                path.append(parent.item)
                parent = parent.parent
            if path:
                conditional[tuple(reversed(path))] += node.count
        if not conditional:
            continue
        # Keep only items frequent within the conditional base.
        cond_support: dict[int, int] = defaultdict(int)
        for path, weight in conditional.items():
            for path_item in path:
                cond_support[path_item] += weight
        keep = {
            i for i, s in cond_support.items() if s >= min_support
        }
        if not keep:
            continue
        pruned = []
        for path, weight in conditional.items():
            filtered = tuple(
                i for i in path if i in keep
            )
            if filtered:
                pruned.append((filtered, weight))
        if not pruned:
            continue
        cond_root, cond_header = _build_tree(pruned)
        del cond_root  # tree reachable through header lists
        _mine_tree(cond_header, item_order, found, min_support, out)


def fpgrowth(
    transactions: TransactionSet,
    min_support: int,
    maximal_only: bool = True,
) -> MiningResult:
    """Mine frequent item-sets with FP-Growth.

    Returns the same result family as :func:`repro.mining.apriori.apriori`
    (asserted by the property-based tests).
    """
    item_support = transactions.frequent_items(min_support)
    all_frequent: dict[tuple[int, ...], int] = {}
    if item_support:
        # Order: support descending, item ascending for determinism.
        ranked = sorted(item_support.items(), key=lambda kv: (-kv[1], kv[0]))
        item_order = {item: rank for rank, (item, _) in enumerate(ranked)}
        # Encode transactions: keep frequent items, sort by rank, and
        # merge duplicates (anomalous traffic is highly repetitive, so
        # this collapses the input dramatically).
        weighted: dict[tuple[int, ...], int] = defaultdict(int)
        for row in transactions.matrix:
            filtered = sorted(
                (int(x) for x in row if int(x) in item_order),
                key=lambda i: item_order[i],
            )
            if filtered:
                weighted[tuple(filtered)] += 1
        root, header = _build_tree(list(weighted.items()))
        del root
        _mine_tree(header, item_order, (), min_support, all_frequent)
    maximal = filter_maximal(all_frequent)
    kept = maximal if maximal_only else all_frequent
    return build_result(
        algorithm="fpgrowth",
        all_frequent=all_frequent,
        maximal=kept,
        n_transactions=len(transactions),
        min_support=min_support,
    )
