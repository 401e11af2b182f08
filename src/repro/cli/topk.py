"""``repro-extract topk`` - mine the k most frequent maximal item-sets."""

from __future__ import annotations

import argparse

from repro.flows import read_trace
from repro.mining import TransactionSet


def add_parser(sub: argparse._SubParsersAction) -> None:
    topk = sub.add_parser(
        "topk", help="mine the k most frequent maximal item-sets"
    )
    topk.add_argument("trace")
    topk.add_argument("-k", type=int, default=10)
    topk.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    from repro.core.report import render_itemset_table
    from repro.mining.topk import mine_top_k

    flows = read_trace(args.trace)
    transactions = TransactionSet.from_flows(flows)
    top, result = mine_top_k(transactions, args.k)
    print(
        f"top-{args.k} maximal item-sets of {len(flows)} flows "
        f"(support threshold found: {result.min_support})"
    )
    print(render_itemset_table(top))
    return 0
