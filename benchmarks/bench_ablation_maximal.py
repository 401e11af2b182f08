"""Ablation: the paper's maximal-only modification of Apriori.

Section II-B: "Maximal item-sets are desirable since they significantly
reduce the number of item-sets to process by a human expert" - in the
Table II example 191 frequent item-sets collapse into 15 maximal ones.
This bench quantifies the report-size reduction on the same workload:

    all frequent  >  maximal (the paper's choice)

and verifies the containment maximal subset-of frequent.
"""

from repro.mining.apriori import apriori
from repro.mining.maximal import filter_maximal
from repro.mining.transactions import TransactionSet
from repro.traffic.scenarios import table2_interval


def test_ablation_report_size(benchmark, report):
    scenario = table2_interval(scale=0.1, seed=42)
    transactions = TransactionSet.from_flows(scenario.flows)
    result = apriori(transactions, scenario.min_support, maximal_only=False)
    frequent = result.all_frequent

    sizes = benchmark.pedantic(
        lambda: (len(frequent), len(filter_maximal(frequent))),
        rounds=3,
        iterations=1,
    )
    n_frequent, n_maximal = sizes

    report(
        "",
        "Ablation - maximal-only output (paper Section II-B)",
        f"  all frequent item-sets: {n_frequent} (paper: 191)",
        f"  maximal item-sets:      {n_maximal} (paper: 15; what the "
        "operator reads)",
        f"  operator workload reduction: "
        f"{n_frequent / n_maximal:.1f}x via maximality",
    )

    maximal = filter_maximal(frequent)
    assert set(maximal) <= set(frequent)
    # The paper's order-of-magnitude claim.
    assert n_maximal * 3 <= n_frequent
