"""Ablation: the paper's maximal-only modification of Apriori.

Section II-B: "Maximal item-sets are desirable since they significantly
reduce the number of item-sets to process by a human expert" - in the
Table II example 191 frequent item-sets collapse into 15 maximal ones.
This test quantifies the report-size reduction on the same workload:

    all frequent  >  maximal (the paper's choice)

and verifies the containment maximal subset-of frequent.
"""

from repro.mining.apriori import apriori
from repro.mining.maximal import filter_maximal
from repro.mining.transactions import TransactionSet
from repro.traffic.scenarios import table2_interval


def test_ablation_report_size():
    scenario = table2_interval(scale=0.1, seed=42)
    transactions = TransactionSet.from_flows(scenario.flows)
    result = apriori(transactions, scenario.min_support, maximal_only=False)
    frequent = result.all_frequent

    maximal = filter_maximal(frequent)
    n_frequent, n_maximal = len(frequent), len(maximal)

    assert set(maximal) <= set(frequent)
    # The paper's order-of-magnitude claim.
    assert n_maximal * 3 <= n_frequent, (
        f"{n_maximal} maximal of {n_frequent} frequent item-sets "
        "(paper: 15 of 191)"
    )
