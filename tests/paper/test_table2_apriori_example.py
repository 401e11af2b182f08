"""Table II: the running modified-Apriori example.

Paper (Section II-B): one 15-minute interval where dstPort 7000 was the
only flagged feature value (53 467 flows), plus the three most popular
destination ports added by hand (80: 252 069, 9022: 22 667, 25: 22 659),
350 872 flows total, minimum support 10 000.  The modified Apriori found
60/78/41/10/2 frequent item-sets at sizes 1-5, kept 15 maximal ones, and
three of those had destination port 7000.

We regenerate the same mix at 10% scale and check the structural facts:
maximal filtering removes the overwhelming majority of frequent
item-sets, the flooding victim surfaces with dstPort 7000, backscatter
surfaces on port 9022, and proxies A/B/C carry port 80.
"""

import pytest

from repro.detection.features import Feature
from repro.mining.apriori import apriori
from repro.mining.transactions import TransactionSet
from repro.traffic.scenarios import table2_interval

SCALE = 0.1

PAPER_LEVELS = {1: 60, 2: 78, 3: 41, 4: 10, 5: 2}
PAPER_MAXIMAL = 15


@pytest.fixture(scope="module")
def scenario():
    return table2_interval(scale=SCALE, seed=42)


def test_table2_modified_apriori(scenario):
    transactions = TransactionSet.from_flows(scenario.flows)

    result = apriori(transactions, scenario.min_support)

    # Structural checks mirroring the paper's narrative.
    port7000 = [
        s for s in result.itemsets
        if s.as_dict().get(Feature.DST_PORT) == 7000
    ]
    assert port7000, "flooding on dstPort 7000 must surface"
    victim_sets = [
        s for s in port7000
        if s.as_dict().get(Feature.DST_IP) == scenario.flooding_victim
    ]
    assert victim_sets, "the victim host E must appear with dstPort 7000"

    port9022 = [
        s for s in result.itemsets
        if s.as_dict().get(Feature.DST_PORT) == 9022
    ]
    assert port9022, "backscatter on dstPort 9022 must surface"
    # Backscatter has no common endpoint: its item-sets name no IPs.
    assert all(
        Feature.SRC_IP not in s.as_dict() and Feature.DST_IP not in s.as_dict()
        for s in port9022
    )

    proxies = set(scenario.proxy_hosts)
    port80_srcs = {
        s.as_dict().get(Feature.SRC_IP)
        for s in result.itemsets
        if s.as_dict().get(Feature.DST_PORT) == 80
    }
    assert port80_srcs & proxies, "proxy hosts A/B/C must appear on port 80"

    # The headline claim: maximal output is an order of magnitude
    # smaller than the frequent family (paper: 15 of 191).
    found = (
        f"{len(result.itemsets)} maximal of {len(result.all_frequent)} "
        f"frequent (paper: {PAPER_MAXIMAL} of {sum(PAPER_LEVELS.values())})"
    )
    assert len(result.itemsets) <= len(result.all_frequent) / 3, found
    # Same magnitude as the paper's 15 item-sets.
    assert 5 <= len(result.itemsets) <= 40, found


def test_table2_scales_with_input():
    """Same experiment at 5% scale - the report is scale-stable."""
    scenario = table2_interval(scale=0.05, seed=42)
    transactions = TransactionSet.from_flows(scenario.flows)
    result = apriori(transactions, scenario.min_support)
    port7000 = [
        s for s in result.itemsets
        if s.as_dict().get(Feature.DST_PORT) == 7000
    ]
    assert port7000
    assert 5 <= len(result.itemsets) <= 40, (
        f"{len(result.itemsets)} maximal item-sets at scale 0.05"
    )
