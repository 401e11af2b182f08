"""Ablation: the voting threshold V (paper Section III-C).

The paper studies V's effect analytically (Figs. 7-8) and selects
C = V = 3 for the trace experiments: intersection voting suppresses
normal feature values (gamma ~ 2.5e-8) at a bounded miss risk
(beta* ~ 0.087), and "despite the large value [of the bound], none of
the 31 anomalies were missed".

This test replays the stored per-clone suspicious values of the
two-week run and re-votes them at V=1 (union) versus V=3
(intersection), measuring what the choice buys: how much meta-data,
how many flows pass the prefilter, and how many FP item-sets reach the
operator.
"""

import numpy as np

from repro.analysis.metrics import judge_itemsets
from repro.core.prefilter import prefilter
from repro.detection.metadata import Metadata
from repro.detection.voting import vote
from repro.flows.stream import interval_of
from repro.mining.apriori import apriori
from repro.mining.transactions import TransactionSet

SUPPORT = 100


def _revote(report, min_votes):
    """Re-apply voting to an interval report's stored clone values."""
    metadata = Metadata()
    for feature, obs in report.observations.items():
        if not obs.alarm:
            continue
        values = vote(
            [clone.suspicious_values for clone in obs.clones], min_votes
        )
        if len(values):
            metadata.add(feature, values)
    return metadata


def test_ablation_voting_threshold(two_week):
    trace = two_week["trace"]
    run = two_week["run"]
    intervals = sorted(trace.anomalous_intervals())

    stats = {}
    for v in (1, 3):
        meta_values = []
        selectivity = []
        fps = []
        missed = 0
        for idx in intervals:
            interval_report = run.report(idx)
            metadata = _revote(interval_report, v)
            if metadata.is_empty():
                missed += 1
                continue
            interval = interval_of(trace.flows, idx, 900.0, origin=0.0)
            selected = prefilter(interval.flows, metadata, "union")
            result = apriori(
                TransactionSet.from_flows(selected.flows), SUPPORT
            )
            score = judge_itemsets(result.itemsets, interval.flows)
            meta_values.append(metadata.total_values())
            selectivity.append(selected.selectivity)
            fps.append(score.false_positives)
            if not score.all_events_covered:
                missed += 1
        stats[v] = {
            "meta": float(np.mean(meta_values)),
            "selectivity": float(np.mean(selectivity)),
            "fp": float(np.mean(fps)),
            "missed": missed,
        }

    # V=3 admits no more meta-data than V=1 (voting is monotone)...
    assert stats[3]["meta"] <= stats[1]["meta"], stats
    assert stats[3]["selectivity"] <= stats[1]["selectivity"] + 1e-9, stats
    # ...and costs at most as many FP item-sets on average.
    assert stats[3]["fp"] <= stats[1]["fp"] + 1e-9, stats
    # The paper's headline: strict voting misses nothing.
    assert stats[3]["missed"] == 0, stats
