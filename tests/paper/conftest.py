"""The two-week workload the Table IV, Fig. 6, Fig. 9, Fig. 10 and
voting-ablation tests share: generated and detected once per session."""

from __future__ import annotations

import pytest

from repro.detection.detector import DetectorConfig
from repro.detection.manager import DetectorBank
from repro.traffic.scenarios import two_week_trace
from tests.paper.supports import SUPPORT_GRID

#: The two-week trace's scale: baseline flows per interval, event sizes.
TWO_WEEK_FLOWS_PER_INTERVAL = 1500
TWO_WEEK_EVENT_SCALE = 0.02


@pytest.fixture(scope="session")
def extraction_sweep(two_week):
    """Offline extraction of every anomalous interval at each support.

    Returns {support: [(interval, n_flows, itemsets, score), ...]} where
    ``score`` is the ground-truth judgement - the raw material of
    Fig. 9 (FP item-sets) and Fig. 10 (cost reduction).
    """
    from repro.analysis.metrics import judge_itemsets
    from repro.core.prefilter import prefilter
    from repro.flows.stream import interval_of
    from repro.mining.apriori import apriori
    from repro.mining.transactions import TransactionSet

    trace = two_week["trace"]
    run = two_week["run"]
    sweep = {support: [] for support in SUPPORT_GRID}
    for idx in sorted(trace.anomalous_intervals()):
        metadata = run.report(idx).metadata()
        if metadata.is_empty():
            continue
        interval = interval_of(trace.flows, idx, 900.0, origin=0.0)
        selected = prefilter(interval.flows, metadata, "union")
        transactions = TransactionSet.from_flows(selected.flows)
        for support in SUPPORT_GRID:
            result = apriori(transactions, support)
            score = judge_itemsets(result.itemsets, interval.flows)
            sweep[support].append(
                (idx, len(interval.flows), result.itemsets, score)
            )
    return sweep


@pytest.fixture(scope="session")
def two_week():
    """The Table IV / Fig. 6 / Fig. 9 / Fig. 10 workload.

    Two weeks of 15-minute intervals (1344), 36 events in 31 distinct
    anomalous intervals, flow volumes scaled ~1/15000 from the SWITCH
    link (1500 baseline flows per interval, event sizes at 2% of the
    paper's).  Detection runs once; all tests share the result.
    """
    trace = two_week_trace(
        flows_per_interval=TWO_WEEK_FLOWS_PER_INTERVAL,
        scale=TWO_WEEK_EVENT_SCALE,
        seed=7,
    )
    config = DetectorConfig(
        clones=3, bins=1024, vote_threshold=3, training_intervals=96
    )
    bank = DetectorBank(config, seed=1)
    run = bank.run(trace.flows, trace.interval_seconds, origin=0.0)
    return {"trace": trace, "run": run, "config": config}
