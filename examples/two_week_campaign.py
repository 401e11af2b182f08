#!/usr/bin/env python3
"""The full Table IV campaign: two weeks, 36 events, seven classes.

Regenerates the paper's evaluation workload end to end - a two-week
trace with the Table IV event mix in 31 distinct anomalous intervals -
runs the online pipeline over all 1344 intervals, and prints a per-class
detection/extraction scorecard.

This is the heaviest example (~60 s); it is the code path behind
tests/paper/test_table4_anomaly_census.py, test_fig9 and test_fig10.

Run:
    python examples/two_week_campaign.py
"""

from collections import defaultdict

from repro.analysis import judge_itemsets
from repro.api import extract
from repro.core import ExtractionConfig
from repro.detection import DetectorConfig
from repro.flows import interval_of
from repro.traffic import two_week_trace


def main() -> None:
    trace = two_week_trace(flows_per_interval=1500, scale=0.02, seed=7)
    truth = trace.anomalous_intervals()
    print(
        f"two-week trace: {len(trace.flows)} flows, "
        f"{trace.n_intervals} intervals, {len(trace.events)} events in "
        f"{len(truth)} anomalous intervals"
    )

    config = ExtractionConfig(
        detector=DetectorConfig(
            clones=3, bins=1024, vote_threshold=3, training_intervals=96
        ),
        min_support=100,
    )
    result = extract(
        trace.flows, config, interval_seconds=trace.interval_seconds, seed=1
    )

    flagged = set(result.flagged_intervals)
    print(
        f"online pipeline: {len(flagged)} intervals flagged; "
        f"{len(flagged & truth)}/{len(truth)} anomalous intervals hit, "
        f"{len(flagged - truth)} extra alarms"
    )

    # Per-class scorecard: was each event covered by the extraction of
    # its interval?
    covered_by_class: dict[str, list[bool]] = defaultdict(list)
    fp_counts = []
    for extraction in result.extractions:
        idx = extraction.interval
        if idx not in truth:
            continue
        interval = interval_of(trace.flows, idx, 900.0, origin=0.0)
        score = judge_itemsets(extraction.itemsets, interval.flows)
        fp_counts.append(score.false_positives)
        for event in trace.events_in_interval(idx):
            covered_by_class[event.kind].append(
                event.event_id in score.events_covered
            )

    print("\nper-class extraction scorecard (min support 100):")
    for kind in sorted(covered_by_class):
        outcomes = covered_by_class[kind]
        print(
            f"  {kind:20s} {sum(outcomes):2d}/{len(outcomes):2d} "
            "events extracted"
        )
    if fp_counts:
        print(
            f"\nfalse-positive item-sets per flagged interval: "
            f"avg {sum(fp_counts) / len(fp_counts):.1f}, "
            f"max {max(fp_counts)} "
            "(paper: avg 2-8.5 over the support range)"
        )


if __name__ == "__main__":
    main()
