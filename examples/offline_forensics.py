#!/usr/bin/env python3
"""Offline (post-mortem) anomaly extraction - the Table II workflow.

The paper's offline mode: an administrator has a flagged interval and
the meta-data of the alarm, and re-runs extraction by hand, adjusting
the minimum support in 2-3 trials (Section II-E: a suitable s is
typically 1-10% of the input flows; start high, lower it until enough
item-sets appear, rank by frequency).

This example rebuilds the Table II interval - flooding on dstPort 7000
plus the three most popular ports injected as FP pressure - and walks
the support schedule, printing the report the operator reads and how
the triage heuristic separates the flooding from the proxies.  The
trials run on one extractor, so only the first prefilters the interval
and counts its items: the later ones reuse that selection and only
re-mine it.

Run:
    python examples/offline_forensics.py
"""

import numpy as np

from repro.analysis import judge_itemsets
from repro.core import (
    AnomalyExtractor,
    ExtractionConfig,
    render_itemset_table,
    suggest_min_support,
    triage_all,
)
from repro.detection import Feature, Metadata
from repro.traffic import table2_interval


def main() -> None:
    scenario = table2_interval(scale=0.1, seed=42)
    flows = scenario.flows
    print(
        f"flagged interval (Table II at scale {scenario.scale}): "
        f"{len(flows)} flows"
    )
    for name, count in scenario.component_counts.items():
        print(f"  {name}: {count}")

    # The alarm's meta-data: dstPort 7000 was the only flagged value;
    # ports 80/9022/25 were added by hand in the paper to force FPs.
    metadata = Metadata()
    metadata.add(
        Feature.DST_PORT, np.array([7000, 80, 9022, 25], dtype=np.uint64)
    )

    extractor = AnomalyExtractor(ExtractionConfig(min_support=1), seed=0)
    start = suggest_min_support(len(flows), fraction=0.03)
    print(f"\nsupport schedule starting at 3% of input = {start} flows")

    # Same table, same meta-data: trials 2 and 3 re-mine trial 1's
    # selection.
    for trial, support in enumerate((start, start // 2, start // 4), 1):
        result = extractor.extract_with_metadata(
            flows, metadata, min_support=support
        )
        print(f"\ntrial {trial}: min support {support} -> "
              f"{len(result.itemsets)} maximal item-sets")
        print(render_itemset_table(result.itemsets[:12]))
        if len(result.itemsets) >= 8:
            break

    # Final scoring against ground truth, as the analysts did manually.
    score = judge_itemsets(result.itemsets, flows)
    suspicious = [t for t in triage_all(result.itemsets) if not t.looks_benign]
    print(
        f"\nground truth: {score.true_positives} TP / "
        f"{score.false_positives} FP item-sets; triage keeps "
        f"{len(suspicious)} for investigation "
        f"(events covered: {score.events_covered})"
    )


if __name__ == "__main__":
    main()
