#!/usr/bin/env python3
"""Quickstart: detect and extract a DDoS from a synthetic backbone trace.

Generates six hours of labelled traffic with one injected DDoS, runs the
full online pipeline (histogram detectors -> voting -> union prefilter
-> modified Apriori), and prints the item-set report the operator would
see, plus the exact ground-truth scoring the paper's analysts did by
hand.

Run:
    python examples/quickstart.py
"""

from repro import DetectorConfig, ExtractionConfig
from repro.analysis import judge_itemsets
from repro.anomalies import DDoSInjector, EventSchedule
from repro.api import extract
from repro.flows import interval_of
from repro.traffic import TraceGenerator, switch_like


def main() -> None:
    # Six hours of 15-minute intervals; the first two hours train the
    # detector thresholds.
    profile = switch_like(flows_per_interval=4_000)
    generator = TraceGenerator(profile, seed=42)

    victim = profile.internal_base + 123
    schedule = EventSchedule()
    schedule.add_at_interval(
        DDoSInjector(victim_ip=victim, target_port=80, flows=6_000,
                     sources=1_500),
        interval_index=20,
        interval_seconds=900.0,
        duration=880.0,
    )
    trace = generator.generate(24, schedule=schedule)
    print(f"generated {len(trace.flows)} flows; ground truth: "
          f"{trace.events[0].description}")

    config = ExtractionConfig(
        detector=DetectorConfig(
            clones=3, bins=1024, vote_threshold=3, training_intervals=8
        ),
        min_support=800,
    )
    result = extract(
        trace.flows, config, interval_seconds=trace.interval_seconds, seed=7
    )

    if not result.extractions:
        raise SystemExit("no alarms raised - try a larger event")

    for extraction in result.extractions:
        print()
        print(extraction.render())
        interval = interval_of(
            trace.flows, extraction.interval, 900.0, origin=0.0
        )
        score = judge_itemsets(extraction.itemsets, interval.flows)
        print(
            f"ground truth: {score.true_positives} TP item-set(s), "
            f"{score.false_positives} FP, events covered: "
            f"{score.events_covered}"
        )
        print(
            "classification cost reduction |F|/|I| = "
            f"{extraction.classification_cost_reduction:,.0f}"
        )


if __name__ == "__main__":
    main()
