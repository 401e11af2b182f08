#!/usr/bin/env python3
"""Incident triage: persist extraction reports, correlate, and rank.

The paper stops at per-interval item-set lists "an administrator
trivially sorts out".  This example runs the production workflow on
top of that: a recurring DDoS (three bursts against one victim) is
extracted interval by interval, every report is persisted to a SQLite
incident store, and the store is then queried the way an operator
would - cross-interval correlation merges the bursts into ONE
incident, and HURRA-style ranking puts it above the benign-looking
side effects (well-known-port echoes) the detectors also flag.

Run:
    python examples/incident_triage.py
"""

import tempfile
from pathlib import Path

from repro import DetectorConfig, ExtractionConfig
from repro.anomalies import DDoSInjector, EventSchedule
from repro.api import extract
from repro.incidents import IncidentStore
from repro.traffic import TraceGenerator, small_test

BURSTS = (20, 22, 24)
INTERVAL = 900.0


def main() -> None:
    # One victim, attacked in three 15-minute bursts with quiet
    # intervals in between - the shape a single real-world incident has.
    profile = small_test(1500)
    generator = TraceGenerator(profile, seed=3)
    victim = profile.internal_base + 5
    schedule = EventSchedule()
    for interval in BURSTS:
        schedule.add_at_interval(
            DDoSInjector(victim_ip=victim, flows=1200, sources=250),
            interval, INTERVAL, duration=880.0,
        )
    trace = generator.generate(30, schedule=schedule)

    config = ExtractionConfig(
        detector=DetectorConfig(clones=3, bins=256, vote_threshold=3,
                                training_intervals=16),
        min_support=300,
    )

    with tempfile.TemporaryDirectory() as tmp:
        db = Path(tmp) / "incidents.db"
        # Stage 1: the pipeline persists one report per alarmed interval.
        with IncidentStore(str(db)) as store:
            extract(
                trace.flows, config, interval_seconds=INTERVAL, seed=1,
                sink=store,
            )
            print(f"store: {len(store)} reports "
                  f"(intervals {store.intervals()})")
            for report in store.reports():
                kinds = ", ".join(
                    f"{t.hint}@{t.itemset.support}"
                    for t in report.itemsets
                ) or "(empty)"
                print(f"  interval {report.interval}: "
                      f"{report.detector_votes} detector votes, {kinds}")

            # Stage 2: the operator view - correlate + rank.
            ranked = store.incidents(jaccard=0.5, quiet_gap=2)
            print(f"\n{len(ranked)} correlated incidents, best first:")
            for entry in ranked:
                print(f"  {entry.render()}")

            top = ranked[0].incident
            print("\ntop incident drill-down:")
            for interval, support, hint in store.itemset_history(top.key):
                print(f"  interval {interval}: support {support} ({hint})")
            assert top.suspicious, "the DDoS must outrank the echoes"
            assert top.intervals_seen == len(BURSTS), (
                "three bursts must correlate into one incident"
            )
            print(f"\nthe {len(BURSTS)} bursts merged into one incident "
                  f"(#{top.incident_id}) and ranked first - triage done.")


if __name__ == "__main__":
    main()
