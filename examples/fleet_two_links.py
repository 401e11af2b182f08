#!/usr/bin/env python3
"""Fleet mode: two monitored links, one incident ranking.

The paper defines its Fig. 3 pipeline per monitored link.  A backbone
operator has many links, so this example runs TWO of them as one fleet:
a synthetic capture carrying a DDoS is hash-sharded by destination IP
(``route="dst_ip%2"``) across two named pipelines, each pipeline
persists its reports to its own incident store, and the final query merges and re-ranks every link's incidents
into one fleet-wide triage list - the attack surfaces at the top with
the link it happened on.

Run:
    python examples/fleet_two_links.py
"""

import numpy as np

import repro.api as repro
from repro.anomalies import DDoSInjector, EventSchedule
from repro.traffic import TraceGenerator, small_test

INTERVAL = 900.0
CHUNK_ROWS = 2048


def main() -> None:
    # A 30-interval capture with a DDoS in interval 24 (post-training).
    profile = small_test(1500)
    generator = TraceGenerator(profile, seed=3)
    schedule = EventSchedule()
    schedule.add_at_interval(
        DDoSInjector(victim_ip=profile.internal_base + 5,
                     flows=1200, sources=250),
        24, INTERVAL, duration=880.0,
    )
    trace = generator.generate(30, schedule=schedule)
    flows = trace.flows

    # Two named pipelines on one base config; dst_ip%2 decides which
    # link sees which flow.  The same thing declaratively:
    #
    #     [fleet]
    #     route = "dst_ip%2"
    #     [fleet.pipelines.upstream]
    #     [fleet.pipelines.peering]
    #
    # and repro.open_fleet("fleet.toml").
    with repro.open_fleet(
        pipelines=["upstream", "peering"],
        route="dst_ip%2",
        interval_seconds=INTERVAL,
        seed=1,
        detector={"bins": 256, "training_intervals": 16},
        min_support=300,
    ) as fleet:
        # Push the capture through chunk by chunk, as a collector would.
        for lo in range(0, len(flows), CHUNK_ROWS):
            fleet.feed(flows.select(
                np.arange(lo, min(lo + CHUNK_ROWS, len(flows)))
            ))
        results = fleet.finish()

        print("per-link summaries:")
        for name, result in results.items():
            print(
                f"  {name}: {result.intervals} intervals, "
                f"{result.flows} flows, "
                f"{result.extraction_count} extractions"
            )

        # One merged, deterministically ranked view across every link.
        print("\nfleet-wide incident ranking:")
        for entry in fleet.incidents(top=5):
            print(f"  {entry.render()}")

        top = fleet.incidents(top=1)[0]
        print(
            f"\nthe DDoS surfaced on link {top.pipeline!r} "
            f"(score {top.score:.3f}, "
            f"peak support {top.incident.peak_support})"
        )


if __name__ == "__main__":
    main()
