"""Federation overhead: what shipping digests instead of flows costs.

The federation tier replaces O(flows) inter-site transfer with
interval digests - per feature, the distinct values and their flow
counts - so two numbers decide whether the design holds:

1. **Digest size and merge latency vs. collector count.**  One trace
   is hash-sharded across 1/2/4/8 collectors; each configuration
   reports total wire bytes and the federator's merge+detect wall
   clock.  The merged view is exact, so the released alarms must be
   *identical* across every collector count (asserted).
2. **Digest state vs. O(flows).**  Per-interval digest wire bytes
   against the raw flow-table bytes of the same interval - the
   compression the wire format actually delivers at this scale.
   A digest grows with the distinct values of an interval, not its
   flows, so the ratio improves as repeated values pile up.

Supports are exact value counts, so there is no estimate fidelity left
to measure (the count-min precision@k section went with the sketch).
"""

import time

import pytest

from repro.anomalies import DDoSInjector, EventSchedule
from repro.detection.detector import DetectorConfig
from repro.federation import Federator, split_trace
from repro.federation.collector import Collector
from repro.flows.table import ALL_COLUMNS
from repro.traffic.generator import TraceGenerator
from repro.traffic.profiles import switch_like

N_INTERVALS = 24
FLOWS_PER_INTERVAL = 2000
TRAINING_INTERVALS = 16
ATTACK_INTERVAL = 20
COLLECTOR_COUNTS = (1, 2, 4, 8)
MIN_SUPPORT = 400
INTERVAL_SECONDS = 900.0


def _detector():
    return DetectorConfig(
        clones=3,
        bins=256,
        vote_threshold=3,
        training_intervals=TRAINING_INTERVALS,
    )


@pytest.fixture(scope="module")
def trace():
    profile = switch_like(FLOWS_PER_INTERVAL)
    schedule = EventSchedule()
    schedule.add_at_interval(
        DDoSInjector(
            victim_ip=profile.internal_base + 9,
            flows=1500,
            sources=300,
        ),
        ATTACK_INTERVAL,
        INTERVAL_SECONDS,
        duration=880.0,
    )
    return TraceGenerator(profile, seed=11).generate(
        N_INTERVALS, schedule=schedule
    )


def _federate(flows, n_collectors):
    """Collect at n sites, merge at one federator; returns timings."""
    sites = tuple(f"pop{i}" for i in range(n_collectors))
    parts = split_trace(flows, sites, f"src_ip%{n_collectors}")
    config = _detector()
    started = time.perf_counter()
    per_site = {
        site: Collector(site=site, config=config, seed=0).run(
            parts[site], INTERVAL_SECONDS, origin=0.0
        )
        for site in sites
    }
    collect_seconds = time.perf_counter() - started
    wire_bytes = sum(
        len(digest.to_json().encode("utf-8"))
        for digests in per_site.values()
        for digest in digests
    )
    n_digests = sum(len(digests) for digests in per_site.values())
    federator = Federator(
        sites=sites,
        config=config,
        seed=0,
        interval_seconds=INTERVAL_SECONDS,
        min_support=MIN_SUPPORT,
    )
    released = []
    started = time.perf_counter()
    depth = max(len(digests) for digests in per_site.values())
    for i in range(depth):
        for site in sites:
            if i < len(per_site[site]):
                released.extend(federator.add(per_site[site][i]))
    released.extend(federator.finish())
    merge_seconds = time.perf_counter() - started
    return {
        "released": released,
        "alarms": [fi.interval for fi in released if fi.alarm],
        "wire_bytes": wire_bytes,
        "n_digests": n_digests,
        "collect_seconds": collect_seconds,
        "merge_seconds": merge_seconds,
    }


def test_digest_size_and_merge_latency_vs_collectors(trace, report):
    flows = trace.flows
    lines = [
        "",
        f"Federation - digest size / merge latency vs. collector count "
        f"({len(flows)} flows, {N_INTERVALS} intervals)",
    ]
    metrics = {}
    baseline_alarms = None
    for count in COLLECTOR_COUNTS:
        run = _federate(flows, count)
        assert len(run["released"]) == N_INTERVALS
        if baseline_alarms is None:
            baseline_alarms = run["alarms"]
            assert baseline_alarms, "the planted DDoS must alarm"
        # Merged detection is exact: the alarm set cannot depend on
        # how many collectors the trace was sharded across.
        assert run["alarms"] == baseline_alarms
        per_digest = run["wire_bytes"] / run["n_digests"]
        lines.append(
            f"  {count} collector{'s' if count > 1 else ' '}: "
            f"{run['wire_bytes'] / 1e6:6.2f} MB wire "
            f"({per_digest / 1e3:6.1f} kB/digest), "
            f"merge {run['merge_seconds'] * 1e3:7.1f} ms, "
            f"collect {run['collect_seconds']:5.2f} s"
        )
        metrics[f"collectors_{count}"] = {
            "wire_bytes": run["wire_bytes"],
            "bytes_per_digest": round(per_digest, 1),
            "merge_seconds": round(run["merge_seconds"], 4),
            "collect_seconds": round(run["collect_seconds"], 4),
        }
    lines.append(
        f"  alarms invariant across collector counts: {baseline_alarms}"
    )
    report(*lines, federation_scaling=metrics)


def test_sketch_state_vs_flow_state(trace, report):
    flows = trace.flows
    flow_bytes = sum(flows.column(c).nbytes for c in ALL_COLUMNS)
    collector = Collector(site="pop0", config=_detector(), seed=0)
    digests = collector.run(flows, INTERVAL_SECONDS, origin=0.0)
    wire_bytes = sum(
        len(d.to_json().encode("utf-8")) for d in digests
    )
    per_interval_digest = wire_bytes / len(digests)
    per_interval_flows = flow_bytes / N_INTERVALS
    ratio = per_interval_flows / per_interval_digest
    report(
        "",
        f"Federation - digest state vs. O(flows) "
        f"({FLOWS_PER_INTERVAL} flows/interval)",
        f"  flow table:  {per_interval_flows / 1e3:8.1f} kB/interval",
        f"  digest wire: {per_interval_digest / 1e3:8.1f} kB/interval",
        f"  flow/digest ratio: {ratio:.2f}x (the digest grows with "
        f"distinct values, not flows)",
        federation_state={
            "flow_bytes_per_interval": round(per_interval_flows),
            "digest_bytes_per_interval": round(per_interval_digest),
            "compression_ratio": round(ratio, 2),
        },
    )
