"""Canned evaluation scenarios mirroring the paper's experiments.

Each scenario builds a labelled workload that one or more benchmarks
consume:

* :func:`table2_interval` — the running Apriori example of Table II
  (flooding on dstPort 7000 plus the three most frequent "benign" ports).
* :func:`two_week_schedule` / :func:`two_week_trace` — the Table IV
  ground truth: 36 events of seven classes placed in 31 distinct
  15-minute intervals across two weeks.
* :func:`two_day_trace` — the Fig. 4 slice: two days with a couple of
  anomalies to show KL spikes over the diurnal baseline.

All flow counts are scaled from the paper's SWITCH link by the
``scale`` argument (default 1/20) so experiments are laptop-sized; the
scale is carried in the returned metadata so benchmark output can state
it next to every number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.anomalies import (
    BackscatterInjector,
    DDoSInjector,
    EventSchedule,
    FloodingInjector,
    NetworkExperimentInjector,
    SasserLikeWorm,
    ScanInjector,
    SpamInjector,
    UnknownInjector,
)
from repro.errors import ConfigError
from repro.flows.stream import DEFAULT_INTERVAL_SECONDS
from repro.flows.table import FlowTable
from repro.traffic.generator import GeneratedTrace, TraceGenerator
from repro.traffic.profiles import TrafficProfile, switch_like

#: Paper-scale flow counts for the Table II example (Section II-B).
TABLE2_PAPER_COUNTS = {
    "flooding_dport_7000": 53_467,
    "port_80": 252_069,
    "port_9022": 22_667,
    "port_25": 22_659,
    "total": 350_872,
    "min_support": 10_000,
}

#: Occurrences per class in the two-week ground truth.  The extended
#: paper reports 36 events of seven classes in 31 anomalous intervals;
#: the per-class split below follows the class ordering of Table IV with
#: scanning as the most common class, and sums to 36.
TABLE4_OCCURRENCES = {
    "flooding": 5,
    "backscatter": 5,
    "network_experiment": 3,
    "ddos": 5,
    "scanning": 10,
    "spam": 4,
    "unknown": 4,
}

#: Canonical (paper-scale) flows per event of each class; multiplied by
#: ``scale`` when the schedule is built.  DDoS is by far the largest
#: class, as in Table IV.
TABLE4_CLASS_FLOWS = {
    "flooding": 55_000,
    "backscatter": 23_000,
    "network_experiment": 30_000,
    "ddos": 550_000,
    "scanning": 21_000,
    "spam": 25_000,
    "unknown": 15_000,
}


@dataclass(frozen=True)
class Table2Scenario:
    """The Table II workload: input flow set plus component bookkeeping."""

    flows: FlowTable
    min_support: int
    scale: float
    component_counts: dict[str, int]
    proxy_hosts: tuple[int, int, int]
    flooding_victim: int


def _proxy_http_flows(
    rng: np.random.Generator,
    proxies: np.ndarray,
    n: int,
    t0: float,
    t1: float,
    profile: TrafficProfile,
) -> FlowTable:
    """Benign port-80 traffic concentrated on a few proxy/cache hosts.

    Mirrors hosts A, B, C of Table II: they alone "sent a lot of traffic
    on destination port 80", producing {srcIP, dstPort=80} 2-item-sets.
    """
    from repro.flows.record import PROTO_TCP

    shares = np.array([0.38, 0.33, 0.29])
    owners = rng.choice(len(proxies), size=n, p=shares)
    src = proxies[owners].astype(np.uint64)
    dst = rng.integers(0x0B000000, 0x0B000000 + (1 << 20), size=n, dtype=np.uint64)
    packets = 1 + np.floor(rng.pareto(1.4, size=n) * 3.0).astype(np.int64)
    packets = np.clip(packets, 1, 10_000).astype(np.uint64)
    return FlowTable.from_arrays(
        src_ip=src,
        dst_ip=dst,
        src_port=rng.integers(1024, 65536, size=n, dtype=np.uint64),
        dst_port=np.full(n, 80, dtype=np.uint64),
        protocol=np.full(n, PROTO_TCP, dtype=np.uint64),
        packets=packets,
        bytes_=packets * rng.integers(200, 1400, size=n).astype(np.uint64),
        start=rng.uniform(t0, t1, size=n),
    )


def _smtp_flows(
    rng: np.random.Generator,
    servers: np.ndarray,
    n: int,
    t0: float,
    t1: float,
) -> FlowTable:
    """Benign SMTP traffic to a pool of mail servers (dstPort 25)."""
    from repro.flows.record import PROTO_TCP

    src = rng.integers(0x0B000000, 0x0BFFFFFF, size=n, dtype=np.uint64)
    dst = servers[rng.integers(0, len(servers), size=n)].astype(np.uint64)
    packets = rng.integers(5, 25, size=n).astype(np.uint64)
    return FlowTable.from_arrays(
        src_ip=src,
        dst_ip=dst,
        src_port=rng.integers(1024, 65536, size=n, dtype=np.uint64),
        dst_port=np.full(n, 25, dtype=np.uint64),
        protocol=np.full(n, PROTO_TCP, dtype=np.uint64),
        packets=packets,
        bytes_=packets * rng.integers(100, 900, size=n).astype(np.uint64),
        start=rng.uniform(t0, t1, size=n),
    )


def table2_interval(scale: float = 0.1, seed: int = 42) -> Table2Scenario:
    """Build the Table II input set ``F`` at a given scale.

    The paper filtered one 15-minute interval where dstPort 7000 was the
    only flagged feature (53 467 flows) and *artificially added* the
    flows of the three most popular destination ports (80, 9022, 25) to
    force false-positive item-sets.  We reconstruct exactly that mix:

    * flooding of victim E on dstPort 7000 (labelled anomalous);
    * port-80 traffic of three proxy hosts A, B, C (benign);
    * port-9022 backscatter (anomalous — flagged in an earlier interval,
      per the paper narrative);
    * port-25 SMTP traffic (benign).
    """
    if not 0 < scale <= 1.0:
        raise ConfigError(f"scale must be in (0, 1]: {scale}")
    rng = np.random.default_rng(seed)
    profile = switch_like()
    base = profile.internal_base
    victim = base + 77
    proxies = np.array([base + 1, base + 2, base + 3], dtype=np.uint64)
    mailservers = (base + np.arange(10, 200)).astype(np.uint64)
    t0, t1 = 0.0, DEFAULT_INTERVAL_SECONDS

    n_flood = max(1, int(TABLE2_PAPER_COUNTS["flooding_dport_7000"] * scale))
    n_http = max(1, int(TABLE2_PAPER_COUNTS["port_80"] * scale))
    n_backscatter = max(1, int(TABLE2_PAPER_COUNTS["port_9022"] * scale))
    n_smtp = max(1, int(TABLE2_PAPER_COUNTS["port_25"] * scale))

    flooding = FloodingInjector(
        victim_ip=int(victim),
        attacker_ips=[0x0C00_0101, 0x0C00_0202, 0x0C00_0303, 0x0C00_0404],
        target_port=7000,
        flows=n_flood,
    ).generate(rng, t0, t1 - t0, label=0)
    backscatter = BackscatterInjector(
        dst_port=9022, flows=n_backscatter, dest_space_start=int(base)
    ).generate(rng, t0, t1 - t0, label=1)
    http = _proxy_http_flows(rng, proxies, n_http, t0, t1, profile)
    smtp = _smtp_flows(rng, mailservers, n_smtp, t0, t1)

    flows = FlowTable.concat([flooding, http, backscatter, smtp]).sort_by_start()
    return Table2Scenario(
        flows=flows,
        min_support=max(2, int(TABLE2_PAPER_COUNTS["min_support"] * scale)),
        scale=scale,
        component_counts={
            "flooding_dport_7000": n_flood,
            "port_80": n_http,
            "port_9022": n_backscatter,
            "port_25": n_smtp,
            "total": len(flows),
        },
        proxy_hosts=(int(proxies[0]), int(proxies[1]), int(proxies[2])),
        flooding_victim=int(victim),
    )


def _class_injector(
    kind: str,
    rng: np.random.Generator,
    profile: TrafficProfile,
    flows: int,
):
    """Instantiate an injector of the given class with randomized actors."""
    base = profile.internal_base
    pick_internal = lambda: int(base + rng.integers(0, profile.internal_hosts))
    pick_external = lambda: int(0x0C000000 + rng.integers(0, 1 << 24))
    if kind == "flooding":
        return FloodingInjector(
            victim_ip=pick_internal(),
            attacker_ips=[pick_external() for _ in range(int(rng.integers(2, 6)))],
            target_port=int(rng.choice([7000, 6667, 8000, 5060])),
            flows=flows,
        )
    if kind == "backscatter":
        return BackscatterInjector(
            dst_port=int(rng.choice([9022, 27015, 50100, 3074])),
            flows=flows,
            dest_space_start=int(base),
            dest_space_size=profile.internal_hosts,
        )
    if kind == "network_experiment":
        return NetworkExperimentInjector(
            node_ip=pick_internal(),
            probe_port=int(rng.choice([33434, 33435, 40000])),
            source_port=int(rng.integers(30000, 34000)),
            flows=flows,
        )
    if kind == "ddos":
        return DDoSInjector(
            victim_ip=pick_internal(),
            target_port=int(rng.choice([80, 53, 443])),
            flows=flows,
            sources=int(rng.integers(1000, 5000)),
        )
    if kind == "scanning":
        return ScanInjector(
            scanner_ips=[pick_external()],
            target_port=int(rng.choice([445, 22, 1433, 3389, 5900, 23])),
            flows=flows,
            target_space_start=int(base),
            target_space_size=profile.internal_hosts,
        )
    if kind == "spam":
        servers = [pick_internal() for _ in range(40)]
        return SpamInjector(
            spammer_ips=[pick_external() for _ in range(int(rng.integers(5, 30)))],
            mailserver_ips=servers,
            flows=flows,
        )
    if kind == "unknown":
        return UnknownInjector(
            dst_port=int(rng.choice([6881, 4662, 12000])),
            flows=flows,
            dest_space_start=int(base),
        )
    raise ConfigError(f"unknown anomaly class: {kind}")


def two_week_schedule(
    profile: TrafficProfile,
    scale: float = 0.05,
    seed: int = 7,
    interval_seconds: float = DEFAULT_INTERVAL_SECONDS,
    n_intervals: int = 1344,
    training_intervals: int = 96,
) -> EventSchedule:
    """Place the Table IV event mix on a two-week timeline.

    36 events land in 31 *distinct* intervals (five intervals host two
    concurrent events, matching "36 different events within the 31
    anomalous intervals").  The first ``training_intervals`` intervals
    stay clean so detectors can estimate their thresholds.
    """
    shortest = training_intervals + 41
    if n_intervals < shortest:
        raise ConfigError(
            f"trace too short for the two-week schedule: {n_intervals} "
            f"intervals (generate --intervals), need at least {shortest}"
        )
    rng = np.random.default_rng(seed)
    kinds: list[str] = []
    for kind, count in TABLE4_OCCURRENCES.items():
        kinds.extend([kind] * count)
    assert len(kinds) == 36
    rng.shuffle(kinds)
    # 31 distinct intervals; the first 5 of them receive a second event.
    candidates = np.arange(training_intervals + 1, n_intervals - 1)
    chosen = np.sort(rng.choice(candidates, size=31, replace=False))
    slots = list(chosen) + list(rng.choice(chosen, size=5, replace=False))
    rng.shuffle(slots)
    schedule = EventSchedule()
    for kind, slot in zip(kinds, slots):
        flows = max(10, int(TABLE4_CLASS_FLOWS[kind] * scale))
        injector = _class_injector(kind, rng, profile, flows)
        # Events span most of their interval, starting a little inside it.
        offset = float(rng.uniform(0.0, 0.2) * interval_seconds)
        duration = interval_seconds - offset - 1e-3
        schedule.add_at_interval(
            injector, int(slot), interval_seconds, duration=duration, offset=offset
        )
    return schedule


def two_week_trace(
    flows_per_interval: int = 4_000,
    scale: float = 0.05,
    seed: int = 7,
    n_intervals: int = 1344,
    interval_seconds: float = DEFAULT_INTERVAL_SECONDS,
) -> GeneratedTrace:
    """The full Table IV workload: two weeks, 36 events, 31 anomalous
    intervals.  ~5.4 M flows at the default scale."""
    profile = switch_like(flows_per_interval)
    schedule = two_week_schedule(
        profile,
        scale=scale,
        seed=seed,
        interval_seconds=interval_seconds,
        n_intervals=n_intervals,
    )
    generator = TraceGenerator(profile, seed=seed)
    return generator.generate(
        n_intervals, schedule=schedule, interval_seconds=interval_seconds
    )


def two_day_trace(
    flows_per_interval: int = 4_000,
    seed: int = 11,
    interval_seconds: float = DEFAULT_INTERVAL_SECONDS,
) -> GeneratedTrace:
    """Two days (192 intervals) with two injected events - the Fig. 4
    setting (KL time series for the source IP feature over ~2 days)."""
    profile = switch_like(flows_per_interval)
    rng = np.random.default_rng(seed)
    schedule = EventSchedule()
    ddos = _class_injector("ddos", rng, profile, flows=int(20_000 * 0.2))
    scan = _class_injector("scanning", rng, profile, flows=int(21_000 * 0.2))
    schedule.add_at_interval(
        ddos, 60, interval_seconds, duration=interval_seconds - 1.0
    )
    schedule.add_at_interval(
        scan, 150, interval_seconds, duration=interval_seconds - 1.0
    )
    generator = TraceGenerator(profile, seed=seed)
    return generator.generate(192, schedule=schedule, interval_seconds=interval_seconds)


def worm_outbreak_trace(
    flows_per_interval: int = 4_000,
    seed: int = 23,
    interval_seconds: float = DEFAULT_INTERVAL_SECONDS,
    n_intervals: int = 12,
    outbreak_interval: int = 8,
) -> GeneratedTrace:
    """A short trace with a three-stage Sasser-like outbreak - the
    union-vs-intersection ablation workload (Section II-A)."""
    profile = switch_like(flows_per_interval)
    rng = np.random.default_rng(seed)
    infected = [
        int(0x0C000000 + rng.integers(0, 1 << 24)) for _ in range(6)
    ]
    worm = SasserLikeWorm(
        infected_ips=infected,
        scan_flows=3_000,
        backdoor_flows=1_200,
        download_flows=800,
        target_space_start=profile.internal_base,
        target_space_size=profile.internal_hosts,
    )
    schedule = EventSchedule()
    schedule.add_at_interval(
        worm,
        outbreak_interval,
        interval_seconds,
        duration=interval_seconds - 1.0,
    )
    generator = TraceGenerator(profile, seed=seed)
    return generator.generate(
        n_intervals, schedule=schedule, interval_seconds=interval_seconds
    )
