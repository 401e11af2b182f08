"""Traffic profiles: parameter presets for the synthetic backbone.

The paper's dataset is a non-sampled NetFlow capture from a SWITCH/AS559
peering link (2.2 M internal addresses, ~92 M flows/hour).  We cannot
redistribute those traces, so :mod:`repro.traffic` synthesizes traffic
whose *feature distributions* have the properties the detectors and the
miner actually consume: Zipf-like endpoint and port popularity, a heavy
tail of flow sizes, a realistic protocol mix, and diurnal rate variation.
Profiles bundle those knobs; ``switch_like`` is the scaled-down default
used by the benchmarks, ``small_test`` keeps unit tests fast.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.flows.record import ip_to_int

#: Well-known service ports and their share of baseline destination-port
#: traffic.  Port 80 dominates, mirroring the Table II narrative where
#: port 80 matched 252 069 of 350 872 flows.
DEFAULT_SERVICE_PORTS: tuple[tuple[int, float], ...] = (
    (80, 0.42),
    (443, 0.14),
    (53, 0.09),
    (25, 0.06),
    (110, 0.02),
    (143, 0.02),
    (22, 0.02),
    (21, 0.01),
    (123, 0.01),
    (3389, 0.01),
)


@dataclass(frozen=True, slots=True)
class TrafficProfile:
    """All knobs of the baseline traffic model.

    Attributes:
        internal_network: first address of the "monitored" (SWITCH-like)
            address block, as a dotted quad.
        internal_hosts: number of addresses in the monitored block.
        external_hosts: size of the remote address pool.
        ip_zipf_exponent: skew of endpoint popularity (1.0 ~ classic Zipf).
        service_ports: (port, probability) pairs for destination ports;
            remaining mass goes to ephemeral ports.
        service_port_share: total probability that a baseline flow's
            destination port is a service port (vs ephemeral).
        ephemeral_range: inclusive-exclusive range of ephemeral ports.
        tcp_share / udp_share: protocol mix; ICMP receives the remainder.
        packets_tail_alpha: Pareto tail exponent of packets-per-flow.
        packets_cap: upper clip for packets per flow.
        mean_bytes_per_packet / bytes_jitter: packet size model.
        flows_per_interval: average baseline flows per measurement
            interval at the diurnal peak-to-trough midpoint.
    """

    internal_network: str = "130.59.0.0"
    internal_hosts: int = 8192
    external_hosts: int = 65536
    ip_zipf_exponent: float = 1.05
    service_ports: tuple[tuple[int, float], ...] = DEFAULT_SERVICE_PORTS
    service_port_share: float = 0.82
    ephemeral_range: tuple[int, int] = (1024, 65536)
    tcp_share: float = 0.80
    udp_share: float = 0.17
    packets_tail_alpha: float = 1.3
    packets_cap: int = 50_000
    mean_bytes_per_packet: float = 620.0
    bytes_jitter: float = 0.35
    flows_per_interval: int = 20_000

    def __post_init__(self) -> None:
        if self.internal_hosts < 2 or self.external_hosts < 2:
            raise ConfigError("need at least two hosts per pool")
        if not 0.0 < self.service_port_share <= 1.0:
            raise ConfigError(
                f"service_port_share must be in (0, 1]: {self.service_port_share}"
            )
        if self.tcp_share < 0 or self.udp_share < 0 or (
            self.tcp_share + self.udp_share
        ) > 1.0:
            raise ConfigError("protocol shares must be non-negative and sum <= 1")
        lo, hi = self.ephemeral_range
        if not 0 < lo < hi <= 65536:
            raise ConfigError(f"bad ephemeral range: {self.ephemeral_range}")
        if self.flows_per_interval < 1:
            raise ConfigError("flows_per_interval must be positive")
        if self.packets_tail_alpha <= 0:
            raise ConfigError("packets_tail_alpha must be positive")
        total_service = sum(weight for _, weight in self.service_ports)
        if total_service <= 0:
            raise ConfigError("service port weights must have positive mass")

    @property
    def internal_base(self) -> int:
        """Integer form of the first monitored address."""
        return ip_to_int(self.internal_network)


def switch_like(flows_per_interval: int = 20_000) -> TrafficProfile:
    """The default scaled-down SWITCH/AS559-like profile.

    The real link carries ~23 M flows per 15-minute interval; we default
    to 20 k so a two-week experiment (1344 intervals) stays laptop-sized.
    Every benchmark reports the scale factor next to its results.
    """
    return TrafficProfile(flows_per_interval=flows_per_interval)


def small_test(flows_per_interval: int = 600) -> TrafficProfile:
    """Tiny profile for unit tests: small pools, few flows, same shape."""
    return TrafficProfile(
        internal_hosts=256,
        external_hosts=1024,
        flows_per_interval=flows_per_interval,
    )
