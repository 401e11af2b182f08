"""Baseline (non-anomalous) backbone traffic model.

Synthesizes flows whose marginal feature distributions mimic what a
peering-link NetFlow capture looks like to the paper's detectors:

* endpoint popularity follows a Zipf law (a handful of proxies, caches
  and mail relays dominate — the hosts A, B, C of the paper's Table II);
* destination ports mix well-known services (port 80 dominant) with an
  ephemeral tail; source ports are mostly ephemeral;
* packets-per-flow is heavy-tailed (many single-packet flows, rare
  elephants); bytes scale with packets times a jittered packet size;
* the protocol mix is TCP-dominated.

All sampling is vectorized and driven by an explicit
:class:`numpy.random.Generator`, so traces are reproducible.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.flows.record import PROTO_ICMP, PROTO_TCP, PROTO_UDP
from repro.flows.table import FlowTable
from repro.traffic.profiles import TrafficProfile


def zipf_weights(size: int, exponent: float) -> np.ndarray:
    """Normalized Zipf probabilities over ranks 1..size."""
    if size < 1:
        raise ConfigError(f"pool size must be >= 1: {size}")
    ranks = np.arange(1, size + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    return weights / weights.sum()


def _sample_discrete(
    rng: np.random.Generator, cumulative: np.ndarray, n: int
) -> np.ndarray:
    """Inverse-CDF sampling of ``n`` indices given cumulative weights."""
    u = rng.random(n)
    return np.searchsorted(cumulative, u, side="right")


class BaselineTrafficModel:
    """Vectorized sampler of baseline flows for a given profile."""

    def __init__(self, profile: TrafficProfile, seed: int = 0):
        self.profile = profile
        self._rng = np.random.default_rng(seed)
        base = profile.internal_base
        # Host pools.  A random permutation decouples popularity rank from
        # numeric adjacency, like real address plans.
        perm_rng = np.random.default_rng(seed ^ 0x5EED)
        self._internal_pool = base + perm_rng.permutation(
            profile.internal_hosts
        ).astype(np.uint64)
        self._external_pool = (
            np.uint64(0x0B000000)  # 11.0.0.0/8-ish external space
            + perm_rng.permutation(profile.external_hosts).astype(np.uint64)
        )
        self._internal_cum = np.cumsum(
            zipf_weights(profile.internal_hosts, profile.ip_zipf_exponent)
        )
        self._external_cum = np.cumsum(
            zipf_weights(profile.external_hosts, profile.ip_zipf_exponent)
        )
        ports = np.array([port for port, _ in profile.service_ports], dtype=np.uint64)
        weights = np.array(
            [weight for _, weight in profile.service_ports], dtype=np.float64
        )
        self._service_ports = ports
        self._service_cum = np.cumsum(weights / weights.sum())

    @property
    def rng(self) -> np.random.Generator:
        return self._rng

    # ------------------------------------------------------------------
    # Feature samplers (each returns an array of length n)
    # ------------------------------------------------------------------
    def sample_internal_ips(self, n: int, rng: np.random.Generator) -> np.ndarray:
        idx = _sample_discrete(rng, self._internal_cum, n)
        return self._internal_pool[idx]

    def sample_external_ips(self, n: int, rng: np.random.Generator) -> np.ndarray:
        idx = _sample_discrete(rng, self._external_cum, n)
        return self._external_pool[idx]

    def sample_dst_ports(self, n: int, rng: np.random.Generator) -> np.ndarray:
        lo, hi = self.profile.ephemeral_range
        ports = rng.integers(lo, hi, size=n, dtype=np.uint64)
        service_mask = rng.random(n) < self.profile.service_port_share
        count = int(service_mask.sum())
        if count:
            idx = _sample_discrete(rng, self._service_cum, count)
            ports[service_mask] = self._service_ports[idx]
        return ports

    def sample_src_ports(self, n: int, rng: np.random.Generator) -> np.ndarray:
        lo, hi = self.profile.ephemeral_range
        ports = rng.integers(lo, hi, size=n, dtype=np.uint64)
        # A small share of flows are server->client, so their *source*
        # port is a service port.
        reply_mask = rng.random(n) < 0.15
        count = int(reply_mask.sum())
        if count:
            idx = _sample_discrete(rng, self._service_cum, count)
            ports[reply_mask] = self._service_ports[idx]
        return ports

    def sample_protocols(self, n: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.random(n)
        protocols = np.full(n, PROTO_ICMP, dtype=np.uint64)
        protocols[u < self.profile.tcp_share + self.profile.udp_share] = PROTO_UDP
        protocols[u < self.profile.tcp_share] = PROTO_TCP
        return protocols

    def sample_packets(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Heavy-tailed packets-per-flow: 1 + discretized Pareto."""
        alpha = self.profile.packets_tail_alpha
        raw = rng.pareto(alpha, size=n)
        packets = 1 + np.floor(raw * 2.0).astype(np.int64)
        return np.clip(packets, 1, self.profile.packets_cap).astype(np.uint64)

    def sample_bytes(
        self, packets: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        mean = self.profile.mean_bytes_per_packet
        jitter = self.profile.bytes_jitter
        per_packet = mean * np.exp(
            rng.normal(0.0, jitter, size=len(packets))
        )
        per_packet = np.clip(per_packet, 40.0, 1500.0)
        return np.maximum(
            (packets.astype(np.float64) * per_packet).astype(np.uint64),
            np.uint64(40),
        )

    # ------------------------------------------------------------------
    # Flow batch sampler
    # ------------------------------------------------------------------
    def sample(
        self,
        n: int,
        t0: float,
        t1: float,
        rng: np.random.Generator | None = None,
    ) -> FlowTable:
        """Sample ``n`` baseline flows with start times uniform in
        ``[t0, t1)``.

        Roughly half the flows are inbound (external source -> internal
        destination) and half outbound, matching a peering link's view.
        """
        if n < 0:
            raise ConfigError(f"flow count must be >= 0: {n}")
        if t1 <= t0:
            raise ConfigError(f"bad interval [{t0}, {t1})")
        rng = rng or self._rng
        if n == 0:
            return FlowTable.empty()
        inbound = rng.random(n) < 0.5
        n_in = int(inbound.sum())
        n_out = n - n_in
        src = np.empty(n, dtype=np.uint64)
        dst = np.empty(n, dtype=np.uint64)
        src[inbound] = self.sample_external_ips(n_in, rng)
        dst[inbound] = self.sample_internal_ips(n_in, rng)
        src[~inbound] = self.sample_internal_ips(n_out, rng)
        dst[~inbound] = self.sample_external_ips(n_out, rng)
        packets = self.sample_packets(n, rng)
        table = FlowTable.from_arrays(
            src_ip=src,
            dst_ip=dst,
            src_port=self.sample_src_ports(n, rng),
            dst_port=self.sample_dst_ports(n, rng),
            protocol=self.sample_protocols(n, rng),
            packets=packets,
            bytes_=self.sample_bytes(packets, rng),
            start=rng.uniform(t0, t1, size=n),
        )
        return table
