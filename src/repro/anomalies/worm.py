"""Multi-stage worm injector (Sasser-like).

Section II-A motivates *union* prefiltering with the Sasser worm, which
propagates in three flow-disjoint stages:

1. SYN scanning of target hosts on the vulnerable service port;
2. connection attempts to a backdoor on port 9996 of exploited hosts;
3. download of the ~16 kB worm executable (FTP-ish transfer).

Because the stages share no single flow, intersecting the per-stage
meta-data yields the empty set while the union captures all three - the
property exercised by ``tests/paper/test_ablation_union_vs_intersection.py``.
"""

from __future__ import annotations

import numpy as np

from repro.anomalies.base import AnomalyInjector, uniform_times
from repro.errors import ConfigError
from repro.flows.record import PROTO_TCP
from repro.flows.table import FlowTable

SASSER_SCAN_PORT = 445
SASSER_BACKDOOR_PORT = 9996
SASSER_FTP_PORT = 5554
SASSER_PAYLOAD_BYTES = 16_384


class SasserLikeWorm(AnomalyInjector):
    """Three-stage worm outbreak with flow-disjoint stage signatures."""

    kind = "worm"

    def __init__(
        self,
        infected_ips: list[int] | tuple[int, ...],
        scan_flows: int = 30_000,
        backdoor_flows: int = 6_000,
        download_flows: int = 3_000,
        target_space_start: int = 0x823B0000,
        target_space_size: int = 65_536,
    ):
        if not infected_ips:
            raise ConfigError("worm needs at least one infected host")
        for count, name in (
            (scan_flows, "scan_flows"),
            (backdoor_flows, "backdoor_flows"),
            (download_flows, "download_flows"),
        ):
            if count < 1:
                raise ConfigError(f"{name} must be >= 1: {count}")
        self.infected_ips = tuple(int(ip) for ip in infected_ips)
        self.scan_flows = scan_flows
        self.backdoor_flows = backdoor_flows
        self.download_flows = download_flows
        self.target_space_start = target_space_start
        self.target_space_size = target_space_size

    # ------------------------------------------------------------------
    def _stage_scan(
        self, rng: np.random.Generator, start: float, duration: float, label: int
    ) -> FlowTable:
        n = self.scan_flows
        infected = np.asarray(self.infected_ips, dtype=np.uint64)
        src = infected[rng.integers(0, len(infected), size=n)]
        dst = np.uint64(self.target_space_start) + rng.integers(
            0, self.target_space_size, size=n, dtype=np.uint64
        )
        return FlowTable.from_arrays(
            src_ip=src,
            dst_ip=dst,
            src_port=rng.integers(1024, 65536, size=n, dtype=np.uint64),
            dst_port=np.full(n, SASSER_SCAN_PORT, dtype=np.uint64),
            protocol=np.full(n, PROTO_TCP, dtype=np.uint64),
            packets=np.ones(n, dtype=np.uint64),
            bytes_=np.full(n, 48, dtype=np.uint64),
            start=uniform_times(rng, n, start, duration),
            label=np.full(n, label, dtype=np.int64),
        )

    def _stage_backdoor(
        self, rng: np.random.Generator, start: float, duration: float, label: int
    ) -> FlowTable:
        n = self.backdoor_flows
        infected = np.asarray(self.infected_ips, dtype=np.uint64)
        src = infected[rng.integers(0, len(infected), size=n)]
        dst = np.uint64(self.target_space_start) + rng.integers(
            0, self.target_space_size, size=n, dtype=np.uint64
        )
        packets = rng.integers(3, 8, size=n).astype(np.uint64)
        return FlowTable.from_arrays(
            src_ip=src,
            dst_ip=dst,
            src_port=rng.integers(1024, 65536, size=n, dtype=np.uint64),
            dst_port=np.full(n, SASSER_BACKDOOR_PORT, dtype=np.uint64),
            protocol=np.full(n, PROTO_TCP, dtype=np.uint64),
            packets=packets,
            bytes_=packets * np.uint64(60),
            start=uniform_times(rng, n, start, duration),
            label=np.full(n, label, dtype=np.int64),
        )

    def _stage_download(
        self, rng: np.random.Generator, start: float, duration: float, label: int
    ) -> FlowTable:
        n = self.download_flows
        # Victims fetch the payload *from* the infected hosts: the worm
        # binary is a fixed-size transfer, so #bytes is constant - the
        # "specific flow size" meta-data of the paper's example.
        infected = np.asarray(self.infected_ips, dtype=np.uint64)
        dst_infected = infected[rng.integers(0, len(infected), size=n)]
        victims = np.uint64(self.target_space_start) + rng.integers(
            0, self.target_space_size, size=n, dtype=np.uint64
        )
        packets = np.full(n, 12, dtype=np.uint64)
        return FlowTable.from_arrays(
            src_ip=victims,
            dst_ip=dst_infected,
            src_port=rng.integers(1024, 65536, size=n, dtype=np.uint64),
            dst_port=np.full(n, SASSER_FTP_PORT, dtype=np.uint64),
            protocol=np.full(n, PROTO_TCP, dtype=np.uint64),
            packets=packets,
            bytes_=np.full(n, SASSER_PAYLOAD_BYTES, dtype=np.uint64),
            start=uniform_times(rng, n, start, duration),
            label=np.full(n, label, dtype=np.int64),
        )

    # ------------------------------------------------------------------
    def generate(
        self,
        rng: np.random.Generator,
        start: float,
        duration: float,
        label: int,
    ) -> FlowTable:
        self._check_generate_args(start, duration, label)
        # Stages overlap but are offset: scanning first, then backdoor
        # probing, then payload download.
        third = duration / 3.0
        return FlowTable.concat(
            [
                self._stage_scan(rng, start, duration, label),
                self._stage_backdoor(rng, start + third, duration - third, label),
                self._stage_download(
                    rng, start + 2 * third, duration - 2 * third, label
                ),
            ]
        ).sort_by_start()

    def describe(self) -> str:
        return (
            f"Sasser-like worm: {len(self.infected_ips)} infected hosts; "
            f"scan {SASSER_SCAN_PORT} ({self.scan_flows}), backdoor "
            f"{SASSER_BACKDOOR_PORT} ({self.backdoor_flows}), download "
            f"{SASSER_FTP_PORT} ({self.download_flows})"
        )

    def signature(self) -> dict[str, int]:
        return {
            "dst_port": SASSER_SCAN_PORT,
            "bytes": SASSER_PAYLOAD_BYTES,
        }
