"""Unit tests for the baseline traffic model."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.flows.record import PROTO_ICMP, PROTO_TCP, PROTO_UDP
from repro.traffic.baseline import BaselineTrafficModel, zipf_weights
from repro.traffic.profiles import small_test, switch_like


@pytest.fixture(scope="module")
def model():
    return BaselineTrafficModel(small_test(), seed=7)


class TestZipfWeights:
    def test_normalized(self):
        assert zipf_weights(100, 1.0).sum() == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        weights = zipf_weights(50, 1.1)
        assert (np.diff(weights) < 0).all()

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            zipf_weights(0, 1.0)


class TestSampling:
    def test_sample_shape_and_time_range(self, model):
        flows = model.sample(500, 100.0, 1000.0)
        assert len(flows) == 500
        assert flows.start.min() >= 100.0
        assert flows.start.max() < 1000.0

    def test_sample_zero(self, model):
        assert len(model.sample(0, 0.0, 1.0)) == 0

    def test_sample_rejects_bad_interval(self, model):
        with pytest.raises(ConfigError):
            model.sample(10, 5.0, 5.0)
        with pytest.raises(ConfigError):
            model.sample(-1, 0.0, 1.0)

    def test_ports_within_range(self, model, rng):
        flows = model.sample(2000, 0.0, 900.0, rng=rng)
        assert flows.src_port.max() < 65536
        assert flows.dst_port.max() < 65536

    def test_packets_positive_and_capped(self, model, rng):
        flows = model.sample(2000, 0.0, 900.0, rng=rng)
        assert flows.packets.min() >= 1
        assert flows.packets.max() <= model.profile.packets_cap

    def test_bytes_at_least_40_per_flow(self, model, rng):
        flows = model.sample(2000, 0.0, 900.0, rng=rng)
        assert flows.bytes.min() >= 40
        # Bytes should scale with packets (packet size <= 1500).
        assert (flows.bytes <= flows.packets * 1500 + 1).all()

    def test_protocol_mix(self, model):
        rng = np.random.default_rng(11)
        flows = model.sample(20_000, 0.0, 900.0, rng=rng)
        protocols = flows.protocol
        tcp = (protocols == PROTO_TCP).mean()
        udp = (protocols == PROTO_UDP).mean()
        icmp = (protocols == PROTO_ICMP).mean()
        assert tcp == pytest.approx(model.profile.tcp_share, abs=0.02)
        assert udp == pytest.approx(model.profile.udp_share, abs=0.02)
        icmp_share = 1 - model.profile.tcp_share - model.profile.udp_share
        assert icmp == pytest.approx(icmp_share, abs=0.02)

    def test_port_80_dominates_destinations(self, model):
        rng = np.random.default_rng(12)
        flows = model.sample(20_000, 0.0, 900.0, rng=rng)
        ports, counts = np.unique(flows.dst_port, return_counts=True)
        top_port = ports[np.argmax(counts)]
        assert top_port == 80

    def test_ip_popularity_skewed(self, model):
        rng = np.random.default_rng(13)
        ips = model.sample_internal_ips(30_000, rng)
        _, counts = np.unique(ips, return_counts=True)
        counts = np.sort(counts)[::-1]
        # Zipf: the most popular host carries far more than the median.
        assert counts[0] > 10 * np.median(counts)

    def test_baseline_flows_are_unlabelled(self, model, rng):
        flows = model.sample(100, 0.0, 900.0, rng=rng)
        assert not flows.anomalous_mask.any()

    def test_determinism_with_seed(self):
        a = BaselineTrafficModel(small_test(), seed=3).sample(200, 0.0, 900.0)
        b = BaselineTrafficModel(small_test(), seed=3).sample(200, 0.0, 900.0)
        assert a == b

    def test_different_seeds_differ(self):
        a = BaselineTrafficModel(small_test(), seed=3).sample(200, 0.0, 900.0)
        b = BaselineTrafficModel(small_test(), seed=4).sample(200, 0.0, 900.0)
        assert a != b

    def test_internal_and_external_pools_disjoint(self):
        model = BaselineTrafficModel(switch_like(100), seed=1)
        rng = np.random.default_rng(0)
        internal = set(model.sample_internal_ips(1000, rng).tolist())
        external = set(model.sample_external_ips(1000, rng).tolist())
        assert not internal & external
