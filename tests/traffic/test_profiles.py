"""Unit tests for traffic profiles."""

import pytest

from repro.errors import ConfigError
from repro.flows.record import ip_to_int
from repro.traffic.profiles import TrafficProfile, small_test, switch_like


class TestProfiles:
    def test_switch_like_defaults(self):
        profile = switch_like()
        assert profile.flows_per_interval == 20_000
        assert profile.internal_base == ip_to_int("130.59.0.0")

    def test_switch_like_scaling(self):
        assert switch_like(500).flows_per_interval == 500

    def test_small_test_is_small(self):
        profile = small_test()
        assert profile.internal_hosts <= 1024
        assert profile.flows_per_interval <= 2000

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(internal_hosts=1),
            dict(external_hosts=0),
            dict(service_port_share=0.0),
            dict(service_port_share=1.5),
            dict(tcp_share=0.9, udp_share=0.2),
            dict(tcp_share=-0.1),
            dict(ephemeral_range=(0, 1024)),
            dict(ephemeral_range=(2000, 1000)),
            dict(ephemeral_range=(1024, 70000)),
            dict(flows_per_interval=0),
            dict(packets_tail_alpha=0.0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            TrafficProfile(**kwargs)

    def test_service_ports_dominated_by_port_80(self):
        profile = switch_like()
        ports = dict(profile.service_ports)
        assert ports[80] == max(ports.values())
