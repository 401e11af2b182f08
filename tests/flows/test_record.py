"""Unit tests for flow records and IP helpers."""

import pytest

from repro.errors import FlowError
from repro.flows.record import (
    BASELINE_LABEL,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    FlowRecord,
    int_to_ip,
    ip_to_int,
)


class TestIpConversion:
    def test_round_trip_examples(self):
        for dotted in ("0.0.0.0", "10.0.0.1", "130.59.255.254", "255.255.255.255"):
            assert int_to_ip(ip_to_int(dotted)) == dotted

    def test_known_value(self):
        assert ip_to_int("10.0.0.1") == 167772161

    def test_octet_order_is_big_endian(self):
        assert ip_to_int("1.0.0.0") == 1 << 24

    def test_rejects_short_address(self):
        with pytest.raises(FlowError):
            ip_to_int("10.0.0")

    def test_rejects_large_octet(self):
        with pytest.raises(FlowError):
            ip_to_int("10.0.0.256")

    def test_rejects_negative_octet(self):
        with pytest.raises(FlowError):
            ip_to_int("10.0.0.-1")

    def test_rejects_non_numeric(self):
        with pytest.raises(FlowError):
            ip_to_int("a.b.c.d")

    def test_int_to_ip_rejects_out_of_range(self):
        with pytest.raises(FlowError):
            int_to_ip(2**32)
        with pytest.raises(FlowError):
            int_to_ip(-1)


def _flow(**overrides):
    base = dict(
        src_ip=ip_to_int("10.0.0.1"),
        dst_ip=ip_to_int("10.0.0.2"),
        src_port=1234,
        dst_port=80,
        protocol=PROTO_TCP,
        packets=3,
        bytes=120,
    )
    base.update(overrides)
    return FlowRecord(**base)


class TestFlowRecord:
    def test_default_label_is_baseline(self):
        assert _flow().label == BASELINE_LABEL

    def test_ip_string_properties(self):
        flow = _flow()
        assert flow.src_ip_str == "10.0.0.1"
        assert flow.dst_ip_str == "10.0.0.2"

    def test_protocol_names(self):
        assert _flow(protocol=PROTO_TCP).protocol_name == "tcp"
        assert _flow(protocol=PROTO_UDP).protocol_name == "udp"
        assert _flow(protocol=PROTO_ICMP).protocol_name == "icmp"
        assert _flow(protocol=47).protocol_name == "47"

    def test_str_contains_endpoints(self):
        text = str(_flow())
        assert "10.0.0.1:1234" in text
        assert "10.0.0.2:80" in text

    def test_records_are_hashable_and_equal(self):
        assert _flow() == _flow()
        assert hash(_flow()) == hash(_flow())

    @pytest.mark.parametrize(
        "field,value",
        [
            ("src_ip", -1),
            ("src_ip", 2**32),
            ("dst_ip", 2**32),
            ("src_port", -1),
            ("src_port", 65536),
            ("dst_port", 70000),
            ("protocol", 256),
            ("protocol", -1),
            ("packets", 0),
            ("bytes", 0),
        ],
    )
    def test_validation_rejects_out_of_range(self, field, value):
        with pytest.raises(FlowError):
            _flow(**{field: value})

    def test_frozen(self):
        with pytest.raises(AttributeError):
            _flow().src_ip = 1  # type: ignore[misc]
