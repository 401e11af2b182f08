"""Single NetFlow-style flow record.

The paper models each flow by the seven features that become the items of
an association-mining transaction (Section II-B):

    srcIP, dstIP, srcPort, dstPort, protocol, #packets, #bytes

plus a start timestamp used for interval windowing.  This module provides
an ergonomic row-level view; bulk storage lives in
:class:`repro.flows.table.FlowTable`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import FlowError

# IANA protocol numbers used throughout the library.
PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

PROTOCOL_NAMES = {
    PROTO_ICMP: "icmp",
    PROTO_TCP: "tcp",
    PROTO_UDP: "udp",
}

#: Label value meaning "baseline traffic, not part of any injected event".
BASELINE_LABEL = -1

_MAX_IP = 2**32 - 1
_MAX_PORT = 2**16 - 1


def ip_to_int(dotted: str) -> int:
    """Convert a dotted-quad IPv4 address to its 32-bit integer form.

    >>> ip_to_int("10.0.0.1")
    167772161
    """
    parts = dotted.split(".")
    if len(parts) != 4:
        raise FlowError(f"not a dotted-quad IPv4 address: {dotted!r}")
    value = 0
    for part in parts:
        try:
            octet = int(part)
        except ValueError as exc:
            raise FlowError(f"bad IPv4 octet in {dotted!r}") from exc
        if not 0 <= octet <= 255:
            raise FlowError(f"IPv4 octet out of range in {dotted!r}")
        value = (value << 8) | octet
    return value


def int_to_ip(value: int) -> str:
    """Convert a 32-bit integer to dotted-quad notation.

    >>> int_to_ip(167772161)
    '10.0.0.1'
    """
    if not 0 <= value <= _MAX_IP:
        raise FlowError(f"IPv4 integer out of range: {value}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@dataclass(frozen=True, slots=True)
class FlowRecord:
    """One unidirectional flow record (the unit of anomaly extraction).

    Attributes mirror the seven transaction features of the paper plus the
    flow start time and a ground-truth ``label`` (event id, or
    :data:`BASELINE_LABEL` for background traffic).
    """

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    protocol: int
    packets: int
    bytes: int
    start: float = 0.0
    label: int = field(default=BASELINE_LABEL)

    def __post_init__(self) -> None:
        if not 0 <= self.src_ip <= _MAX_IP:
            raise FlowError(f"src_ip out of range: {self.src_ip}")
        if not 0 <= self.dst_ip <= _MAX_IP:
            raise FlowError(f"dst_ip out of range: {self.dst_ip}")
        if not 0 <= self.src_port <= _MAX_PORT:
            raise FlowError(f"src_port out of range: {self.src_port}")
        if not 0 <= self.dst_port <= _MAX_PORT:
            raise FlowError(f"dst_port out of range: {self.dst_port}")
        if not 0 <= self.protocol <= 255:
            raise FlowError(f"protocol out of range: {self.protocol}")
        if self.packets < 1:
            raise FlowError(f"flow must carry at least one packet: {self.packets}")
        if self.bytes < 1:
            raise FlowError(f"flow must carry at least one byte: {self.bytes}")

    @property
    def src_ip_str(self) -> str:
        """Source address in dotted-quad notation."""
        return int_to_ip(self.src_ip)

    @property
    def dst_ip_str(self) -> str:
        """Destination address in dotted-quad notation."""
        return int_to_ip(self.dst_ip)

    @property
    def protocol_name(self) -> str:
        """Human-readable protocol name (falls back to the number)."""
        return PROTOCOL_NAMES.get(self.protocol, str(self.protocol))

    def __str__(self) -> str:
        return (
            f"{self.src_ip_str}:{self.src_port} -> "
            f"{self.dst_ip_str}:{self.dst_port} "
            f"{self.protocol_name} pkts={self.packets} bytes={self.bytes}"
        )
