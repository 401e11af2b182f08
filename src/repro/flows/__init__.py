"""Flow substrate: NetFlow-style records, columnar tables, IO, windowing."""

from repro.flows.io import (
    iter_csv,
    iter_csv_handle,
    read_csv,
    read_npz,
    read_trace,
    write_csv,
    write_npz,
)
from repro.flows.record import (
    BASELINE_LABEL,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    FlowRecord,
    int_to_ip,
    ip_to_int,
)
from repro.flows.stream import (
    DEFAULT_INTERVAL_SECONDS,
    IntervalView,
    interval_of,
    iter_intervals,
)
from repro.flows.table import ALL_COLUMNS, FEATURE_COLUMNS, FlowTable

__all__ = [
    "BASELINE_LABEL",
    "PROTO_ICMP",
    "PROTO_TCP",
    "PROTO_UDP",
    "FlowRecord",
    "FlowTable",
    "ALL_COLUMNS",
    "FEATURE_COLUMNS",
    "ip_to_int",
    "int_to_ip",
    "read_csv",
    "read_trace",
    "iter_csv",
    "iter_csv_handle",
    "write_csv",
    "read_npz",
    "write_npz",
    "DEFAULT_INTERVAL_SECONDS",
    "IntervalView",
    "iter_intervals",
    "interval_of",
]
