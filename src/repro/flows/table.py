"""Columnar container for flow records.

A :class:`FlowTable` stores the seven mining features, the start
timestamps, and ground-truth labels as parallel numpy arrays.  Every
detector, prefilter, and miner in this library operates on ``FlowTable``
columns vectorized, which is what makes two-week experiments tractable in
pure Python.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import FlowError
from repro.flows.record import BASELINE_LABEL, FlowRecord
from repro.state import pack_array, packed, read_fields

#: Column names in canonical order (the seven features, then timing/labels).
FEATURE_COLUMNS = (
    "src_ip",
    "dst_ip",
    "src_port",
    "dst_port",
    "protocol",
    "packets",
    "bytes",
)
ALL_COLUMNS = FEATURE_COLUMNS + ("start", "label")

_DTYPES = {
    "src_ip": np.uint32,
    "dst_ip": np.uint32,
    "src_port": np.uint32,
    "dst_port": np.uint32,
    "protocol": np.uint32,
    "packets": np.uint64,
    "bytes": np.uint64,
    "start": np.float64,
    "label": np.int64,
}

#: One flow as a record: the structured dtype the text decoders
#: (:mod:`repro.flows.io`, the service's JSONL ingest) fill a batch at
#: a time, so a cell that does not fit its column is refused at the
#: edge instead of wrapping.
ROW_DTYPE = np.dtype([(name, _DTYPES[name]) for name in ALL_COLUMNS])

_INT_BOUNDS = {
    name: np.iinfo(dtype)
    for name, dtype in _DTYPES.items()
    if np.issubdtype(dtype, np.integer)
}


def fit_error(column: str, value: int) -> str | None:
    """Why ``value`` cannot be stored in integer ``column``, or ``None``.

    The text decoders word their out-of-range refusals with this, and
    the JSONL one also decides with it: what numpy does with a Python
    int that does not fit (raise or wrap) depends on its version.
    """
    bounds = _INT_BOUNDS[column]
    if bounds.min <= value <= bounds.max:
        return None
    return f"{column}={value} does not fit {bounds.dtype}"


#: One :func:`~repro.state.packed` kind per column of a table state.
_COLUMN_KINDS = {name: packed(dtype) for name, dtype in _DTYPES.items()}


class FlowTable:
    """Immutable-by-convention columnar batch of flows.

    Construct with :meth:`from_arrays`, :meth:`from_records`, or
    :meth:`concat`.  Columns are exposed as read-only numpy arrays.  A
    table cut from another by :meth:`row_range` shares its rows with
    that table instead of copying them; neither can change, so the two
    read as independent tables.
    """

    __slots__ = ("_cols", "_state_cache")

    def __init__(self, columns: dict[str, np.ndarray]):
        missing = [name for name in ALL_COLUMNS if name not in columns]
        if missing:
            raise FlowError(f"missing columns: {missing}")
        lengths = {name: len(columns[name]) for name in ALL_COLUMNS}
        if len(set(lengths.values())) > 1:
            raise FlowError(f"ragged columns: {lengths}")
        self._cols: dict[str, np.ndarray] = {}
        for name in ALL_COLUMNS:
            arr = np.asarray(columns[name], dtype=_DTYPES[name])
            arr.setflags(write=False)
            self._cols[name] = arr
        self._state_cache: dict[str, dict[str, str]] | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        src_ip: Sequence[int],
        dst_ip: Sequence[int],
        src_port: Sequence[int],
        dst_port: Sequence[int],
        protocol: Sequence[int],
        packets: Sequence[int],
        bytes_: Sequence[int],
        start: Sequence[float] | None = None,
        label: Sequence[int] | None = None,
    ) -> "FlowTable":
        """Build a table from parallel sequences (timestamps default to 0,
        labels default to baseline)."""
        n = len(src_ip)
        if start is None:
            start = np.zeros(n, dtype=np.float64)
        if label is None:
            label = np.full(n, BASELINE_LABEL, dtype=np.int64)
        return cls(
            {
                "src_ip": np.asarray(src_ip),
                "dst_ip": np.asarray(dst_ip),
                "src_port": np.asarray(src_port),
                "dst_port": np.asarray(dst_port),
                "protocol": np.asarray(protocol),
                "packets": np.asarray(packets),
                "bytes": np.asarray(bytes_),
                "start": np.asarray(start),
                "label": np.asarray(label),
            }
        )

    @classmethod
    def from_rows(cls, rows: np.ndarray) -> "FlowTable":
        """Build a table from a :data:`ROW_DTYPE` record array.

        Each field is copied out to its own contiguous column: the
        packed record layout is right for decoding, not for the
        column-wise hashing and masking done downstream.
        """
        return cls(
            {name: np.ascontiguousarray(rows[name]) for name in ALL_COLUMNS}
        )

    @classmethod
    def from_records(cls, records: Iterable[FlowRecord]) -> "FlowTable":
        """Build a table from an iterable of :class:`FlowRecord`."""
        rows = list(records)
        return cls.from_arrays(
            [r.src_ip for r in rows],
            [r.dst_ip for r in rows],
            [r.src_port for r in rows],
            [r.dst_port for r in rows],
            [r.protocol for r in rows],
            [r.packets for r in rows],
            [r.bytes for r in rows],
            [r.start for r in rows],
            [r.label for r in rows],
        )

    @classmethod
    def empty(cls) -> "FlowTable":
        """A table with zero flows."""
        return cls.from_arrays([], [], [], [], [], [], [])

    @classmethod
    def from_state(cls, state: Mapping[str, Sequence]) -> "FlowTable":
        """Rebuild a table from :meth:`to_state` plain data."""
        return cls(
            read_fields("table state", state, FlowError, **_COLUMN_KINDS)
        )

    @classmethod
    def concat(cls, tables: Sequence["FlowTable"]) -> "FlowTable":
        """Concatenate several tables preserving row order."""
        if not tables:
            return cls.empty()
        return cls(
            {
                name: np.concatenate([t._cols[name] for t in tables])
                for name in ALL_COLUMNS
            }
        )

    # ------------------------------------------------------------------
    # Column access
    # ------------------------------------------------------------------
    def column(self, name: str) -> np.ndarray:
        """Return the named column as a read-only numpy array."""
        try:
            return self._cols[name]
        except KeyError as exc:
            raise FlowError(f"unknown column {name!r}") from exc

    @property
    def src_ip(self) -> np.ndarray:
        return self._cols["src_ip"]

    @property
    def dst_ip(self) -> np.ndarray:
        return self._cols["dst_ip"]

    @property
    def src_port(self) -> np.ndarray:
        return self._cols["src_port"]

    @property
    def dst_port(self) -> np.ndarray:
        return self._cols["dst_port"]

    @property
    def protocol(self) -> np.ndarray:
        return self._cols["protocol"]

    @property
    def packets(self) -> np.ndarray:
        return self._cols["packets"]

    @property
    def bytes(self) -> np.ndarray:
        return self._cols["bytes"]

    @property
    def start(self) -> np.ndarray:
        return self._cols["start"]

    @property
    def label(self) -> np.ndarray:
        return self._cols["label"]

    # ------------------------------------------------------------------
    # Row access / slicing
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._cols["src_ip"])

    def row(self, index: int) -> FlowRecord:
        """Materialize one row as a :class:`FlowRecord`."""
        if not -len(self) <= index < len(self):
            raise FlowError(f"row index {index} out of range for {len(self)} flows")
        return FlowRecord(
            src_ip=int(self._cols["src_ip"][index]),
            dst_ip=int(self._cols["dst_ip"][index]),
            src_port=int(self._cols["src_port"][index]),
            dst_port=int(self._cols["dst_port"][index]),
            protocol=int(self._cols["protocol"][index]),
            packets=int(self._cols["packets"][index]),
            bytes=int(self._cols["bytes"][index]),
            start=float(self._cols["start"][index]),
            label=int(self._cols["label"][index]),
        )

    def __iter__(self) -> Iterator[FlowRecord]:
        for i in range(len(self)):
            yield self.row(i)

    def select(self, mask_or_indices: np.ndarray) -> "FlowTable":
        """Return a new table with the rows selected by a boolean mask or an
        integer index array.

        A mask is turned into row indices once: indexing each column by
        the mask would scan it again per column.
        """
        sel = np.asarray(mask_or_indices)
        if sel.dtype == bool:
            if len(sel) != len(self):
                raise FlowError(
                    f"boolean mask length {len(sel)} != table length {len(self)}"
                )
            sel = np.flatnonzero(sel)
        return FlowTable({name: col[sel] for name, col in self._cols.items()})

    def row_range(self, lo: int, hi: int) -> "FlowTable":
        """Rows ``lo:hi`` as a table sharing this table's memory.

        Each column is a read-only slice of this table's column, so the
        cut copies no row; the whole table is returned as itself.
        """
        if not 0 <= lo <= hi <= len(self):
            raise FlowError(
                f"row range {lo}:{hi} out of range for {len(self)} flows"
            )
        if lo == 0 and hi == len(self):
            return self
        table = FlowTable.__new__(FlowTable)
        table._cols = {name: col[lo:hi] for name, col in self._cols.items()}
        table._state_cache = None
        return table

    def sort_by_start(self) -> "FlowTable":
        """Return a copy ordered by flow start time (stable)."""
        order = np.argsort(self._cols["start"], kind="stable")
        return self.select(order)

    # ------------------------------------------------------------------
    # Ground truth helpers
    # ------------------------------------------------------------------
    @property
    def anomalous_mask(self) -> np.ndarray:
        """Boolean mask of rows belonging to injected events."""
        return self._cols["label"] != BASELINE_LABEL

    def event_labels(self) -> np.ndarray:
        """Sorted unique event ids present (excluding baseline)."""
        labels = np.unique(self._cols["label"])
        return labels[labels != BASELINE_LABEL]

    def flows_of_event(self, event_id: int) -> "FlowTable":
        """All flows carrying the given ground-truth event id."""
        return self.select(self._cols["label"] == event_id)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def to_state(self) -> dict[str, dict[str, str]]:
        """Plain-data column rendering for durable checkpoints.

        Each column becomes a :func:`pack_array` document (dtype tag +
        base64 buffer), so the dict is JSON-serializable, rebuilds a
        value-identical table through :meth:`from_state`, and costs a
        fraction of a JSON number list to serialize.  The rendering is
        memoized: columns are frozen at construction, and the service
        checkpoints the same assembler parts and miner window batches
        interval after interval, so every table pays the packing cost
        once.  Callers must treat the returned dict as immutable.
        """
        if self._state_cache is None:
            self._state_cache = {
                name: pack_array(self._cols[name]) for name in ALL_COLUMNS
            }
        return self._state_cache

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def summary(self) -> dict[str, float]:
        """Cheap descriptive statistics used by reports and the CLI."""
        n = len(self)
        if n == 0:
            return {"flows": 0, "packets": 0, "bytes": 0, "anomalous": 0}
        return {
            "flows": n,
            "packets": int(self._cols["packets"].sum()),
            "bytes": int(self._cols["bytes"].sum()),
            "anomalous": int(self.anomalous_mask.sum()),
            "unique_src_ips": int(len(np.unique(self._cols["src_ip"]))),
            "unique_dst_ips": int(len(np.unique(self._cols["dst_ip"]))),
        }

    def __repr__(self) -> str:
        return f"FlowTable(n={len(self)}, anomalous={int(self.anomalous_mask.sum())})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlowTable):
            return NotImplemented
        return all(
            np.array_equal(self._cols[name], other._cols[name])
            for name in ALL_COLUMNS
        )

    def __hash__(self) -> int:  # tables are mutable containers of arrays
        raise TypeError("FlowTable is unhashable")
