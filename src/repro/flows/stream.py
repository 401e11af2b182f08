"""Interval windowing of flow traces.

The detectors of the paper operate on fixed-length measurement intervals
(Section II-C; 5–15 minutes in the evaluation).  This module slices a
:class:`~repro.flows.table.FlowTable` spanning a long capture into a
sequence of :class:`IntervalView` windows keyed by interval index.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError, FlowError
from repro.flows.table import FlowTable

#: Default interval length used throughout the evaluation (15 minutes).
DEFAULT_INTERVAL_SECONDS = 900.0

#: The half-open float range whose floors cast to int64 exactly.
_INT64_LO = float(np.iinfo(np.int64).min)
_INT64_HI = -_INT64_LO


@dataclass(frozen=True, slots=True)
class IntervalView:
    """One measurement interval of a trace.

    Attributes:
        index: zero-based interval number within the trace.
        start: inclusive interval start time in seconds.
        end: exclusive interval end time in seconds.
        flows: the flows whose start timestamp falls inside the window.
    """

    index: int
    start: float
    end: float
    flows: FlowTable

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __len__(self) -> int:
        return len(self.flows)


def interval_index(
    timestamps: np.ndarray, origin: float, interval_seconds: float
) -> np.ndarray:
    """Vectorized mapping of timestamps to interval indices.

    A timestamp whose index is not finite (NaN, an infinity) or does not
    fit in int64 (``1e300``) is refused with :class:`FlowError` naming
    the first such row - before the caller has buffered anything.
    """
    if interval_seconds <= 0:
        raise ConfigError(f"interval length must be positive: {interval_seconds}")
    with np.errstate(invalid="ignore", over="ignore"):
        quotient = np.floor((timestamps - origin) / interval_seconds)
    # NaN fails both comparisons.
    fits = (quotient >= _INT64_LO) & (quotient < _INT64_HI)
    if not fits.all():
        row = int(np.argmin(fits))
        raise FlowError(
            f"row {row}: start timestamp {float(timestamps[row])!r} has no "
            f"interval index (origin {origin!r}, interval length "
            f"{interval_seconds!r} s)"
        )
    return quotient.astype(np.int64)


def iter_intervals(
    trace: FlowTable,
    interval_seconds: float = DEFAULT_INTERVAL_SECONDS,
    origin: float | None = None,
    include_empty: bool = True,
) -> Iterator[IntervalView]:
    """Slice ``trace`` into consecutive fixed-length intervals.

    Args:
        trace: flows to window; they need not be sorted.
        interval_seconds: window length ``L`` (paper default: 900 s).
        origin: time of interval 0; defaults to the earliest flow start.
        include_empty: also yield intervals that contain no flows, so the
            detector time series stays contiguous.

    Yields:
        :class:`IntervalView` in increasing interval order.
    """
    if interval_seconds <= 0:
        raise ConfigError(f"interval length must be positive: {interval_seconds}")
    if len(trace) == 0:
        return
    timestamps = trace.start
    if origin is None:
        # The earliest *finite* start: a NaN or infinite one is refused
        # by interval_index under its own row number.
        origin = float(
            np.min(timestamps, initial=np.inf, where=np.isfinite(timestamps))
        )
    indices = interval_index(timestamps, origin, interval_seconds)
    if indices.min() < 0:
        raise ConfigError(
            "origin is later than the earliest flow; intervals would be negative"
        )
    order = np.argsort(indices, kind="stable")
    sorted_idx = indices[order]
    # The contiguous run of rows of each interval that has any: sized
    # by the rows, not by the index span, so a far timestamp costs no
    # memory here.
    cuts = np.flatnonzero(np.diff(sorted_idx)) + 1
    starts = np.concatenate(([0], cuts)).tolist()
    stops = np.concatenate((cuts, [len(order)])).tolist()
    runs = dict(zip(sorted_idx[starts].tolist(), zip(starts, stops)))
    for k in range(int(sorted_idx[-1]) + 1) if include_empty else runs:
        lo, hi = runs.get(k, (0, 0))
        yield IntervalView(
            index=k,
            start=origin + k * interval_seconds,
            end=origin + (k + 1) * interval_seconds,
            flows=trace.select(order[lo:hi]),
        )


def interval_of(
    trace: FlowTable,
    index: int,
    interval_seconds: float = DEFAULT_INTERVAL_SECONDS,
    origin: float | None = None,
) -> IntervalView:
    """Extract a single interval by index without walking the full trace."""
    if interval_seconds <= 0:
        raise ConfigError(f"interval length must be positive: {interval_seconds}")
    if index < 0:
        raise ConfigError(f"interval index must be >= 0: {index}")
    if len(trace) == 0:
        raise ConfigError("cannot index intervals of an empty trace")
    if origin is None:
        origin = float(trace.start.min())
    lo = origin + index * interval_seconds
    hi = lo + interval_seconds
    mask = (trace.start >= lo) & (trace.start < hi)
    return IntervalView(index=index, start=lo, end=hi, flows=trace.select(mask))
