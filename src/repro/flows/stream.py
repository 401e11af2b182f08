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
        quotient = np.subtract(timestamps, origin)
        np.divide(quotient, interval_seconds, out=quotient)
        np.floor(quotient, out=quotient)
    # NaN fails both comparisons, and min / max carry it through; the
    # elementwise test runs only to name the row.
    lowest = quotient.min(initial=np.inf)
    highest = quotient.max(initial=-np.inf)
    if not (lowest >= _INT64_LO and highest < _INT64_HI):
        fits = (quotient >= _INT64_LO) & (quotient < _INT64_HI)
        row = int(np.argmin(fits))
        raise FlowError(
            f"row {row}: start timestamp {float(timestamps[row])!r} has no "
            f"interval index (origin {origin!r}, interval length "
            f"{interval_seconds!r} s)"
        )
    return quotient.astype(np.int64)


def interval_runs(
    indices: np.ndarray,
) -> tuple[np.ndarray | None, list[int], list[int], list[int]]:
    """Split rows into runs of one interval index each.

    Runs come in increasing index order, rows in arrival order inside a
    run (a stable sort).  Returns ``(order, keys, starts, stops)``: run
    ``i`` has index ``keys[i]`` and holds rows
    ``order[starts[i]:stops[i]]``.  Indices that never decrease - every
    time-ordered trace or chunk - are their own stable sort, so
    ``order`` is then None and run ``i`` is rows ``starts[i]:stops[i]``
    (see :func:`take_run`).  ``indices`` must not be empty.
    """
    # Compared, not differenced: the difference of two far-apart int64
    # indices can wrap and read as a step up.
    order: np.ndarray | None = None
    ordered = indices
    if not (indices[:-1] <= indices[1:]).all():
        order = np.argsort(indices, kind="stable")
        ordered = indices[order]
    elif indices[0] == indices[-1]:
        # Never decreasing with equal ends: one run, the whole input.
        return None, [int(indices[0])], [0], [len(indices)]
    cuts = np.flatnonzero(ordered[:-1] != ordered[1:]) + 1
    starts = np.concatenate(([0], cuts))
    stops = np.concatenate((cuts, [len(ordered)]))
    return order, ordered[starts].tolist(), starts.tolist(), stops.tolist()


def take_run(
    table: FlowTable, order: np.ndarray | None, lo: int, hi: int
) -> FlowTable:
    """The rows ``lo:hi`` of an :func:`interval_runs` split of
    ``table``: shared with ``table`` when the split needed no sort,
    copied out through the permutation when it did."""
    if order is None:
        return table.row_range(lo, hi)
    return table.select(order[lo:hi])


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
        :class:`IntervalView` in increasing interval order.  On a trace
        whose rows are in time order each view's flows share the
        trace's memory (:meth:`FlowTable.row_range`); otherwise they
        are copied out.
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
    order, keys, starts, stops = interval_runs(indices)
    if keys[0] < 0:
        raise ConfigError(
            "origin is later than the earliest flow; intervals would be negative"
        )
    # The contiguous run of rows of each interval that has any: sized
    # by the rows, not by the index span, so a far timestamp costs no
    # memory here.
    runs = dict(zip(keys, zip(starts, stops)))
    for k in range(keys[-1] + 1) if include_empty else runs:
        lo, hi = runs.get(k, (0, 0))
        yield IntervalView(
            index=k,
            start=origin + k * interval_seconds,
            end=origin + (k + 1) * interval_seconds,
            flows=take_run(trace, order, lo, hi),
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
