"""Interval windowing of flow traces.

The detectors of the paper operate on fixed-length measurement intervals
(Section II-C; 5–15 minutes in the evaluation).  This module slices a
:class:`~repro.flows.table.FlowTable` spanning a long capture into a
sequence of :class:`IntervalView` windows keyed by interval index, and
owns the grid rule (:func:`check_grid`) and the gap bound
(:func:`check_gap`) every other interval source calls.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError, FlowError, ReproError
from repro.flows.table import FlowTable

#: Default interval length used throughout the evaluation (15 minutes).
DEFAULT_INTERVAL_SECONDS = 900.0

#: How far an occupied interval may lie past the one before it (or past
#: interval 0), since every interval between is emitted: ~2.8 years of
#: 900 s intervals, far below the ~2M a mis-set origin produces.
MAX_GAP_INTERVALS = 100_000

#: The half-open float range whose floors cast to int64 exactly.
_INT64_LO = float(np.iinfo(np.int64).min)
_INT64_HI = -_INT64_LO


def check_grid(interval_seconds: float, origin: float = 0.0) -> None:
    """Refuse an interval grid no flow can be placed on: a length that
    is not finite and positive, or an origin that is not finite."""
    if not (math.isfinite(interval_seconds) and interval_seconds > 0):
        raise ConfigError(
            f"interval length must be finite and positive: {interval_seconds}"
        )
    if not math.isfinite(origin):
        raise ConfigError(f"origin must be finite: {origin}")


def check_gap(
    subject: str, interval: int, cursor: int, past: str,
    error: type[ReproError] = ConfigError,
) -> None:
    """Refuse ``subject`` at ``interval`` when it lies more than
    :data:`MAX_GAP_INTERVALS` past ``cursor`` (named ``past``)."""
    jump = interval - cursor
    if jump > MAX_GAP_INTERVALS:
        raise error(
            f"{subject} at interval {interval} jumps {jump} intervals past "
            f"{past} (> max_gap_intervals={MAX_GAP_INTERVALS}); check the "
            f"origin, the interval length and the timestamp units (epoch "
            f"seconds vs milliseconds)"
        )


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

    @classmethod
    def on_grid(
        cls, index: int, flows: FlowTable, interval_seconds: float,
        origin: float,
    ) -> IntervalView:
        """View ``index`` of the grid: ``[origin + index * L, origin +
        (index + 1) * L)``."""
        return cls(
            index,
            origin + index * interval_seconds,
            origin + (index + 1) * interval_seconds,
            flows,
        )


def interval_index(
    timestamps: np.ndarray, origin: float, interval_seconds: float
) -> np.ndarray:
    """Vectorized mapping of timestamps to interval indices.

    The grid is held to :func:`check_grid`.  A timestamp whose index is
    not finite (NaN, an infinity) or does not fit in int64 (``1e300``)
    is refused with :class:`FlowError` naming the first such row -
    before the caller has buffered anything.
    """
    check_grid(interval_seconds, origin)
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


def _earliest_start(trace: FlowTable) -> float:
    """The default origin: the earliest *finite* start (0.0 if none) -
    a non-finite one is refused by :func:`interval_index` by row."""
    timestamps = trace.start
    lowest = np.min(timestamps, initial=np.inf, where=np.isfinite(timestamps))
    return float(lowest) if lowest < np.inf else 0.0


def iter_intervals(
    trace: FlowTable,
    interval_seconds: float = DEFAULT_INTERVAL_SECONDS,
    origin: float | None = None,
) -> Iterator[IntervalView]:
    """Slice ``trace`` into consecutive fixed-length intervals.

    Args:
        trace: flows to window; they need not be sorted.
        interval_seconds: window length ``L`` (paper default: 900 s).
        origin: time of interval 0; defaults to the earliest flow start.

    Yields:
        :class:`IntervalView` for every interval from 0 to the last
        occupied one, empty ones included, so the detector time series
        stays contiguous.  On a trace whose rows are in time order each
        view's flows share the trace's memory
        (:meth:`FlowTable.row_range`); otherwise they are copied out.
        The grid and the gaps are checked before the first view.
    """
    check_grid(interval_seconds, 0.0 if origin is None else origin)
    if len(trace) == 0:
        return
    if origin is None:
        origin = _earliest_start(trace)
    indices = interval_index(trace.start, origin, interval_seconds)
    order, keys, starts, stops = interval_runs(indices)
    if keys[0] < 0:
        raise ConfigError(
            "origin is later than the earliest flow; intervals would be negative"
        )
    # Sorted and non-negative, so no step wraps int64.
    steps = np.diff(keys, prepend=0)
    widest = int(steps.argmax())
    previous = keys[widest] - int(steps[widest])
    check_gap("flow", keys[widest], previous, f"interval {previous}")
    # The contiguous run of rows of each interval that has any.
    runs = dict(zip(keys, zip(starts, stops)))
    for k in range(keys[-1] + 1):
        lo, hi = runs.get(k, (0, 0))
        flows = take_run(trace, order, lo, hi)
        yield IntervalView.on_grid(k, flows, interval_seconds, origin)


def interval_of(
    trace: FlowTable,
    index: int,
    interval_seconds: float = DEFAULT_INTERVAL_SECONDS,
    origin: float | None = None,
) -> IntervalView:
    """Extract a single interval by index without building the others:
    the rows :func:`iter_intervals` puts in view ``index``."""
    if index < 0:
        raise ConfigError(f"interval index must be >= 0: {index}")
    if len(trace) == 0:
        raise ConfigError("cannot index intervals of an empty trace")
    if origin is None:
        origin = _earliest_start(trace)
    mask = interval_index(trace.start, origin, interval_seconds) == index
    return IntervalView.on_grid(
        index, trace.select(mask), interval_seconds, origin
    )
