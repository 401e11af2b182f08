"""Watermark-driven interval assembly over a chunked flow stream.

:class:`IntervalAssembler` is the streaming counterpart of
:func:`repro.flows.stream.iter_intervals`: it consumes arbitrary
:class:`~repro.flows.table.FlowTable` chunks (e.g. from
:func:`repro.flows.io.iter_csv`) and emits completed
:class:`~repro.flows.stream.IntervalView` windows in strictly increasing
interval order without ever materializing the whole trace.

Completion is decided by a *watermark* - the largest flow start time
seen so far.  Interval ``k`` (covering ``[start_k, end_k)``) is complete
once the watermark reaches ``end_k + max_delay_seconds``, so records
that arrive out of order within the lateness allowance still land in
the right window.  Records older than an already-emitted interval are
counted in :attr:`IntervalAssembler.late_dropped` rather than
corrupting downstream detector state.  A bounded number of intervals
may be held open at once (``max_pending_intervals``); when a burst of
out-of-order data would exceed it, the oldest pending interval is
force-emitted (backpressure), trading lateness tolerance for bounded
memory.

Within each interval, flows keep their arrival order - the same order
:func:`iter_intervals` produces with its stable sort - which is what
makes a chunked stream's output byte-identical to
:func:`repro.api.extract` on the same trace.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from repro.errors import CheckpointError, ConfigError
from repro.flows.stream import (
    DEFAULT_INTERVAL_SECONDS,
    IntervalView,
    check_gap,
    check_grid,
    interval_index,
    interval_runs,
    take_run,
)
from repro.flows.table import FlowTable
from repro.obs.instruments import PipelineInstruments
from repro.obs.metrics import NULL_REGISTRY
from repro.obs.trace import NULL_TRACER
from repro.state import count, finite, integer, listof, optional, read_fields, tupleof

#: The kind of every :meth:`IntervalAssembler.to_state` field.
_STATE_KINDS = {
    "pending": listof(tupleof(count, listof(FlowTable.from_state))),
    "next_emit": count,
    "highest_seen": integer(-1),
    "watermark": optional(finite),
    "flows_seen": count,
    "late_dropped_pre_origin": count,
    "late_dropped_closed": count,
    "backpressure_emits": count,
    "intervals_emitted": count,
}


class PushCursor(NamedTuple):
    """What decides whether :meth:`IntervalAssembler.push` accepts a
    chunk, and what an accepted push moves."""

    next_emit: int
    highest_seen: int
    watermark: float
    #: Whether any flow has been accepted (a pre-origin flow is then a
    #: late drop, not a misconfigured origin).
    started: bool


def _guard(low: int, high: int, next_emit: int, started: bool) -> None:
    """Refuse a chunk whose interval indices span ``low..high``."""
    if low < 0 and not started:
        raise ConfigError(
            "origin is later than the earliest flow; intervals would "
            "be negative"
        )
    check_gap("flow", high, next_emit, "the emit cursor")


class IntervalAssembler:
    """Bin chunked flow records into completed measurement intervals.

    The grid follows the rules of :func:`iter_intervals`:
    :func:`~repro.flows.stream.check_grid` at construction, and
    :func:`~repro.flows.stream.check_gap` on every push - a flow more
    than ``MAX_GAP_INTERVALS`` past the emit cursor (epoch timestamps
    against ``origin=0.0``, milliseconds for seconds) is refused
    before anything is buffered.

    Args:
        interval_seconds: window length ``L`` (paper default: 900 s).
        origin: time of interval 0.  Unlike :func:`iter_intervals`
            the origin cannot default to the earliest flow (the stream has no
            "earliest" until it ends), so it must be known up front;
            the CLI and :func:`repro.api.stream` default to 0.0.
        max_delay_seconds: lateness allowance.  Interval ``k`` stays
            open until a flow with start time ``>= end_k + max_delay``
            arrives (or the stream is flushed).
        max_pending_intervals: maximum intervals held open at once;
            ``None`` means unbounded.  Exceeding it force-emits the
            oldest pending interval.
        instruments: optional
            :class:`~repro.obs.instruments.PipelineInstruments` bundle;
            the assembler keeps its accepted/late-drop/backpressure
            counters and pending/watermark gauges current.  Defaults to
            a no-op bundle.
        tracer: optional :class:`~repro.obs.trace.Tracer`; watermark
            advances, late drops, and backpressure force-emits are
            recorded as events on the ambient span (the session's
            ``stage.binning``).  Defaults to the no-op
            :data:`~repro.obs.trace.NULL_TRACER`.
    """

    def __init__(
        self,
        interval_seconds: float = DEFAULT_INTERVAL_SECONDS,
        origin: float = 0.0,
        max_delay_seconds: float = 0.0,
        max_pending_intervals: int | None = None,
        instruments: PipelineInstruments | None = None,
        tracer=None,
    ):
        check_grid(interval_seconds, origin)
        if not math.isfinite(max_delay_seconds) or max_delay_seconds < 0:
            raise ConfigError(
                f"max_delay_seconds must be finite and >= 0: "
                f"{max_delay_seconds}"
            )
        if max_pending_intervals is not None and max_pending_intervals < 1:
            raise ConfigError(
                f"max_pending_intervals must be >= 1: {max_pending_intervals}"
            )
        self.interval_seconds = float(interval_seconds)
        self.origin = float(origin)
        self.max_delay_seconds = float(max_delay_seconds)
        self.max_pending_intervals = max_pending_intervals
        self._instruments = (
            instruments
            if instruments is not None
            else PipelineInstruments(NULL_REGISTRY)
        )
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._pending: dict[int, list[FlowTable]] = {}
        self._next_emit = 0
        self._highest_seen = -1
        self._watermark = -math.inf
        #: Total flows accepted (late drops excluded).
        self.flows_seen = 0
        #: Flows dropped because they started before interval 0 (a
        #: stream whose origin post-dates some of its data).
        self.late_dropped_pre_origin = 0
        #: Flows dropped because their interval had already been
        #: emitted past the lateness allowance - the drops that
        #: ``max_delay_seconds`` / ``max_pending_intervals`` tuning can
        #: actually recover.
        self.late_dropped_closed = 0
        #: Intervals force-emitted because ``max_pending_intervals``
        #: was exceeded (backpressure).
        self.backpressure_emits = 0
        #: Intervals emitted so far (including empty gap intervals).
        self.intervals_emitted = 0

    @property
    def late_dropped(self) -> int:
        """Total flows dropped as late (both reasons).

        Historically a single counter; it conflated flows that predate
        interval 0 (a bad origin - no tuning recovers those) with flows
        that missed an already-closed interval (which a larger
        ``max_delay_seconds`` would have caught).  The split lives in
        :attr:`late_dropped_pre_origin` / :attr:`late_dropped_closed`;
        this property keeps the historical total readable.
        """
        return self.late_dropped_pre_origin + self.late_dropped_closed

    # ------------------------------------------------------------------
    @property
    def pending_intervals(self) -> int:
        """Intervals currently held open (emit cursor to highest seen)."""
        if self._highest_seen < self._next_emit:
            return 0
        return self._highest_seen - self._next_emit + 1

    @property
    def pending_flows(self) -> int:
        """Flows buffered in not-yet-complete intervals."""
        return sum(
            len(part) for parts in self._pending.values() for part in parts
        )

    @property
    def watermark(self) -> float:
        """Largest flow start time seen (-inf before any flow)."""
        return self._watermark

    @property
    def next_interval(self) -> int:
        """Index of the next interval to emit (the emit cursor)."""
        return self._next_emit

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """JSON-safe snapshot of the assembler's mutable state.

        Configuration (interval length, origin, lateness) is NOT part
        of the state - it comes from the constructor, so a restored
        assembler must be built with the same knobs.  The pending bins
        are serialized as ``[interval, [chunk columns, ...]]`` pairs
        (JSON objects cannot key on ints), preserving per-interval
        chunk arrival order - the property that keeps resumed output
        byte-identical.
        """
        return {
            "pending": [
                [k, [part.to_state() for part in parts]]
                for k, parts in sorted(self._pending.items())
            ],
            "next_emit": self._next_emit,
            "highest_seen": self._highest_seen,
            "watermark": (
                self._watermark if math.isfinite(self._watermark) else None
            ),
            "flows_seen": self.flows_seen,
            "late_dropped_pre_origin": self.late_dropped_pre_origin,
            "late_dropped_closed": self.late_dropped_closed,
            "backpressure_emits": self.backpressure_emits,
            "intervals_emitted": self.intervals_emitted,
        }

    def from_state(self, state: dict) -> None:
        """Restore :meth:`to_state` data into this assembler.

        Replaces the mutable state wholesale; the assembler should be
        freshly constructed (with the same configuration the snapshot
        was taken under).
        """
        fields = read_fields(
            "assembler checkpoint state", state, CheckpointError,
            **_STATE_KINDS,
        )
        pending = dict(fields["pending"])
        next_emit, highest_seen = fields["next_emit"], fields["highest_seen"]
        # Each refusal is a document that would lose flows silently:
        # a repeated interval's earlier rows, an interval behind the
        # emit cursor that is never emitted, or one past the highest
        # seen that no drain reaches.
        if len(pending) != len(fields["pending"]):
            raise CheckpointError(
                "malformed assembler checkpoint state: pending names an "
                "interval more than once"
            )
        if pending and min(pending) < next_emit:
            raise CheckpointError(
                f"malformed assembler checkpoint state: pending interval "
                f"{min(pending)} is below next_emit {next_emit}"
            )
        if pending and max(pending) > highest_seen:
            raise CheckpointError(
                f"malformed assembler checkpoint state: pending interval "
                f"{max(pending)} is above highest_seen {highest_seen}"
            )
        self._pending = pending
        self._next_emit = next_emit
        self._highest_seen = highest_seen
        watermark = fields["watermark"]
        self._watermark = -math.inf if watermark is None else watermark
        self.flows_seen = fields["flows_seen"]
        self.late_dropped_pre_origin = fields["late_dropped_pre_origin"]
        self.late_dropped_closed = fields["late_dropped_closed"]
        self.backpressure_emits = fields["backpressure_emits"]
        self.intervals_emitted = fields["intervals_emitted"]
        self._update_gauges()

    # ------------------------------------------------------------------
    def push(self, chunk: FlowTable) -> list[IntervalView]:
        """Absorb one chunk; return the intervals it completed, in order.

        A flow starting before the configured origin raises
        :class:`ConfigError` (matching :func:`iter_intervals`) only
        while no flow has been accepted yet - that is a misconfigured
        origin.  Once any data is in, a pre-origin flow is just an
        extreme late arrival and is counted in :attr:`late_dropped`
        like any other, without aborting the run or discarding the
        chunk's valid rows.
        """
        if len(chunk) == 0:
            return []
        timestamps = chunk.start
        indices = interval_index(
            timestamps, self.origin, self.interval_seconds
        )
        # One split into per-interval runs, arrival order kept inside
        # each (the iter_intervals split): a time-ordered chunk is cut
        # into row ranges of itself, only a disordered one is copied.
        order, keys, starts, stops = interval_runs(indices)
        # Guard before buffering anything, so a rejected push leaves the
        # assembler untouched and the caller can drop the chunk and
        # continue.
        _guard(keys[0], keys[-1], self._next_emit, self.flows_seen > 0)
        for k, lo, hi in zip(keys, starts, stops):
            rows = hi - lo
            if k < self._next_emit:
                if k < 0:
                    self.late_dropped_pre_origin += rows
                    self._instruments.late_pre_origin.inc(rows)
                    self._tracer.event(
                        "assembler.late_drop",
                        reason="pre_origin",
                        rows=rows,
                    )
                else:
                    self.late_dropped_closed += rows
                    self._instruments.late_closed.inc(rows)
                    self._tracer.event(
                        "assembler.late_drop",
                        reason="closed_interval",
                        rows=rows,
                        interval=k,
                    )
                continue
            self._pending.setdefault(k, []).append(
                take_run(chunk, order, lo, hi)
            )
            self.flows_seen += rows
            self._instruments.assembler_accepted.inc(rows)
            if k > self._highest_seen:
                self._highest_seen = k
        advanced = max(self._watermark, float(timestamps.max()))
        if advanced > self._watermark:
            self._watermark = advanced
            self._tracer.event("assembler.watermark", watermark=advanced)
        return self._drain()

    def check(
        self, chunk: FlowTable, cursor: PushCursor | None = None
    ) -> PushCursor:
        """Refuse ``chunk`` exactly as :meth:`push` would from
        ``cursor`` (default: where this assembler stands), changing
        nothing, and return the cursor that push would leave.  Chained,
        it checks a batch of chunks before the first is pushed."""
        at = self.cursor if cursor is None else cursor
        if len(chunk) == 0:
            return at
        indices = interval_index(chunk.start, self.origin, self.interval_seconds)
        low, high = int(indices.min()), int(indices.max())
        _guard(low, high, at.next_emit, at.started)
        next_emit, highest_seen = at.next_emit, max(at.highest_seen, high)
        watermark = max(at.watermark, float(chunk.start.max()))
        while next_emit <= highest_seen and any(
            self._closes(next_emit, highest_seen, watermark)
        ):
            next_emit += 1
        return PushCursor(
            next_emit, highest_seen, watermark, at.started or high >= at.next_emit
        )

    @property
    def cursor(self) -> PushCursor:
        """Where this assembler stands (see :meth:`check`)."""
        return PushCursor(
            self._next_emit, self._highest_seen, self._watermark,
            self.flows_seen > 0,
        )

    def flush(self) -> list[IntervalView]:
        """Emit every pending interval (end of stream).

        Trailing records held back by the lateness allowance are
        released, so after ``flush`` the assembler has emitted exactly
        the intervals :func:`iter_intervals` would have produced.  The
        assembler stays usable: later pushes for already-flushed
        intervals count as late drops.
        """
        return self._drain(force_all=True)

    # ------------------------------------------------------------------
    def _drain(self, force_all: bool = False) -> list[IntervalView]:
        completed: list[IntervalView] = []
        while self._next_emit <= self._highest_seen:
            due, forced = self._closes(
                self._next_emit, self._highest_seen, self._watermark
            )
            if not (due or forced or force_all):
                break
            if forced and not due and not force_all:
                self.backpressure_emits += 1
                self._instruments.backpressure.inc()
                self._tracer.event(
                    "assembler.backpressure", interval=self._next_emit
                )
            completed.append(self._emit_next())
        self._update_gauges()
        return completed

    def _closes(
        self, k: int, highest_seen: int, watermark: float
    ) -> tuple[bool, bool]:
        """Whether pending interval ``k`` is due (the watermark passed
        its end plus the lateness allowance) and whether backpressure
        forces it out (more than ``max_pending_intervals`` open)."""
        end = self.origin + (k + 1) * self.interval_seconds
        due = watermark >= end + self.max_delay_seconds
        forced = (
            self.max_pending_intervals is not None
            and highest_seen - k + 1 > self.max_pending_intervals
        )
        return due, forced

    def _update_gauges(self) -> None:
        ins = self._instruments
        ins.pending_intervals.set(self.pending_intervals)
        ins.pending_flows.set(self.pending_flows)
        if math.isfinite(self._watermark):
            cursor = self.origin + self._next_emit * self.interval_seconds
            ins.watermark_lag.set(max(0.0, self._watermark - cursor))

    def _emit_next(self) -> IntervalView:
        k = self._next_emit
        parts = self._pending.pop(k, [])
        if len(parts) == 1:
            flows = parts[0]
        else:
            flows = FlowTable.concat(parts)
        view = IntervalView.on_grid(
            k, flows, self.interval_seconds, self.origin
        )
        self._next_emit = k + 1
        self.intervals_emitted += 1
        return view

    def __repr__(self) -> str:
        return (
            f"IntervalAssembler(interval_seconds={self.interval_seconds}, "
            f"pending={self.pending_intervals}, emitted="
            f"{self.intervals_emitted}, late_dropped={self.late_dropped})"
        )
