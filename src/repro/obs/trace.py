"""Dependency-free span tracing: where did this interval's time go?

The metrics core (:mod:`repro.obs.metrics`) answers *how many* and
*how fast* in aggregate; this module answers *what happened inside one
run*: a :class:`Tracer` records a tree of :class:`Span` objects
(trace/span/parent ids, attributes, timestamped events) that the
exporters render as a JSONL trail, a Chrome trace-event document
(loadable in Perfetto / ``chrome://tracing``), or an indented text
tree.

The house invariant carries over from metrics: instrumented code never
branches on whether tracing is enabled.  :data:`NULL_TRACER` mirrors
:data:`~repro.obs.metrics.NULL_REGISTRY` - it hands out a shared
:data:`NULL_SPAN` whose every method is a no-op, so ``with
tracer.span("stage.mining"):`` costs a few attribute lookups when
tracing is off and extraction output is byte-identical either way.

Propagation is ambient: entering a span (or its :meth:`Span.active`
context) sets a :mod:`contextvars` variable, and new spans parent to
the current one by default.  Span and event names come from the shared
catalog in :mod:`repro.obs.instruments` (``SPANS`` / ``EVENTS``),
enforced by ``tests/invariants/test_catalog_hygiene.py``.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from collections.abc import Callable, Iterator, Mapping
from contextvars import ContextVar, Token
from typing import Union

__all__ = [
    "NULL_SPAN",
    "NULL_TRACER",
    "NullSpan",
    "NullTracer",
    "Span",
    "SpanEvent",
    "Tracer",
    "render_trace",
    "render_trace_chrome",
    "render_trace_jsonl",
    "render_trace_text",
]

#: Attribute values a span records (JSON-representable scalars).
AttrValue = Union[str, int, float, bool, None]

#: The ambient span new spans parent to (set by ``with span`` /
#: ``span.active()``; never holds a :class:`NullSpan`).
_CURRENT: ContextVar["Span | None"] = ContextVar(
    "repro_current_span", default=None
)


class SpanEvent:
    """One timestamped point annotation inside a span."""

    __slots__ = ("attributes", "name", "time")

    def __init__(
        self, name: str, when: float, attributes: dict[str, AttrValue]
    ) -> None:
        self.name = name
        self.time = when
        self.attributes = attributes

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "time": self.time,
            "attributes": dict(self.attributes),
        }


class Span:
    """One timed operation in a trace tree.

    Spans are created through :meth:`Tracer.span` (never directly) and
    registered with their tracer *at creation*, so a crash mid-run
    still exports the open spans.  ``with span:`` activates it as the
    ambient parent and ends it on exit; :meth:`active` re-activates an
    already-open span without ending it (how a session's root span
    spans many ``feed()`` calls).
    """

    __slots__ = (
        "_tokens",
        "_tracer",
        "attributes",
        "end_time",
        "events",
        "name",
        "parent_id",
        "span_id",
        "start_time",
        "trace_id",
    )

    #: Real spans record; mirrors the registry/instrument convention.
    enabled = True

    def __init__(
        self,
        tracer: "Tracer",
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        name: str,
        attributes: dict[str, AttrValue],
        start_time: float,
    ) -> None:
        self._tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attributes = attributes
        self.events: list[SpanEvent] = []
        self.start_time = start_time
        self.end_time: float | None = None
        self._tokens: list[Token["Span | None"]] = []

    # ------------------------------------------------------------------
    @property
    def tracer(self) -> "Tracer":
        return self._tracer

    def set_attribute(self, key: str, value: AttrValue) -> None:
        self.attributes[key] = value

    def add_event(self, name: str, **attributes: AttrValue) -> None:
        """Record a timestamped point event on this span."""
        self.events.append(
            SpanEvent(name, self._tracer._clock(), dict(attributes))
        )

    def end(self) -> None:
        """Close the span (idempotent - the first end time wins)."""
        if self.end_time is None:
            self.end_time = self._tracer._clock()

    @property
    def duration(self) -> float | None:
        if self.end_time is None:
            return None
        return self.end_time - self.start_time

    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        self._tokens.append(_CURRENT.set(self))
        return self

    def __exit__(self, *exc_info: object) -> None:
        _CURRENT.reset(self._tokens.pop())
        self.end()

    @contextlib.contextmanager
    def active(self) -> Iterator["Span"]:
        """Make this span the ambient parent without ending it."""
        token = _CURRENT.set(self)
        try:
            yield self
        finally:
            _CURRENT.reset(token)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        """JSON-representable snapshot (the JSONL exporter's row)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start_time,
            "end": self.end_time,
            "attributes": dict(self.attributes),
            "events": [event.to_dict() for event in self.events],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.end_time is None else "ended"
        return (
            f"Span({self.name!r}, trace={self.trace_id}, "
            f"span={self.span_id}, parent={self.parent_id}, {state})"
        )


class Tracer:
    """Records spans for one run; export-at-end via the renderers.

    Span/trace ids are deterministic per-tracer hex counters (stable
    test fixtures, zero entropy cost); the clock is injectable for the
    same reason and defaults to :func:`time.time`.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.time) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._next_trace_id = 0
        self._next_span_id = 0

    # ------------------------------------------------------------------
    @property
    def spans(self) -> tuple[Span, ...]:
        """Snapshot of every span recorded so far, in creation order."""
        with self._lock:
            return tuple(self._spans)

    def span(
        self,
        name: str,
        parent: "Span | None" = None,
        **attributes: AttrValue,
    ) -> Span:
        """Open a span; parents to the ambient current span when no
        explicit parent is given, starting a new trace when there is
        neither."""
        if parent is None:
            ambient = _CURRENT.get()
            if ambient is not None and ambient.tracer is self:
                parent = ambient
        with self._lock:
            if parent is None:
                self._next_trace_id += 1
                trace_id = f"{self._next_trace_id:016x}"
                parent_id = None
            else:
                trace_id = parent.trace_id
                parent_id = parent.span_id
            self._next_span_id += 1
            span = Span(
                self,
                trace_id,
                f"{self._next_span_id:08x}",
                parent_id,
                name,
                dict(attributes),
                self._clock(),
            )
            self._spans.append(span)
        return span

    def event(self, name: str, **attributes: AttrValue) -> None:
        """Record an event on the ambient current span (dropped when
        no span of this tracer is active)."""
        span = _CURRENT.get()
        if span is not None and span.tracer is self:
            span.add_event(name, **attributes)


class NullSpan:
    """Shared do-nothing span; every method is a no-op."""

    __slots__ = ()

    enabled = False

    trace_id = ""
    span_id = ""
    parent_id = None
    name = ""
    start_time = 0.0
    end_time = None
    duration = None

    def set_attribute(self, key: str, value: AttrValue) -> None:
        return None

    def add_event(self, name: str, **attributes: AttrValue) -> None:
        return None

    def end(self) -> None:
        return None

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def active(self) -> "NullSpan":
        """A no-op context manager (never touches the context var)."""
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NullSpan()"


class NullTracer:
    """Tracing disabled: hands out :data:`NULL_SPAN`, records nothing.

    Mirrors :class:`~repro.obs.metrics.NullRegistry` so instrumented
    code takes the same path either way.
    """

    __slots__ = ()

    enabled = False

    @property
    def spans(self) -> tuple[Span, ...]:
        return ()

    def span(
        self,
        name: str,
        parent: "Span | None" = None,
        **attributes: AttrValue,
    ) -> NullSpan:
        return NULL_SPAN

    def event(self, name: str, **attributes: AttrValue) -> None:
        return None


#: The shared no-op span (one instance; identity-comparable).
NULL_SPAN = NullSpan()

#: The shared disabled tracer - the default everywhere, so untraced
#: runs never allocate span state.
NULL_TRACER = NullTracer()

#: What instrumented signatures accept.
AnyTracer = Union[Tracer, NullTracer]
AnySpan = Union[Span, NullSpan]


# ----------------------------------------------------------------------
# Exporters
def _canonical(doc: object) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def render_trace_jsonl(tracer: AnyTracer) -> str:
    """One canonical-JSON span per line, in creation order."""
    lines = [_canonical(span.to_dict()) for span in tracer.spans]
    return "\n".join(lines) + ("\n" if lines else "")


def render_trace_chrome(tracer: AnyTracer) -> str:
    """Chrome trace-event JSON (load in Perfetto or about://tracing).

    Spans become complete (``ph: "X"``) duration events and span
    events become instants (``ph: "i"``); timestamps are microseconds.
    Each trace gets its own ``tid`` row under one ``pid``.
    """
    tids: dict[str, int] = {}
    events: list[dict[str, object]] = []
    for span in tracer.spans:
        tid = tids.setdefault(span.trace_id, len(tids) + 1)
        end_time = (
            span.end_time if span.end_time is not None else span.start_time
        )
        args: dict[str, object] = dict(span.attributes)
        args["trace_id"] = span.trace_id
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        events.append(
            {
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": span.start_time * 1e6,
                "dur": (end_time - span.start_time) * 1e6,
                "pid": 1,
                "tid": tid,
                "args": args,
            }
        )
        for event in span.events:
            events.append(
                {
                    "name": event.name,
                    "cat": "repro",
                    "ph": "i",
                    "ts": event.time * 1e6,
                    "pid": 1,
                    "tid": tid,
                    "s": "t",
                    "args": dict(event.attributes),
                }
            )
    return _canonical({"displayTimeUnit": "ms", "traceEvents": events})


def _format_attrs(attributes: Mapping[str, AttrValue]) -> str:
    if not attributes:
        return ""
    parts = [f"{key}={attributes[key]}" for key in sorted(attributes)]
    return " [" + " ".join(parts) + "]"


def render_trace_text(tracer: AnyTracer) -> str:
    """Human-readable indented span tree, one block per trace."""
    spans = tracer.spans
    children: dict[str | None, list[Span]] = {}
    by_id: dict[str, Span] = {span.span_id: span for span in spans}
    roots: list[Span] = []
    for span in spans:
        # A span whose parent this tracer never recorded renders at root.
        if span.parent_id is None or span.parent_id not in by_id:
            roots.append(span)
        else:
            children.setdefault(span.parent_id, []).append(span)

    lines: list[str] = []

    def emit(span: Span, depth: int) -> None:
        duration = span.duration
        took = "open" if duration is None else f"{duration * 1e3:.3f}ms"
        lines.append(
            f"{'  ' * depth}{span.name} {took}"
            f"{_format_attrs(span.attributes)}"
        )
        for event in span.events:
            offset = (event.time - span.start_time) * 1e3
            lines.append(
                f"{'  ' * (depth + 1)}@ {offset:+.3f}ms {event.name}"
                f"{_format_attrs(event.attributes)}"
            )
        for child in children.get(span.span_id, []):
            emit(child, depth + 1)

    last_trace: str | None = None
    for root in roots:
        if root.trace_id != last_trace:
            lines.append(f"trace {root.trace_id}")
            last_trace = root.trace_id
        emit(root, 1)
    return "\n".join(lines) + ("\n" if lines else "")


def render_trace(tracer: AnyTracer, fmt: str = "jsonl") -> str:
    """Render via the named exporter: jsonl | chrome | text."""
    renderers: dict[str, Callable[[AnyTracer], str]] = {
        "jsonl": render_trace_jsonl,
        "chrome": render_trace_chrome,
        "text": render_trace_text,
    }
    try:
        renderer = renderers[fmt]
    except KeyError:
        raise ValueError(
            f"unknown trace format {fmt!r}; expected one of "
            f"{sorted(renderers)}"
        ) from None
    return renderer(tracer)
