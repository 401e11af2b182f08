"""Span tracer unit contract: ids, propagation, exporters."""

import json
import os

import pytest

from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    Tracer,
    render_trace,
    render_trace_chrome,
    render_trace_jsonl,
    render_trace_text,
)

GOLDEN = os.path.join(
    os.path.dirname(__file__), "golden_chrome_trace.json"
)


class FakeClock:
    """Deterministic clock: 100.0, 100.5, 101.0, ..."""

    def __init__(self, start: float = 100.0, step: float = 0.5):
        self._now = start - step
        self._step = step

    def __call__(self) -> float:
        self._now += self._step
        return self._now


def fixture_tracer() -> Tracer:
    """A small two-trace span forest with deterministic timestamps."""
    tracer = Tracer(clock=FakeClock())
    with tracer.span("session.run", mode="stream") as root:
        with tracer.span("stage.binning", rows=64):
            tracer.event("assembler.watermark", watermark=900.0)
        with tracer.span("session.interval", interval=0, flows=64):
            with tracer.span("stage.detection") as detection:
                detection.set_attribute("alarm", True)
        root.set_attribute("intervals", 1)
    tracer.span("fleet.rank", profile="balanced").end()
    return tracer


class TestSpanLifecycle:
    def test_ids_are_deterministic_counters(self):
        tracer = Tracer(clock=FakeClock())
        a = tracer.span("session.run")
        b = tracer.span("fleet.run")
        assert a.trace_id == "0000000000000001"
        assert b.trace_id == "0000000000000002"
        assert (a.span_id, b.span_id) == ("00000001", "00000002")

    def test_with_block_parents_and_ends(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("session.run") as root:
            child = tracer.span("stage.binning")
            assert child.parent_id == root.span_id
            assert child.trace_id == root.trace_id
        assert tracer.span("fleet.run").parent_id is None  # root left
        assert root.end_time is not None
        assert child.end_time is None  # never entered, still open

    def test_end_is_idempotent_first_wins(self):
        tracer = Tracer(clock=FakeClock())
        span = tracer.span("session.run")
        span.end()
        first = span.end_time
        span.end()
        assert span.end_time == first
        assert span.duration == pytest.approx(first - span.start_time)

    def test_explicit_parent_beats_ambient(self):
        tracer = Tracer(clock=FakeClock())
        other = tracer.span("fleet.run")
        with tracer.span("session.run"):
            child = tracer.span("session.interval", parent=other)
        assert child.parent_id == other.span_id
        assert child.trace_id == other.trace_id

    def test_active_reactivates_without_ending(self):
        tracer = Tracer(clock=FakeClock())
        root = tracer.span("session.run")
        with root.active():
            child = tracer.span("stage.binning")
        assert tracer.span("fleet.run").parent_id is None  # root left
        assert root.end_time is None
        assert child.parent_id == root.span_id

    def test_event_attaches_to_ambient_span_only(self):
        tracer = Tracer(clock=FakeClock())
        tracer.event("assembler.watermark", watermark=1.0)  # dropped
        with tracer.span("session.run") as root:
            tracer.event("assembler.backpressure", interval=3)
        assert [e.name for e in root.events] == ["assembler.backpressure"]
        assert root.events[0].attributes == {"interval": 3}

    def test_foreign_tracer_span_is_not_a_parent(self):
        mine, theirs = Tracer(clock=FakeClock()), Tracer(clock=FakeClock())
        with theirs.span("session.run"):
            span = mine.span("stage.binning")
            mine.event("assembler.watermark", watermark=1.0)
        assert span.parent_id is None
        theirs_root = theirs.spans[0]
        assert theirs_root.events == []

    def test_spans_registered_at_creation(self):
        tracer = Tracer(clock=FakeClock())
        span = tracer.span("session.run")  # never ended: a "crash"
        assert tracer.spans == (span,)
        assert "open" in render_trace_text(tracer)


class TestNullObjects:
    def test_null_tracer_hands_out_the_shared_null_span(self):
        span = NULL_TRACER.span("anything", flows=3)
        assert span is NULL_SPAN
        assert not span.enabled and not NULL_TRACER.enabled

    def test_null_span_is_inert(self):
        with NULL_TRACER.span("x") as span:
            span.set_attribute("k", 1)
            span.add_event("e")
            # The null span never becomes anyone's ambient parent.
            assert Tracer().span("session.run").parent_id is None
        assert span.active() is span
        with span.active():
            pass
        assert NULL_TRACER.spans == ()

    def test_null_exports_are_empty(self):
        assert render_trace_jsonl(NULL_TRACER) == ""
        assert render_trace_text(NULL_TRACER) == ""
        doc = json.loads(render_trace_chrome(NULL_TRACER))
        assert doc["traceEvents"] == []


class TestExporters:
    def test_jsonl_is_one_canonical_doc_per_span(self):
        tracer = fixture_tracer()
        lines = render_trace_jsonl(tracer).splitlines()
        assert len(lines) == len(tracer.spans)
        first = json.loads(lines[0])
        assert first["name"] == "session.run"
        assert first["parent_id"] is None
        assert first["attributes"] == {"intervals": 1, "mode": "stream"}
        # Canonical form: sorted keys, no spaces.
        assert lines[0] == json.dumps(
            first, sort_keys=True, separators=(",", ":")
        )

    def test_text_tree_nests_and_stamps(self):
        text = render_trace_text(fixture_tracer())
        assert text.splitlines()[0] == "trace 0000000000000001"
        assert "  session.run 4000.000ms [intervals=1 mode=stream]" in text
        assert "    stage.binning" in text
        assert "@ +500.000ms assembler.watermark [watermark=900.0]" in text
        assert "      stage.detection 500.000ms [alarm=True]" in text
        assert "trace 0000000000000002" in text  # fleet.rank root

    def test_chrome_export_matches_golden(self):
        rendered = render_trace_chrome(fixture_tracer())
        with open(GOLDEN) as handle:
            assert rendered == handle.read().rstrip("\n")
        doc = json.loads(rendered)
        assert doc["displayTimeUnit"] == "ms"
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases == {"X", "i"}
        # Two traces -> two tid rows under one pid.
        assert {e["tid"] for e in doc["traceEvents"]} == {1, 2}

    def test_render_trace_dispatch(self):
        tracer = fixture_tracer()
        assert render_trace(tracer) == render_trace_jsonl(tracer)
        assert render_trace(tracer, "text") == render_trace_text(tracer)
        with pytest.raises(ValueError, match="unknown trace format"):
            render_trace(tracer, "otlp")
