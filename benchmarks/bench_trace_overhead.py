"""Tracing overhead: the NULL_TRACER discipline must be (nearly) free.

Instrumented code never branches on whether tracing is enabled - it
always calls ``tracer.span(...)``/``tracer.event(...)`` and the
NULL_TRACER absorbs the calls when tracing is off.  That only works if
the no-op path is cheap: this bench prices a null span/event call,
counts how many of them a real pipeline interval actually makes, and
asserts the disabled-tracing tax stays under 2% of the interval's
wall-clock.  The enabled path is priced too (span creation throughput
and JSONL render rate), so a fleet run's few hundred live spans are
demonstrably noise.
"""

import time

import repro.api as api
from repro.core.config import ExtractionConfig
from repro.detection.detector import DetectorConfig
from repro.obs.trace import NULL_TRACER, Tracer, render_trace_jsonl
from repro.traffic import TraceGenerator, small_test

#: Null-call loop length (per-call cost is tens of nanoseconds).
N_NULL_CALLS = 200_000
#: Live spans created when measuring enabled throughput.
N_ENABLED_SPANS = 20_000
#: Disabled tracing may tax a pipeline interval by at most this much.
DISABLED_OVERHEAD_BUDGET = 0.02
INTERVALS = 24
FLOWS_PER_INTERVAL = 1500


def _trace():
    generator = TraceGenerator(small_test(FLOWS_PER_INTERVAL), seed=3)
    return generator.generate(INTERVALS)


def _run(trace, tracer):
    config = ExtractionConfig(
        detector=DetectorConfig(
            clones=3, bins=256, vote_threshold=3, training_intervals=16
        ),
        min_support=300,
    )
    start = time.perf_counter()
    api.extract(
        trace.flows, config, interval_seconds=trace.interval_seconds,
        seed=1, tracer=tracer,
    )
    return time.perf_counter() - start


def test_disabled_overhead_under_budget(report):
    """Null-call cost x calls-per-interval < 2% of an interval."""
    # Price one no-op span-with-event round trip.
    start = time.perf_counter()
    for index in range(N_NULL_CALLS):
        with NULL_TRACER.span("session.interval", interval=index):
            NULL_TRACER.event("assembler.watermark", watermark=0.0)
    null_call_seconds = (time.perf_counter() - start) / N_NULL_CALLS

    # Count how many instrumentation calls a real interval makes.
    trace = _trace()
    probe = Tracer()
    traced_seconds = _run(trace, probe)
    events = sum(len(span.events) for span in probe.spans)
    calls_per_interval = (len(probe.spans) + events) / INTERVALS

    untraced_seconds = _run(trace, None)
    interval_seconds = untraced_seconds / INTERVALS
    disabled_tax = null_call_seconds * calls_per_interval
    overhead = disabled_tax / interval_seconds

    report(
        "",
        "Tracing overhead (disabled path)",
        f"  null span+event call: {null_call_seconds * 1e9:.0f} ns; "
        f"{calls_per_interval:.1f} instrumentation calls per interval",
        f"  disabled-tracing tax: {disabled_tax * 1e6:.1f} us on a "
        f"{interval_seconds * 1e3:.1f} ms interval "
        f"({overhead:.4%}, budget {DISABLED_OVERHEAD_BUDGET:.0%})",
        null_call_ns=null_call_seconds * 1e9,
        calls_per_interval=calls_per_interval,
        disabled_overhead_fraction=overhead,
        untraced_pipeline_seconds=untraced_seconds,
        traced_pipeline_seconds=traced_seconds,
    )
    assert overhead < DISABLED_OVERHEAD_BUDGET


def test_enabled_span_throughput(report):
    """Creating, attributing, and rendering live spans stays cheap."""
    tracer = Tracer()
    start = time.perf_counter()
    with tracer.span("session.run", mode="bench"):
        for index in range(N_ENABLED_SPANS):
            with tracer.span("session.interval", interval=index) as span:
                span.set_attribute("flows", index)
    create_seconds = time.perf_counter() - start
    spans_per_second = N_ENABLED_SPANS / create_seconds

    start = time.perf_counter()
    rendered = render_trace_jsonl(tracer)
    render_seconds = time.perf_counter() - start
    lines = rendered.count("\n")

    report(
        "Tracing overhead (enabled path)",
        f"  span create+end: {spans_per_second:,.0f} spans/s "
        f"({create_seconds / N_ENABLED_SPANS * 1e6:.1f} us each)",
        f"  JSONL export: {lines} spans in {render_seconds * 1e3:.1f} ms",
        spans_per_second=spans_per_second,
        jsonl_render_seconds=render_seconds,
        jsonl_spans=lines,
    )
    assert lines == N_ENABLED_SPANS + 1
    # A pipeline records a handful of spans per interval; even 10k/s
    # would be invisible.  Demand at least that with margin.
    assert spans_per_second > 10_000
