"""Observability: metrics, stage timing, and structured telemetry.

The ROADMAP's fleet-as-a-service direction needs a ``/metrics`` surface
exporting per-pipeline throughput, late-drop, and backpressure
counters; this package is that groundwork, dependency-free:

* :mod:`repro.obs.metrics` - ``Counter`` / ``Gauge`` / ``Histogram``
  with label support, the :class:`~repro.obs.metrics.MetricsRegistry`,
  the :data:`~repro.obs.metrics.NULL_REGISTRY` no-op for disabled runs,
  and :class:`~repro.obs.metrics.time_stage` wall-clock spans;
* :mod:`repro.obs.export` - Prometheus text exposition and the
  byte-stable canonical JSON snapshot;
* :mod:`repro.obs.instruments` - the library's per-pipeline metric
  catalog, pre-bound for the hot paths;
* :mod:`repro.obs.trace` - :class:`~repro.obs.trace.Tracer` /
  :class:`~repro.obs.trace.Span` span trees with the
  :data:`~repro.obs.trace.NULL_TRACER` no-op and JSONL / Chrome
  trace-event / text exporters;
* :mod:`repro.obs.log` - stdlib loggers under the ``repro.*``
  namespace with ``key=value`` extras.

Metrics are **optional and cheap**: instrumented code paths hold
pre-resolved instruments and never branch on whether observability is
enabled - against the null registry every update is one no-op method
call, and extraction output is byte-identical with metrics on or off
(the equivalence suites hold that invariant).
"""

from repro.obs.export import render_json, render_prometheus, snapshot
from repro.obs.instruments import STAGES, PipelineInstruments
from repro.obs.log import get_logger, kv
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    NullRegistry,
    time_stage,
)
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    NullSpan,
    NullTracer,
    Span,
    SpanEvent,
    Tracer,
    render_trace,
    render_trace_chrome,
    render_trace_jsonl,
    render_trace_text,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "NULL_REGISTRY",
    "NULL_SPAN",
    "NULL_TRACER",
    "STAGES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "NullRegistry",
    "NullSpan",
    "NullTracer",
    "PipelineInstruments",
    "Span",
    "SpanEvent",
    "Tracer",
    "get_logger",
    "kv",
    "render_json",
    "render_prometheus",
    "render_trace",
    "render_trace_chrome",
    "render_trace_jsonl",
    "render_trace_text",
    "snapshot",
    "time_stage",
]
