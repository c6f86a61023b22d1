"""``repro.obs`` — unified metrics, tracing and progress telemetry.

The dependency-free observability layer every other subsystem records into:

* :mod:`repro.obs.metrics` — a process-global :class:`MetricsRegistry` of
  counters, gauges and streaming log-bucket histograms (p50/p95/p99 without
  stored samples), with JSON-snapshot and Prometheus-text exporters.
* :mod:`repro.obs.trace` — :func:`trace_span`, a context manager recording
  structured spans (start/duration/parent/attrs) into a bounded in-memory
  ring with JSONL and Chrome-trace (Perfetto) exporters.
* :mod:`repro.obs.context` — the ambient trace context (``trace_id`` /
  ``job_id`` / ``worker_id``) that stamps every span so spans from many
  processes can be correlated into one distributed trace.
* :mod:`repro.obs.sink` — the per-DB span store and metrics time-series:
  each fleet process spools its spans and periodic metrics snapshots to
  bounded JSONL files beside ``serve.db``; readers merge them into one
  Chrome/Perfetto trace per job and one ``/metrics/history`` series.

Instrumented seams: pipeline stage execution (:mod:`repro.api.stages`), the
persistent result/density caches, and the :mod:`repro.serve` scheduler +
store — surfaced by the service's ``GET /stats`` / ``GET /metrics``
endpoints and the ``repro stats`` / ``repro trace`` CLI verbs.

Overhead policy: recording is always on (locked integer adds and a bounded
deque append); nothing is formatted or written until an exporter or snapshot
is explicitly requested, so the hot path cost is fixed and small.  The
documented bound is <= 2% of wall-clock; it is not yet measured.
"""

from __future__ import annotations

from repro.obs.context import (
    TraceContext,
    bind_trace,
    current_trace,
    new_trace_id,
    set_trace_defaults,
    trace_context,
)
from repro.obs.metrics import (
    BUCKETS_PER_DECADE,
    Counter,
    GROWTH,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    REGISTRY,
    metrics,
)
from repro.obs.trace import (
    DEFAULT_CAPACITY,
    Span,
    TRACE,
    TraceBuffer,
    current_span_id,
    spans_to_chrome_trace,
    trace_span,
)

__all__ = [
    "BUCKETS_PER_DECADE",
    "Counter",
    "DEFAULT_CAPACITY",
    "GROWTH",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "REGISTRY",
    "Span",
    "TRACE",
    "TraceBuffer",
    "TraceContext",
    "bind_trace",
    "current_span_id",
    "current_trace",
    "metrics",
    "new_trace_id",
    "set_trace_defaults",
    "spans_to_chrome_trace",
    "trace_context",
    "trace_span",
]
