"""Unified tracing + metrics: the observability subsystem.

One machine-readable observability layer with one home per number:
every count and every latency distribution is an instrument in a
:class:`MetricsRegistry`, and every per-operation duration is a span
opened on a :class:`Tracer`.  ``/metrics``, the Prometheus scrape,
traces and the benchmark records all read those two mechanisms, so they
report the same numbers.  Span recording is default-off and injectable.

The span model
--------------
A **span** is one timed operation: ``name``, ``span_id``, ``parent_id``,
``start``, ``duration``, ``attributes``.  Spans are produced by a
:class:`Tracer` as context managers and form a tree per thread (each
thread keeps its own active-span stack).  Spans are stored *flat* with
parent links — in the in-memory :class:`SpanRecorder` (bounded,
thread-safe), in the append-only :class:`JsonlSpanSink` (one JSON object
per line, ``repro-trace``'s input) and in the versioned
``{"version", "spans", "dropped"}`` trees embedded in experiment run
artefacts.  :data:`TRACE_FORMAT_VERSION` stamps all three.

Span names are dotted ``layer.operation``:

===========================  ====================================================
``localpush.<phase>``        one engine phase interval (frontier/push/
                             merge), attributes ``phase``/``round``;
                             opened when a tracer is passed to
                             ``localpush_engine(tracer=...)``
``serve.exact_batch``        one read's exact rung, attr ``batch_size``
                             (distinct sources of the ``topk_batch`` call)
``serve.version_rows``       one row computation of a served graph version,
                             under the ``serve.exact_batch`` of the read
                             that ran it; attrs ``component_size``,
                             ``version`` (graph fingerprint) and, from the
                             default engine hook, ``pushes``
``dynamic.repair``           one update-batch repair, attrs ``batch_size``/
                             ``num_pushes``/``num_rounds``/``warm_start``
``dynamic.snapshot_write``   one repaired-snapshot projection + store,
                             a root span on the operator's writer thread;
                             attr ``superseded`` (states dropped since the
                             last write), plus ``error`` when the write
                             failed
``experiment.cell``          one sweep cell, attrs ``index``/``experiment``;
                             child ``experiment.cell.run`` is the runner call
===========================  ====================================================

The metric naming scheme
------------------------
Instruments live in a :class:`MetricsRegistry` (typed
:class:`Counter`/:class:`Gauge`/:class:`Histogram`, label support, all
mutation atomic under the registry's single lock).  Names follow the
Prometheus convention ``repro_<layer>_<what>[_total|_seconds]``:

* ``repro_serve_<counter>_total`` — the eleven ``ServiceCounters``
  names (``queries``, ``exact_served``, …) re-based on the registry
  (``repro_serve_repair_seconds`` is the one non-counter-suffixed sum);
* ``repro_serve_latency_seconds{path=...}`` — a :class:`Histogram` of
  answered-query latency per serving path over :data:`DEFAULT_BUCKETS`;
  ``/metrics`` reads its p50/p95/p99 back with
  :meth:`Histogram.quantile`;
* ``repro_serve_qps`` and ``repro_serve_graph_{nodes,edges}`` — gauges
  refreshed at scrape time;
* ``repro_cache_events_total{event=...}`` — operator-cache exact/reuse
  hits, misses, stores, evictions and row hits/misses.  Always on: the
  cache counts on a registry it owns, whether telemetry is enabled or
  not, and ``/metrics``' ``cache`` section reads the same counter.

Exposition is dual: :func:`prometheus_text` renders the registry in the
Prometheus text format (deterministic ordering, spec label escaping —
pinned byte-for-byte by the round-trip test) and :func:`json_snapshot`
is its versioned JSON twin.  The daemon's ``GET /metrics/prometheus``
renders the service registry followed by the operator cache's; the
``/metrics`` JSON keeps its shape.

Overhead guarantees
-------------------
Telemetry is **default-off** everywhere: every instrumented layer takes
an optional handle (:class:`Telemetry`) resolving to :data:`DISABLED`,
whose tracer returns one preallocated inert span — entering it is two
attribute lookups, no allocation, no clock read.  The engine's round
kernel opens its phase spans on :data:`NULL_TRACER` unless handed
another tracer, and spans never touch the arithmetic, so traced and
untraced runs are bit-identical and the R3 guarantee is untouched.
``benchmarks/check_telemetry_overhead.py`` asserts the
no-op span cost in CI's perf-gate job, and tracers read only the
monotonic clock (``time.perf_counter``) — this package sits inside the
R3 determinism lint scope to keep it that way.

Entry points
------------
``repro-trace`` (= ``python -m repro.telemetry``) summarises a JSONL
trace: top spans by self time, per-name and per-phase aggregates.
:class:`repro.config.TelemetryConfig` is the frozen public config;
``repro.cli serve --telemetry [--trace-path …]`` and
``repro-experiment … --trace …`` are the CLI bridges.
"""

from repro.telemetry.exposition import (METRICS_FORMAT_VERSION,
                                        PROMETHEUS_CONTENT_TYPE,
                                        json_snapshot, prometheus_text)
from repro.telemetry.metrics import (DEFAULT_BUCKETS, Counter, Gauge,
                                     Histogram, MetricsRegistry)
from repro.telemetry.runtime import (DISABLED, Telemetry, resolve_telemetry,
                                     telemetry_from_config)
from repro.telemetry.summary import (aggregate_by_name, format_summary,
                                     load_trace, phase_seconds, self_times,
                                     top_spans_by_self_time)
from repro.telemetry.tracing import (NULL_TRACER, TRACE_FORMAT_VERSION,
                                     JsonlSpanSink, NullTracer, Span,
                                     SpanRecorder, Tracer)

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "DEFAULT_BUCKETS",
    "Span", "Tracer", "NullTracer", "NULL_TRACER", "SpanRecorder",
    "JsonlSpanSink", "TRACE_FORMAT_VERSION",
    "prometheus_text", "json_snapshot", "METRICS_FORMAT_VERSION",
    "PROMETHEUS_CONTENT_TYPE",
    "Telemetry", "DISABLED", "resolve_telemetry", "telemetry_from_config",
    "load_trace", "format_summary", "aggregate_by_name", "phase_seconds",
    "self_times", "top_spans_by_self_time",
]
