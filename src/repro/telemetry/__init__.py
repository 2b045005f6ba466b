"""Unified telemetry: metrics, tracing, collection, SLOs, exporters.

The observability layer every subsystem shares:

- :mod:`repro.telemetry.registry` — thread-safe ``Counter`` / ``Gauge``
  / ``Histogram`` families in a :class:`MetricsRegistry`, plus the
  process-wide default registry and the :func:`merged_stats` helper the
  ``stats()`` endpoints assemble themselves with;
- :mod:`repro.telemetry.tracing` — trace/span ids, the contextvar
  ``span()`` context manager, and the in-memory ring of recently
  completed traces;
- :mod:`repro.telemetry.collect` — the trace collector: assembles
  coordinator *and* backhauled worker spans into whole traces and
  archives the keepers under tail-based sampling;
- :mod:`repro.telemetry.slo` — declared latency/error objectives
  evaluated against the live metric families (error-budget burn for
  ``/healthz`` and ``fleet status``);
- :mod:`repro.telemetry.logging` — JSON log formatter that auto-injects
  the active trace/span ids; ``configure_logging`` opts a process in
  (quiet by default);
- :mod:`repro.telemetry.exporters` — Prometheus text-format rendering,
  served at the app server's ``GET /metrics`` (optionally with
  OpenMetrics trace-id exemplars);
- :mod:`repro.telemetry.profiling` — the sampling wall-clock profiler:
  collapsed flamegraph-ready stacks, per-span frame attribution,
  on-demand windows (``GET /debug/profile``) and an always-on low-rate
  continuous mode;
- :mod:`repro.telemetry.resources` — the process resource collector
  behind the ``repro_process_*`` gauge families (CPU, RSS, threads,
  fds, GC pauses, opt-in allocation tracking).
"""

from repro.telemetry.collect import (
    MAX_BACKHAUL_SPANS,
    SamplingPolicy,
    TraceCollector,
    revive_spans,
    span_tree,
)
from repro.telemetry.exporters import (
    OPENMETRICS_CONTENT_TYPE,
    PROMETHEUS_CONTENT_TYPE,
    render_prometheus,
)
from repro.telemetry.logging import JSONLogFormatter, configure_logging, get_logger
from repro.telemetry.profiling import (
    DEFAULT_CONTINUOUS_HZ,
    DEFAULT_WINDOW_HZ,
    ProfileReport,
    SamplingProfiler,
    env_profile_enabled,
    get_default_profiler,
    set_default_profiler,
)
from repro.telemetry.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_default_registry,
    merged_stats,
    set_default_registry,
)
from repro.telemetry.resources import ResourceCollector
from repro.telemetry.slo import (
    ErrorRateObjective,
    LatencyObjective,
    SLOEngine,
    default_objectives,
)
from repro.telemetry.tracing import (
    MAX_SPAN_TAGS,
    MAX_TAG_VALUE_CHARS,
    Span,
    TraceBuffer,
    clamp_tags,
    current_span,
    current_trace_id,
    get_trace_buffer,
    is_trace_id,
    new_span_id,
    new_trace_id,
    span,
    span_seconds,
)

__all__ = [
    "OPENMETRICS_CONTENT_TYPE",
    "PROMETHEUS_CONTENT_TYPE",
    "render_prometheus",
    "JSONLogFormatter",
    "configure_logging",
    "get_logger",
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_default_registry",
    "merged_stats",
    "set_default_registry",
    "DEFAULT_CONTINUOUS_HZ",
    "DEFAULT_WINDOW_HZ",
    "ProfileReport",
    "SamplingProfiler",
    "env_profile_enabled",
    "get_default_profiler",
    "set_default_profiler",
    "ResourceCollector",
    "MAX_BACKHAUL_SPANS",
    "SamplingPolicy",
    "TraceCollector",
    "revive_spans",
    "span_tree",
    "ErrorRateObjective",
    "LatencyObjective",
    "SLOEngine",
    "default_objectives",
    "MAX_SPAN_TAGS",
    "MAX_TAG_VALUE_CHARS",
    "Span",
    "TraceBuffer",
    "clamp_tags",
    "current_span",
    "current_trace_id",
    "get_trace_buffer",
    "is_trace_id",
    "new_span_id",
    "new_trace_id",
    "span",
    "span_seconds",
]
