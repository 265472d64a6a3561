"""Serving observability: lifecycle tracing, metrics and exporters.

The telemetry layer for :mod:`repro.serving` — what a production fleet
would export to its monitoring stack, reconstructed for the simulator:

* :mod:`repro.obs.tracer` — the event schema (:data:`EVENT_SCHEMA`:
  every kind's scope, ordered payload fields, registry counter and
  meaning) and the single :meth:`Tracer.emit` hook the rank engines,
  the cluster layer and fault plans report through; the null
  :class:`Tracer` keeps the untraced hot path branch-cheap, the
  :class:`RecordingTracer` records events and aggregates them,
* :mod:`repro.obs.registry` — Prometheus-style counters, gauges,
  log-bucketed histograms and sampled time series,
* :mod:`repro.obs.export` — Chrome trace-event JSON (opens in Perfetto)
  and flat timeline rows, plus the CI schema validator,
* :mod:`repro.obs.replay` — the correctness oracle: rebuild a full
  :class:`~repro.serving.engine.records.ServingResult` (and the cluster's
  fault-recovery counters) from the event stream alone.
"""

from repro.obs.registry import (
    Counter,
    Gauge,
    LogHistogram,
    MetricsRegistry,
    TimeSeries,
)
from repro.obs.tracer import (
    EVENT_KINDS,
    EVENT_SCHEMA,
    LIFECYCLE_KINDS,
    TRACE_LEVELS,
    RecordingTracer,
    TraceEvent,
    Tracer,
)
from repro.obs.export import (
    chrome_trace,
    timeline_rows,
    validate_chrome_trace,
    write_chrome_trace,
    write_timeline,
)
from repro.obs.replay import replay_result

__all__ = [
    "Counter",
    "Gauge",
    "LogHistogram",
    "MetricsRegistry",
    "TimeSeries",
    "EVENT_SCHEMA",
    "EVENT_KINDS",
    "LIFECYCLE_KINDS",
    "TRACE_LEVELS",
    "TraceEvent",
    "Tracer",
    "RecordingTracer",
    "chrome_trace",
    "timeline_rows",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_timeline",
    "replay_result",
]
