"""Unified telemetry: tracing spans, metrics, run profiles, sinks.

Zero-dependency observability for the router and its experiment engine:

* :mod:`repro.obs.tracer` — :class:`Tracer` produces nested, timestamped
  spans (wall and simulated clock) with tags, per-span metrics (work ops,
  messages, bytes) and the SPMD comm events; the :data:`NULL_TRACER`
  default makes every instrumentation hook free.
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` of counters,
  gauges, and histograms with snapshot/merge value semantics for
  process-pool safety.
* :mod:`repro.obs.profile` — :class:`RunProfile`, the per-step
  time/ops/bytes summary embedded in run records, plus
  :func:`profile_diff` for regression gating.
* :mod:`repro.obs.sinks` — JSONL, Chrome-trace, and text-flamegraph
  exporters.

Instrumentation contract: tracing is passive.  It reads clocks and
counters, consumes no randomness, and mutates no router state — traced
and untraced runs produce bit-identical routing results
(``tests/obs/test_identity.py`` enforces this).
"""

from repro.obs.metrics import (
    PERCENTILES,
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    quantile_from_buckets,
    render_histograms,
    render_prometheus_snapshot,
)
from repro.obs.profile import (
    ProfileDiff,
    RunProfile,
    StepDelta,
    profile_diff,
    profile_from_tracer,
    render_profile,
)
from repro.obs.sinks import (
    chrome_trace,
    render_flamegraph,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.tracer import NULL_TRACER, CommEvent, NullTracer, Span, Tracer

__all__ = [
    "CommEvent",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "PERCENTILES",
    "ProfileDiff",
    "REGISTRY",
    "RunProfile",
    "Span",
    "StepDelta",
    "Tracer",
    "chrome_trace",
    "profile_diff",
    "profile_from_tracer",
    "quantile_from_buckets",
    "render_flamegraph",
    "render_histograms",
    "render_profile",
    "render_prometheus_snapshot",
    "write_chrome_trace",
    "write_jsonl",
]
