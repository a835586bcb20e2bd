"""repro.serve.obs — tracing, unified metrics, structured logging.

The observability plane for the serving stack (PR 10).  Three pieces:

* :mod:`~repro.serve.obs.trace` — request-scoped :class:`TraceContext`
  recording per-stage spans into bounded per-component
  :class:`SpanRing`\\ s with drop accounting and p99+ exemplars.
* :mod:`~repro.serve.obs.metrics` — the frozen metric-name catalogue and
  :class:`MetricsRegistry`, one snapshot over every stats surface,
  exported as Prometheus text and JSON.
* :mod:`~repro.serve.obs.logging` — :class:`StructuredLogger`, JSON
  lines correlated to traces by id, coded-error aware.

Everything here is observational: no scoring path, no ordering decision,
bit-identical serving with the plane on or off (``python
benchmarks/bench_serve.py`` gates the overhead at ≤5 %).  See ``docs/observability.md``.
"""

from repro.serve.obs.logging import StructuredLogger
from repro.serve.obs.metrics import (
    METRIC_NAMES,
    METRICS,
    MetricSpec,
    MetricsRegistry,
    to_json,
    to_prometheus,
)
from repro.serve.obs.trace import (
    COMPONENTS,
    STAGES,
    Span,
    SpanRing,
    TraceContext,
    Tracer,
)

__all__ = [
    "COMPONENTS",
    "METRICS",
    "METRIC_NAMES",
    "MetricSpec",
    "MetricsRegistry",
    "STAGES",
    "Span",
    "SpanRing",
    "StructuredLogger",
    "TraceContext",
    "Tracer",
    "to_json",
    "to_prometheus",
]
