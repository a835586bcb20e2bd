"""Batched inference serving: registry, micro-batcher, cache, gateway.

The layer that turns the packed-forest kernels into a continuously-queried
service: models live in a :class:`ModelRegistry` (frozen on register,
promoted/rolled back in stages), traffic coalesces through a
:class:`MicroBatcher` into single packed-arena calls with bit-identical
results, and duplicate requests — pervasive in HPC I/O telemetry (§VI.A)
— are answered from a version-keyed :class:`PredictionCache`.
:class:`ServingGateway` fronts the whole registry behind one ``submit``,
giving each name, on its first request, its own batcher and cache.
:class:`ShardedServingCluster` scales the whole stack past one process:
N worker gateways warm-started from the registry's frozen models
(inherited under ``fork``, pickled only under ``spawn``), hash or
replicated routing, broadcast registry mutations, and crash containment —
still bit-identical to the single-process path.

:mod:`repro.serve.monitor` closes the loop the paper's taxonomy demands:
a :class:`MonitoringPlane` taps the gateway/cluster front door
(observationally — monitored serving stays bit-identical), windows the
live stream's drift and epistemic uncertainty against registered
training references, shadow-scores staged challengers, and lets a
:class:`PolicyEngine` alert, auto-promote, or auto-rollback through the
registry's listener machinery so actions propagate cluster-wide.

:mod:`repro.serve.errors` + :mod:`repro.serve.resilience` are the
operational counterpart of the paper's model-error taxonomy: every
boundary failure carries a frozen :class:`ErrorCode` (category, severity,
``retryable``), and a :class:`RetryController` / per-shard
:class:`CircuitBreaker` / :class:`ShardSupervisor` triple turns
"retryable" into actual recovery — deadline-budgeted resubmission,
storm-capped auto-respawn — without touching the bit-identical scoring
path.

:mod:`repro.serve.net` puts the whole front door behind a TCP socket:
:class:`AsyncServeServer` speaks length-prefixed JSON frames over an
asyncio loop, bridges them to gateway/cluster tickets off-loop, sheds
overload with a structured ``OVERLOADED`` wire error, and stays
bit-identical to the in-process path; :class:`ServeClient` is the
blocking, pipelining counterpart.

:mod:`repro.serve.obs` makes the whole stack legible: a request-scoped
:class:`TraceContext` (born at the network edge or ``gateway.submit``,
sampled 1-in-N, carried on the frame protocol and across shard
transports) records per-stage :class:`Span`\\ s into bounded
:class:`SpanRing`\\ s with drop accounting and p99+ exemplars; a
:class:`MetricsRegistry` freezes the metric-name catalogue and exports
one consistent snapshot of every stats surface as Prometheus text or
JSON (served over the wire and via ``repro obs``); and
:class:`StructuredLogger` emits trace-correlated, coded-error-aware
JSON log lines.  All of it observational: bit-identical serving with
the plane on or off, ≤ 5 % overhead gated by
``python benchmarks/bench_serve.py``.
"""

from repro.serve.backend import Backend
from repro.serve.batcher import CompletedTicket, MicroBatcher, Ticket
from repro.serve.cache import PredictionCache, request_digest
from repro.serve.errors import (
    CodedError,
    ErrorCode,
    classify_exception,
    code_of,
    coded,
    ensure_code,
    from_wire,
    to_wire,
)
from repro.serve.monitor import (
    EuQuantileRule,
    MonitorEvent,
    MonitoringPlane,
    PolicyEngine,
    PsiThresholdRule,
    ShadowScorer,
    ShadowWinnerRule,
    StreamProfile,
    UncertaintyTap,
)
from repro.serve.net import AsyncServeServer, ServeClient
from repro.serve.obs import (
    COMPONENTS,
    METRIC_NAMES,
    METRICS,
    MetricsRegistry,
    STAGES,
    Span,
    SpanRing,
    StructuredLogger,
    TraceContext,
    Tracer,
    to_json,
    to_prometheus,
)
from repro.serve.registry import (
    ModelRegistry,
    ModelVersion,
    ReferenceSnapshot,
    freeze_arrays,
)
from repro.serve.resilience import (
    CircuitBreaker,
    RetryController,
    RetryTicket,
    ShardSupervisor,
)
from repro.serve.router import ServingGateway
from repro.serve.shard import ClusterTicket, ShardCrashedError, ShardedServingCluster
from repro.serve.stats import ClusterStats, GatewayStats, ResilienceStats, ServerStats
from repro.serve.transport import (
    PipeTransport,
    SocketListener,
    SocketTransport,
    Transport,
    TransportError,
)

__all__ = [
    "AsyncServeServer",
    "Backend",
    "COMPONENTS",
    "CircuitBreaker",
    "ClusterStats",
    "ClusterTicket",
    "CodedError",
    "CompletedTicket",
    "ErrorCode",
    "EuQuantileRule",
    "GatewayStats",
    "METRICS",
    "METRIC_NAMES",
    "MetricsRegistry",
    "MicroBatcher",
    "ModelRegistry",
    "ModelVersion",
    "MonitorEvent",
    "MonitoringPlane",
    "PipeTransport",
    "PolicyEngine",
    "PredictionCache",
    "PsiThresholdRule",
    "ReferenceSnapshot",
    "ResilienceStats",
    "RetryController",
    "RetryTicket",
    "STAGES",
    "ServeClient",
    "ServerStats",
    "ServingGateway",
    "ShadowScorer",
    "ShadowWinnerRule",
    "ShardCrashedError",
    "ShardSupervisor",
    "ShardedServingCluster",
    "SocketListener",
    "SocketTransport",
    "Span",
    "SpanRing",
    "StreamProfile",
    "StructuredLogger",
    "Ticket",
    "TraceContext",
    "Tracer",
    "Transport",
    "TransportError",
    "UncertaintyTap",
    "classify_exception",
    "code_of",
    "coded",
    "ensure_code",
    "freeze_arrays",
    "from_wire",
    "request_digest",
    "to_json",
    "to_prometheus",
    "to_wire",
]
