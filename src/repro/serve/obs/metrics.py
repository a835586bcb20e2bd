"""Unified metrics plane: one frozen catalogue, one snapshot, two exports.

Before this module the serving stack's numbers lived on five unrelated
surfaces — :class:`~repro.serve.stats.ServerStats` /
:class:`~repro.serve.stats.GatewayStats` /
:class:`~repro.serve.stats.ClusterStats` counters,
:class:`~repro.serve.stats.ResilienceStats`, ad-hoc
``AsyncServeServer.counters()`` dicts, monitor events, and (new with the
obs plane) span-ring drop counts.  :class:`MetricsRegistry` reads all of
them behind one :meth:`~MetricsRegistry.collect` snapshot and renders it
as **Prometheus text format** and **JSON** — both derived from the *same*
snapshot object, so the two exports can never disagree with each other,
and every value is read straight off the authoritative stats object, so
they agree with ``ClusterStats`` counters exactly by construction.

**Frozen metric names.**  :data:`METRICS` is the complete catalogue,
governed by the same discipline as the frozen
:class:`~repro.serve.errors.ErrorCode` numbers: a metric may be *added*,
but an existing name, type, or label scheme never changes — dashboards
and alert rules depend on them across versions
(``tests/test_obs.py`` pins the catalogue; ``docs/observability.md`` is
the human-readable contract).  The registry refuses to emit a sample
under any name outside the catalogue.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Callable, NamedTuple

from repro.serve.backend import Backend
from repro.serve.obs.trace import Tracer
from repro.serve.stats import ClusterStats

__all__ = [
    "METRICS",
    "METRIC_NAMES",
    "MetricSpec",
    "MetricsRegistry",
    "to_json",
    "to_prometheus",
]


class MetricSpec(NamedTuple):
    name: str
    kind: str  # "counter" | "gauge" | "summary"
    help: str


# The frozen catalogue.  Append-only: never rename, retype, or relabel an
# existing entry (the stability contract in docs/observability.md).
METRICS: tuple[MetricSpec, ...] = (
    # --- serving totals (ServerStats roll-up of the attached backend) --- #
    MetricSpec("repro_serve_requests_total", "counter",
               "Submissions seen by the serve layer (cache hits included)"),
    MetricSpec("repro_serve_rows_total", "counter",
               "Rows that reached a micro-batcher"),
    MetricSpec("repro_serve_batches_total", "counter",
               "Micro-batch flushes executed"),
    MetricSpec("repro_serve_completed_total", "counter",
               "Requests whose flush finished scoring"),
    MetricSpec("repro_serve_flushes_total", "counter",
               "Flushes by trigger (label: trigger=size|deadline|manual; "
               "deadline is deprecated and reads 0)"),
    MetricSpec("repro_serve_abandoned_total", "counter",
               "Deprecated: always 0 (a timed-out wait leaves no ticket behind)"),
    MetricSpec("repro_serve_cache_hits_total", "counter",
               "Prediction-cache hits"),
    MetricSpec("repro_serve_cache_misses_total", "counter",
               "Prediction-cache misses"),
    MetricSpec("repro_serve_cache_evictions_total", "counter",
               "Prediction-cache LRU evictions"),
    MetricSpec("repro_serve_cache_invalidations_total", "counter",
               "Prediction-cache version/stage invalidations"),
    MetricSpec("repro_serve_cache_entries", "gauge",
               "Live prediction-cache entries"),
    MetricSpec("repro_serve_latency_seconds", "summary",
               "Per-request enqueue-to-completion latency "
               "(quantiles over the bounded ring sample)"),
    MetricSpec("repro_serve_latency_samples_dropped_total", "counter",
               "Latency-ring samples evicted by overwrite or roll-up "
               "decimation (silent-loss accounting)"),
    MetricSpec("repro_serve_models", "gauge",
               "Model names with live serving state"),
    # --- gateway / cluster front-door counters ------------------------- #
    MetricSpec("repro_gateway_tap_errors_total", "counter",
               "Monitoring-tap exceptions swallowed (all levels summed)"),
    MetricSpec("repro_cluster_steals_total", "counter",
               "Deprecated, always 0 (work stealing was removed)"),
    MetricSpec("repro_cluster_shards_live", "gauge",
               "Shards that answered the last stats fan-out"),
    # --- network edge (AsyncServeServer.counters) ---------------------- #
    MetricSpec("repro_edge_connections_total", "counter",
               "Accepted connections"),
    MetricSpec("repro_edge_requests_total", "counter",
               "Frames parsed as requests (shed included)"),
    MetricSpec("repro_edge_submitted_total", "counter",
               "Requests that reached backend.submit"),
    MetricSpec("repro_edge_responses_total", "counter",
               "Response frames handed to the transport"),
    MetricSpec("repro_edge_shed_total", "counter",
               "Requests answered OVERLOADED by admission control"),
    MetricSpec("repro_edge_wire_errors_total", "counter",
               "Frame-level failures (bad JSON, oversize, binary-at-edge)"),
    MetricSpec("repro_edge_in_flight", "gauge",
               "Submitted-but-unanswered requests right now"),
    # --- resilience plane (ResilienceStats fields 1:1) ----------------- #
    MetricSpec("repro_resilience_submits_total", "counter",
               "Requests accepted by the retry front door"),
    MetricSpec("repro_resilience_retries_total", "counter",
               "Re-submissions performed"),
    MetricSpec("repro_resilience_recovered_total", "counter",
               "Requests that succeeded after >= 1 retry"),
    MetricSpec("repro_resilience_failed_fast_total", "counter",
               "Non-retryable coded failures (zero retries)"),
    MetricSpec("repro_resilience_exhausted_total", "counter",
               "Retryable failures that ran out of deadline"),
    MetricSpec("repro_resilience_breaker_opens_total", "counter",
               "Circuit transitions closed -> open"),
    MetricSpec("repro_resilience_breaker_probes_total", "counter",
               "Half-open trial requests allowed through"),
    MetricSpec("repro_resilience_breaker_closes_total", "counter",
               "Half-open -> closed recoveries"),
    MetricSpec("repro_resilience_respawns_total", "counter",
               "Shard workers rebuilt by the supervisor"),
    MetricSpec("repro_resilience_respawn_failures_total", "counter",
               "Respawn attempts that raised"),
    # --- monitor plane ------------------------------------------------- #
    MetricSpec("repro_monitor_events_total", "counter",
               "Policy-engine events by coded class (label: code)"),
    # --- the obs plane's own accounting -------------------------------- #
    MetricSpec("repro_obs_spans_total", "counter",
               "Spans recorded per component ring (label: component)"),
    MetricSpec("repro_obs_spans_dropped_total", "counter",
               "Spans evicted by ring overwrite per component "
               "(label: component; silent-loss accounting)"),
)

METRIC_NAMES = frozenset(spec.name for spec in METRICS)
_SPEC_BY_NAME = {spec.name: spec for spec in METRICS}

_QUANTILES = ((50.0, "0.5"), (99.0, "0.99"), (99.9, "0.999"))

# ResilienceStats field -> metric name (order matches the catalogue)
_RESILIENCE_FIELDS = (
    "submits", "retries", "recovered", "failed_fast", "exhausted",
    "breaker_opens", "breaker_probes", "breaker_closes",
    "respawns", "respawn_failures",
)


class MetricsRegistry:
    """Collect every attached source into one catalogue-shaped snapshot.

    Sources attach once (``add_*``); :meth:`collect` reads them all at
    call time, so the snapshot is always current.  All sources are
    optional — a registry over just a gateway exports the serve families
    and nothing else.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._backend: Any = None            # root Backend: Gateway/ClusterStats
        self._server: Any = None             # .counters() -> edge dict
        self._tracers: list[Tracer] = []
        self._resilience: list[Any] = []     # .stats() -> ResilienceStats
        self._event_sources: list[Callable[[], Any]] = []  # -> MonitorEvents

    # ------------------------------------------------------------------ #
    def add_backend(self, backend: Any) -> "MetricsRegistry":
        """Attach a :class:`~repro.serve.backend.Backend`.  The root of its
        decorator chain (gateway or cluster) is the source of the
        ``repro_serve_*`` / ``repro_gateway_*`` / ``repro_cluster_*``
        families; each decorator above it (a ``RetryController``) is a
        ``repro_resilience_*`` source, exactly as :meth:`add_resilience`."""
        with self._lock:
            while isinstance(backend, Backend) and backend.wrapped is not None:
                if backend not in self._resilience:
                    self._resilience.append(backend)
                backend = backend.wrapped
            self._backend = backend
        return self

    def add_server(self, server: Any) -> "MetricsRegistry":
        """Attach the network edge (``repro_edge_*``, via ``counters()``)."""
        with self._lock:
            self._server = server
        return self

    def add_tracer(self, tracer: Tracer) -> "MetricsRegistry":
        """Attach a span tracer (``repro_obs_*``; duplicates ignored)."""
        with self._lock:
            if tracer not in self._tracers:
                self._tracers.append(tracer)
        return self

    def add_resilience(self, source: Any) -> "MetricsRegistry":
        """Attach a retry controller / supervisor (``repro_resilience_*``;
        multiple sources sum field-wise, mirroring ResilienceStats)."""
        with self._lock:
            if source not in self._resilience:
                self._resilience.append(source)
        return self

    def add_events(self, provider: Callable[[], Any]) -> "MetricsRegistry":
        """Attach a monitor-event provider — a zero-arg callable returning
        an iterable of events with a ``code`` attribute (e.g.
        ``lambda: plane.events``) — counted by code into
        ``repro_monitor_events_total``."""
        with self._lock:
            self._event_sources.append(provider)
        return self

    # ------------------------------------------------------------------ #
    def collect(self) -> dict[str, Any]:
        """One point-in-time snapshot of every attached source.

        Returns ``{"families": {name: {"type", "help", "samples"}}}``
        where each sample is ``[suffix, labels, value]`` (suffix is
        ``"_sum"``/``"_count"`` for summary components, else ``""``).
        Families with no attached source are omitted; JSON-safe by
        construction, and both exporters render from this exact object.
        """
        with self._lock:
            backend = self._backend
            server = self._server
            tracers = list(self._tracers)
            resilience = list(self._resilience)
            event_sources = list(self._event_sources)

        families: dict[str, dict[str, Any]] = {}

        def emit(name: str, value: float, labels: dict[str, str] | None = None,
                 suffix: str = "") -> None:
            spec = _SPEC_BY_NAME.get(name)
            if spec is None:  # the freeze discipline, enforced at the source
                raise KeyError(f"metric {name!r} is not in the frozen catalogue")
            fam = families.setdefault(
                name, {"type": spec.kind, "help": spec.help, "samples": []}
            )
            fam["samples"].append([suffix, labels or {}, value])

        if backend is not None:
            self._collect_backend(backend, emit)
        if server is not None:
            c = server.counters()
            emit("repro_edge_connections_total", int(c["connections"]))
            emit("repro_edge_requests_total", int(c["requests"]))
            emit("repro_edge_submitted_total", int(c["submitted"]))
            emit("repro_edge_responses_total", int(c["responses"]))
            emit("repro_edge_shed_total", int(c["shed"]))
            emit("repro_edge_wire_errors_total", int(c["wire_errors"]))
            emit("repro_edge_in_flight", int(c["in_flight"]))
        if resilience:
            snaps = [source.stats() for source in resilience]
            for field in _RESILIENCE_FIELDS:
                emit(f"repro_resilience_{field}_total",
                     sum(int(getattr(st, field)) for st in snaps))
        if event_sources:
            by_code: dict[str, int] = {}
            for provider in event_sources:
                for event in provider():
                    code = getattr(event, "code", None)
                    key = code.name if code is not None else "UNCODED"
                    by_code[key] = by_code.get(key, 0) + 1
            for key in sorted(by_code):
                emit("repro_monitor_events_total", by_code[key], {"code": key})
        for tracer in tracers:
            recorded = tracer.recorded()
            dropped = tracer.dropped()
            for comp in sorted(recorded):
                emit("repro_obs_spans_total", recorded[comp],
                     {"component": comp})
                emit("repro_obs_spans_dropped_total", dropped.get(comp, 0),
                     {"component": comp})
        return {"families": families}

    @staticmethod
    def _collect_backend(backend: Any, emit: Any) -> None:
        st = backend.stats()
        total = st.total
        emit("repro_serve_requests_total", int(total.requests))
        emit("repro_serve_rows_total", int(total.rows))
        emit("repro_serve_batches_total", int(total.batches))
        emit("repro_serve_completed_total", int(total.completed))
        emit("repro_serve_flushes_total", int(total.size_flushes),
             {"trigger": "size"})
        emit("repro_serve_flushes_total", int(total.deadline_flushes),
             {"trigger": "deadline"})
        emit("repro_serve_flushes_total", int(total.manual_flushes),
             {"trigger": "manual"})
        emit("repro_serve_abandoned_total", int(total.abandoned))
        emit("repro_serve_cache_hits_total", int(total.cache_hits))
        emit("repro_serve_cache_misses_total", int(total.cache_misses))
        emit("repro_serve_cache_evictions_total", int(total.cache_evictions))
        emit("repro_serve_cache_invalidations_total",
             int(total.cache_invalidations))
        emit("repro_serve_cache_entries", int(total.cache_entries))
        for q, label in _QUANTILES:
            emit("repro_serve_latency_seconds", total.percentile_ms(q) / 1e3,
                 {"quantile": label})
        emit("repro_serve_latency_seconds", float(total.total_latency_s),
             suffix="_sum")
        emit("repro_serve_latency_seconds", int(total.completed),
             suffix="_count")
        emit("repro_serve_latency_samples_dropped_total",
             int(total.latency_dropped))
        emit("repro_serve_models", len(st.per_name))
        if isinstance(st, ClusterStats):  # one more rollup level
            emit("repro_gateway_tap_errors_total", int(st.tap_errors_total))
            emit("repro_cluster_steals_total", int(st.steals))
            emit("repro_cluster_shards_live", len(st.per_shard))
        else:
            emit("repro_gateway_tap_errors_total", int(st.tap_errors))

    # ------------------------------------------------------------------ #
    def prometheus(self) -> str:
        return to_prometheus(self.collect())

    def json(self) -> str:
        return to_json(self.collect())


# ---------------------------------------------------------------------- #
# exporters — both render the same collect() snapshot
# ---------------------------------------------------------------------- #
def _format_value(value: Any) -> str:
    if isinstance(value, bool):  # bool is an int; be explicit
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _format_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{str(v).replace(chr(92), chr(92) * 2).replace(chr(34), chr(92) + chr(34))}"'
        for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def to_prometheus(snapshot: dict[str, Any]) -> str:
    """Render one :meth:`MetricsRegistry.collect` snapshot as Prometheus
    text exposition format (HELP/TYPE headers + samples)."""
    lines: list[str] = []
    for name, fam in snapshot["families"].items():
        lines.append(f"# HELP {name} {fam['help']}")
        lines.append(f"# TYPE {name} {fam['type']}")
        for suffix, labels, value in fam["samples"]:
            lines.append(
                f"{name}{suffix}{_format_labels(labels)} {_format_value(value)}"
            )
    return "\n".join(lines) + "\n"


def to_json(snapshot: dict[str, Any]) -> str:
    """Render the same snapshot as a stable JSON document (the shape the
    ``metrics`` op frame ships when ``fmt="json"``)."""
    return json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
