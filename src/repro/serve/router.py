"""Multi-model serving gateway: one front door for the whole registry.

The taxonomy paper's deployment findings (per-system drift, §VIII) mean a
production deployment runs *many* models — one per system, per metric, per
retrain generation — side by side.  :class:`ServingGateway` fronts all of
them with a single ``submit(name, row, kind)``: the first request for a
name lazily stands up a dedicated
:class:`~repro.serve.service.InferenceService` (its own micro-batcher and
prediction cache), so one name's traffic shape — or one name's malformed
requests — never perturbs another's batches.  Per-name configuration
overrides apply at service creation, so a live service's limits never
change; :meth:`stats` rolls every service's counters into one
:class:`~repro.serve.stats.GatewayStats`; :meth:`close` tears the fleet
down in one call.

The gateway adds no scoring path of its own — every numeric guarantee of
the single-model stack (bit-identical micro-batching, version-keyed
caching, promote/rollback at batch boundaries) holds per name, unchanged.

The gateway is a :class:`~repro.serve.backend.Backend` and a
:class:`~repro.serve.backend.TapHost`: a tap's ``on_request`` fires per
submission and ``on_result`` per scored ticket (cache hits skip scoring,
so they are request-observed only).  A raising tap is swallowed and
counted, never failing, delaying a flush of, or altering a request —
which is what lets the online monitoring plane
(:mod:`repro.serve.monitor`) guarantee monitored serving stays
bit-identical to unmonitored serving.
"""

from __future__ import annotations

import threading
from typing import Any

import numpy as np

from repro.serve.backend import UNSAMPLED, Backend, TapHost
from repro.serve.batcher import Ticket
from repro.serve.errors import ErrorCode, coded
from repro.serve.registry import ModelRegistry
from repro.serve.service import CompletedTicket, InferenceService
from repro.serve.stats import GatewayStats

__all__ = ["ServingGateway"]

# per-name override keys, read once when the name's service is created
_CONFIG_KEYS = frozenset({"max_batch", "max_delay", "cache_entries"})


class ServingGateway(TapHost, Backend):
    """Route requests for any registered name to a per-name service.

    Parameters
    ----------
    registry:
        The shared :class:`~repro.serve.registry.ModelRegistry`.  The
        gateway never registers or promotes — rollout stays a registry
        concern; it only reads.
    max_batch, max_delay, cache_entries:
        Defaults for every lazily-created per-name service; override
        per name with :meth:`configure`.
    tracer:
        Optional :class:`~repro.serve.obs.trace.Tracer`.  When set, every
        ``trace_sample``-th ``submit`` without an inbound trace context
        starts one (the in-process birth point the net edge otherwise
        provides), records a gateway ``route`` span, and threads the
        context down to the batcher.  ``None`` (the default) keeps the
        request path free of any tracing branch beyond one ``is None``
        check.
    trace_sample:
        Auto-born traces sample 1-in-``trace_sample`` submissions
        (deterministic stride over the submit counter, same dial as the
        monitor plane's profile ``sample``) — the knob that keeps span
        cost flat as request rates grow.  An *inbound* ``trace=`` context
        (a client-chosen wire trace id) is always honoured, never
        sampled: explicit trace retrieval stays exact.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        max_batch: int = 256,
        max_delay: float = 0.005,
        cache_entries: int = 4096,
        tracer: Any = None,
        trace_sample: int = 1,
    ):
        super().__init__()
        self._init_tracing(tracer, trace_sample)
        self.registry = registry
        self._defaults: dict[str, Any] = {
            "max_batch": int(max_batch),
            "max_delay": float(max_delay),
            "cache_entries": int(cache_entries),
        }
        self._overrides: dict[str, dict[str, Any]] = {}
        self._services: dict[str, InferenceService] = {}
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------ #
    def configure(self, name: str, **overrides: Any) -> None:
        """Set per-name service options (``max_batch``, ``max_delay``,
        ``cache_entries``) before the name's service is created.

        The overrides apply when the service is created on the name's
        first request.  Once it is live they are refused: its batch
        limits are fixed at construction.
        """
        bad = set(overrides) - _CONFIG_KEYS
        if bad:
            raise ValueError(f"unknown config keys {sorted(bad)}; valid: {sorted(_CONFIG_KEYS)}")
        # validate values now — a bad override must fail here, not on the
        # first request for the name (and never persist past a raise)
        if overrides.get("max_batch") is not None and overrides["max_batch"] < 1:
            raise ValueError("max_batch must be >= 1")
        if overrides.get("max_delay") is not None and overrides["max_delay"] <= 0:
            raise ValueError("max_delay must be > 0")
        if overrides.get("cache_entries") is not None and overrides["cache_entries"] < 1:
            raise ValueError("cache_entries must be >= 1")
        with self._lock:
            if overrides and name in self._services:
                raise ValueError(
                    f"{sorted(overrides)} cannot change on the live service for {name!r}"
                )
            self._overrides.setdefault(name, {}).update(overrides)

    def service(self, name: str) -> InferenceService:
        """The per-name service, created on first use."""
        with self._lock:
            if self._closed:
                raise coded(RuntimeError("ServingGateway is closed"), ErrorCode.CLOSED)
            svc = self._services.get(name)
            if svc is None:
                if name not in self.registry.names():
                    raise coded(LookupError(f"unknown model name {name!r}"),
                                ErrorCode.UNKNOWN_MODEL)
                cfg = {**self._defaults, **self._overrides.get(name, {})}
                svc = InferenceService(
                    self.registry, name, **cfg,
                    on_scored=lambda t, v, _n=name: self._notify_result(_n, t, v),
                )
                self._services[name] = svc
            return svc

    # ------------------------------------------------------------------ #
    def submit(
        self, name: str, row: np.ndarray, kind: str = "predict", *, trace: Any = None
    ) -> Ticket | CompletedTicket:
        """Enqueue one request (or one (m, d) block) for ``name``; returns
        its ticket.

        ``trace`` adopts an inbound
        :class:`~repro.serve.obs.trace.TraceContext` (the net edge's);
        with none given and a ``tracer`` configured, a fresh context is
        born here — the in-process entry point of the stack — for every
        ``trace_sample``-th submission; :data:`~repro.serve.backend.UNSAMPLED`
        (an upstream layer sampled the request out) traces nothing.
        """
        if trace is None:
            if self._tracer is not None:
                trace = self._sampled_trace()
        elif trace is UNSAMPLED:
            trace = None
        if trace is not None:
            t0 = trace.now()
            ticket = self.service(name).submit(row, kind=kind, trace=trace)
            trace.record("gateway", "route", t0, trace.now(), meta={"name": name})
        else:
            ticket = self.service(name).submit(row, kind=kind)
        if self._request_taps:
            # hand taps the ticket's private block (nothing mutates it after
            # submission, so observers may retain it without copying); a
            # cache hit has no block — copy the caller's row for the same
            # retention guarantee
            block = getattr(ticket, "block", None)
            self._notify_request(
                name, block if block is not None else np.array(row, dtype=float), kind
            )
        return ticket

    def flush(self, name: str | None = None) -> int:
        """Force-score pending requests for one name (or every name).

        Only live services flush — a name that never received traffic has
        nothing pending, and flushing it must not stand up a service."""
        with self._lock:
            if name is not None:
                services = [s for s in (self._services.get(name),) if s is not None]
            else:
                services = list(self._services.values())
        # score outside the gateway lock: an inline flush must not block
        # routing for every other name
        return sum(svc.flush() for svc in services)

    # ------------------------------------------------------------------ #
    def names(self) -> list[str]:
        """Names with a live service (a subset of the registry's names)."""
        with self._lock:
            return sorted(self._services)

    def stats(self) -> GatewayStats:
        """Per-name snapshots plus their aggregate (see
        :class:`~repro.serve.stats.GatewayStats`)."""
        with self._lock:
            services = dict(self._services)
        return GatewayStats(
            per_name={n: s.stats() for n, s in services.items()},
            tap_errors=self._tap_errors,
        )

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Flush and close every service; idempotent.  The registry stays
        untouched — it usually outlives the gateway.

        Safe to call any number of times, from ``__del__``, or from an
        :mod:`atexit` hook: a partially-constructed gateway (an
        ``__init__`` that raised before it opened) is a no-op, and a
        second close never re-tears-down the services."""
        if self._closed:
            return
        with self._lock:
            if self._closed:
                return
            self._closed = True
            services = list(self._services.values())
        for svc in services:
            svc.close()
