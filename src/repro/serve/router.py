"""Multi-model serving gateway: one front door for the whole registry.

The taxonomy paper's deployment findings (per-system drift, §VIII) mean a
production deployment runs *many* models — one per system, per metric, per
retrain generation — side by side.  :class:`ServingGateway` fronts all of
them with a single ``submit(name, row, kind)``: the first request for a
name lazily stands up that name's own
:class:`~repro.serve.batcher.MicroBatcher` and
:class:`~repro.serve.cache.PredictionCache`, so one name's traffic shape —
or one name's malformed requests — never perturbs another's batches.
Every name gets the limits the gateway was built with; :meth:`stats`
rolls every name's counters into one
:class:`~repro.serve.stats.GatewayStats`; :meth:`close` tears the fleet
down in one call.

A name's batcher binds the registry *name*, not a model object: every
flush resolves the current production version, so promotes and rollbacks
take effect at the next batch boundary with no coordination.  ``submit``
consults the name's cache first — keys carry the production version, so a
hit is always consistent with the model that would score a miss — and
scored results are inserted back for the next duplicate request (HPC
streams repeat job signatures, §VI.A).  Stage changes reach the caches
through one registry listener per gateway.  Every numeric guarantee of
the batcher (bit-identical micro-batching, FIFO) holds per name,
unchanged.

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
from repro.serve.batcher import CompletedTicket, MicroBatcher, Ticket
from repro.serve.cache import PredictionCache, request_digest
from repro.serve.errors import ErrorCode, coded
from repro.serve.registry import ModelRegistry
from repro.serve.stats import GatewayStats, ServerStats

__all__ = ["ServingGateway"]


def check_limits(max_batch: int, max_delay: float,
                 cache_entries: int) -> tuple[int, float, int]:
    """The per-name limits, typed; a bad one is a ``ValueError`` here, at
    construction, not a client-facing error on every request."""
    if max_batch < 1:
        raise ValueError("max_batch must be >= 1")
    if max_delay <= 0:
        raise ValueError("max_delay must be > 0")
    if cache_entries < 1:
        raise ValueError("cache_entries must be >= 1")
    return int(max_batch), float(max_delay), int(cache_entries)


class _PerName:
    """One name's batcher and cache."""

    __slots__ = ("batcher", "cache")

    def __init__(self, gateway: "ServingGateway", name: str):
        registry = gateway.registry
        cache = self.cache = PredictionCache(gateway.cache_entries)
        # the version that scored the running flush: resolve and insert
        # both run in the flushing thread, so a thread-local ties each
        # result to its scorer even when two flushes overlap
        scoring = threading.local()

        def resolve() -> Any:
            mv = registry.get_version(name)
            scoring.version = mv.version
            return mv.model

        def insert(ticket: Ticket, value: Any) -> None:
            if gateway._result_taps:
                gateway._notify_result(name, ticket, value)
            # Only cache when the submit-time key version matches the
            # version that scored the flush: a promote landing between
            # submit and flush must not file the new model's number under
            # the old version's key (where a later rollback could hit it).
            if ticket.token[1] == getattr(scoring, "version", None):
                cache.put(ticket.token, value)

        self.batcher = MicroBatcher(resolve, max_batch=gateway.max_batch,
                                    max_delay=gateway.max_delay, on_result=insert)

    def stats(self) -> ServerStats:
        # batcher and cache are sampled without one global lock: under
        # traffic the totals can be off by the requests that landed
        # mid-snapshot (monitoring accuracy, not accounting accuracy)
        c, cache = self.batcher.counters(), self.cache
        return ServerStats(
            requests=int(c["requests"]) + cache.hits,
            rows=int(c["rows"]),
            batches=int(c["batches"]),
            completed=int(c["completed"]),
            size_flushes=int(c["size_flushes"]),
            deadline_flushes=int(c["deadline_flushes"]),
            manual_flushes=int(c["manual_flushes"]),
            abandoned=int(c["abandoned"]),
            latency_dropped=int(c["latency_dropped"]),
            cache_hits=cache.hits,
            cache_misses=cache.misses,
            cache_evictions=cache.evictions,
            cache_invalidations=cache.invalidations,
            cache_entries=len(cache),
            total_latency_s=float(c["total_latency_s"]),
            latency_samples=self.batcher.latency_snapshot(),
        )


class ServingGateway(TapHost, Backend):
    """Route requests for any registered name to its own batcher and cache.

    Parameters
    ----------
    registry:
        The shared :class:`~repro.serve.registry.ModelRegistry`.  The
        gateway never registers or promotes — rollout stays a registry
        concern; it only reads.
    max_batch, max_delay, cache_entries:
        Every name's batch size and delay limits and cache capacity,
        fixed at construction (a value out of range is a ``ValueError``).
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
        self.max_batch, self.max_delay, self.cache_entries = check_limits(
            max_batch, max_delay, cache_entries)
        self.registry = registry
        self._per_name: dict[str, _PerName] = {}
        self._lock = threading.Lock()
        registry.add_listener(self._on_stage_change)
        self._closed = False

    # ------------------------------------------------------------------ #
    def _open(self, name: str) -> _PerName:
        """The name's batcher and cache, created on first use."""
        with self._lock:
            if self._closed:
                raise coded(RuntimeError("ServingGateway is closed"), ErrorCode.CLOSED)
            entry = self._per_name.get(name)
            if entry is None:
                if name not in self.registry.names():
                    raise coded(LookupError(f"unknown model name {name!r}"),
                                ErrorCode.UNKNOWN_MODEL)
                entry = self._per_name[name] = _PerName(self, name)
            return entry

    def _on_stage_change(self, name: str, version: int, action: str) -> None:
        entry = self._per_name.get(name)
        if entry is None:
            return
        if action == "unregister":
            # surgical: reclaim only the dropped version's entries — the
            # production version's warm hits survive the retrain loop
            entry.cache.invalidate(name, version)
        elif action in ("promote", "rollback"):
            entry.cache.invalidate(name)
        # other actions (e.g. "set_reference") don't move the production
        # alias, so the version-keyed entries stay exactly as valid

    # ------------------------------------------------------------------ #
    def submit(
        self, name: str, row: np.ndarray, kind: str = "predict", *, trace: Any = None
    ) -> Ticket | CompletedTicket:
        """Enqueue one request (or one (m, d) block) for ``name``; returns
        its ticket (a :class:`~repro.serve.batcher.CompletedTicket` on a
        cache hit).

        The cache key binds the request bytes to the *current* production
        version; a promote between submit and flush therefore yields a
        result from the new model under a key that can never collide with
        the old version's entries.

        ``trace`` adopts an inbound
        :class:`~repro.serve.obs.trace.TraceContext` (the net edge's);
        with none given and a ``tracer`` configured, a fresh context is
        born here — the in-process entry point of the stack — for every
        ``trace_sample``-th submission; :data:`~repro.serve.backend.UNSAMPLED`
        (an upstream layer sampled the request out) traces nothing.  A
        cache hit records only the ``route`` span: there is no queue to
        wait in.
        """
        if trace is None:
            if self._tracer is not None:
                trace = self._sampled_trace()
        elif trace is UNSAMPLED:
            trace = None
        if trace is not None:
            t0 = trace.now()
        entry = self._per_name.get(name)
        if entry is None or self._closed:
            entry = self._open(name)
        # private copy before digesting: the cache key must describe the
        # exact bytes that get scored even if the caller reuses the buffer
        arr = np.array(row, dtype=float)
        key = (name, self.registry.production_version(name), kind, request_digest(arr))
        found, value = entry.cache.get(key)
        if found:
            ticket = CompletedTicket(value)
        else:
            # copy=False: `arr` is already our private copy — nothing else
            # holds it, so the batcher can take it without copying again
            ticket = entry.batcher.submit(arr, kind=kind, token=key, copy=False,
                                          trace=trace)
        if trace is not None:
            trace.record("gateway", "route", t0, trace.now(), meta={"name": name})
        if self._request_taps:
            # taps get the private block (nothing mutates it after
            # submission, so observers may retain it without copying)
            self._notify_request(name, arr if found else ticket.block, kind)
        return ticket

    def flush(self, name: str | None = None) -> int:
        """Force-score pending requests for one name (or every name).

        Only live names flush — a name that never received traffic has
        nothing pending, and flushing it must not stand up a batcher."""
        with self._lock:
            if name is not None:
                entries = [e for e in (self._per_name.get(name),) if e is not None]
            else:
                entries = list(self._per_name.values())
        # score outside the gateway lock: an inline flush must not block
        # routing for every other name
        return sum(e.batcher.flush() for e in entries)

    # ------------------------------------------------------------------ #
    def names(self) -> list[str]:
        """Names that have received a request (a subset of the registry's)."""
        with self._lock:
            return sorted(self._per_name)

    def stats(self) -> GatewayStats:
        """Per-name snapshots plus their aggregate (see
        :class:`~repro.serve.stats.GatewayStats`)."""
        with self._lock:
            entries = dict(self._per_name)
        return GatewayStats(
            per_name={n: e.stats() for n, e in entries.items()},
            tap_errors=self._tap_errors,
        )

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Flush and close every name's batcher and drop the registry
        listener; idempotent.  The registry stays untouched otherwise — it
        usually outlives the gateway.

        Safe to call any number of times, from ``__del__``, or from an
        :mod:`atexit` hook: a partially-constructed gateway (an
        ``__init__`` that raised before it opened) is a no-op, and a
        second close never re-tears-down the batchers."""
        if self._closed:
            return
        with self._lock:
            if self._closed:
                return
            self._closed = True
            entries = list(self._per_name.values())
        for entry in entries:
            entry.batcher.close()
        self.registry.remove_listener(self._on_stage_change)
