"""One front door for a served model: registry + micro-batcher + cache.

:class:`InferenceService` binds a registry *name* (not a model object):
every flush resolves the current production version, so promotes and
rollbacks take effect at the next batch boundary with no coordination.
``submit`` consults the prediction cache first — keys carry the production
version, so a hit is always consistent with the model that would score a
miss — and completed batch results are inserted back for the next
duplicate request.  Stage changes invalidate the name's cache entries via
the registry listener hook.
"""

from __future__ import annotations

import threading
from typing import Any

import numpy as np

from repro.serve.batcher import MicroBatcher, Ticket
from repro.serve.cache import PredictionCache, request_digest
from repro.serve.registry import ModelRegistry
from repro.serve.stats import ServerStats

__all__ = ["InferenceService", "CompletedTicket"]


class CompletedTicket:
    """A cache hit, shaped like a :class:`~repro.serve.batcher.Ticket`."""

    __slots__ = ("_value",)

    def __init__(self, value: Any):
        self._value = value

    def done(self) -> bool:
        return True

    def result(self, timeout: float | None = None) -> Any:
        return self._value


class InferenceService:
    """Batched, cached serving of one registry name."""

    def __init__(
        self,
        registry: ModelRegistry,
        name: str,
        max_batch: int = 256,
        max_delay: float = 0.005,
        cache_entries: int = 4096,
        on_scored: Any = None,
    ):
        self.registry = registry
        self.name = name
        self.cache = PredictionCache(cache_entries)
        # optional observation hook fn(ticket, value), called per scored
        # ticket before the cache insert — the gateway's monitoring taps
        # ride here.  Purely observational: errors are swallowed upstream
        # (the batcher already guards its on_result callback) and the
        # value is never replaced, so the scoring path stays bit-identical
        self._on_scored = on_scored
        self._scoring = threading.local()  # version that scored the running flush
        self.batcher = MicroBatcher(
            self._resolve,
            max_batch=max_batch,
            max_delay=max_delay,
            on_result=self._insert_result,
        )
        registry.add_listener(self._on_stage_change)

    # ------------------------------------------------------------------ #
    def _resolve(self) -> Any:
        mv = self.registry.get_version(self.name)
        # _resolve and _insert_result both run in the flushing thread, so a
        # thread-local safely ties each result to the version that scored it
        self._scoring.version = mv.version
        return mv.model

    def _on_stage_change(self, name: str, version: int, action: str) -> None:
        if name != self.name:
            return
        if action == "unregister":
            # surgical: reclaim only the dropped version's entries — the
            # production version's warm hits survive the retrain loop
            self.cache.invalidate(name, version)
        elif action in ("promote", "rollback"):
            self.cache.invalidate(name)
        # other actions (e.g. "set_reference") don't move the production
        # alias, so the version-keyed entries stay exactly as valid

    def _insert_result(self, ticket: Ticket, value: Any) -> None:
        if self._on_scored is not None:
            try:
                self._on_scored(ticket, value)
            except Exception:
                pass  # observation must never fail (or re-order) a request
        # Only cache when the submit-time key version matches the version
        # that actually scored the flush: a promote landing between submit
        # and flush must not file the new model's number under the old
        # version's key (where a later rollback could hit it).
        if ticket.token is not None and ticket.token[1] == getattr(
            self._scoring, "version", None
        ):
            self.cache.put(ticket.token, value)

    # ------------------------------------------------------------------ #
    def submit(
        self, row: np.ndarray, kind: str = "predict", trace: Any = None
    ) -> Ticket | CompletedTicket:
        """Enqueue one request; returns a ticket whose ``result()`` blocks.

        The cache key binds the request bytes to the *current* production
        version; a promote between submit and flush therefore yields a
        result from the new model under a key that can never collide with
        the old version's entries.  ``trace`` optionally carries a
        :class:`~repro.serve.obs.trace.TraceContext` down to the batcher
        (a cache hit records nothing — there is no queue to wait in).
        """
        # private copy before digesting: the cache key must describe the
        # exact bytes that get scored even if the caller reuses the buffer
        arr = np.array(row, dtype=float)
        version = self.registry.production_version(self.name)
        key = (self.name, version, kind, request_digest(arr))
        found, value = self.cache.get(key)
        if found:
            return CompletedTicket(value)
        # copy=False: `arr` is already our private copy — nothing else
        # holds it, so the batcher can take it without copying again
        return self.batcher.submit(arr, kind=kind, token=key, copy=False,
                                   trace=trace)

    def predict(self, row: np.ndarray, timeout: float | None = None) -> Any:
        return self.submit(row).result(timeout)

    def predict_dist(self, row: np.ndarray, timeout: float | None = None) -> Any:
        return self.submit(row, kind="predict_dist").result(timeout)

    def flush(self) -> int:
        return self.batcher.flush()

    def close(self) -> None:
        """Idempotent teardown (``MicroBatcher.close`` drains once and is a
        no-op after; listener removal tolerates absence) — safe under the
        gateway's ``__del__``/atexit path even on a half-built service."""
        batcher = getattr(self, "batcher", None)
        if batcher is not None:
            batcher.close()
        registry = getattr(self, "registry", None)
        if registry is not None:
            registry.remove_listener(self._on_stage_change)

    def __enter__(self) -> "InferenceService":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def stats(self) -> ServerStats:
        """Point-in-time counter snapshot for dashboards and benches.

        Batcher and cache counters are sampled without one global lock, so
        under concurrent traffic the cross-source totals can be off by the
        handful of requests that landed mid-snapshot — monitoring
        accuracy, not accounting accuracy.
        """
        c = self.batcher.counters()
        return ServerStats(
            requests=int(c["requests"]) + self.cache.hits,
            rows=int(c["rows"]),
            batches=int(c["batches"]),
            completed=int(c["completed"]),
            size_flushes=int(c["size_flushes"]),
            deadline_flushes=int(c["deadline_flushes"]),
            manual_flushes=int(c["manual_flushes"]),
            abandoned=int(c["abandoned"]),
            latency_dropped=int(c["latency_dropped"]),
            cache_hits=self.cache.hits,
            cache_misses=self.cache.misses,
            cache_evictions=self.cache.evictions,
            cache_invalidations=self.cache.invalidations,
            cache_entries=len(self.cache),
            total_latency_s=float(c["total_latency_s"]),
            latency_samples=self.batcher.latency_snapshot(),
        )
