"""The ``Backend`` contract: one shape for every serving front door.

:class:`~repro.serve.router.ServingGateway`,
:class:`~repro.serve.shard.ShardedServingCluster` and
:class:`~repro.serve.resilience.RetryController` implement ``submit``,
``stats`` and ``close`` (and may override ``submit_block`` and
``trace_spans``); the predict helpers, the lifecycle, the tracer chain
and the sampled trace birth are defined here once.  A **decorator** is a
backend over another backend, named by :attr:`Backend.wrapped`.
Whoever constructs a backend closes it: a decorator's ``close`` never
closes what it wraps.  ``docs/serving.md`` ("Backend contract") has the
full table.
"""

from __future__ import annotations

import itertools
import threading
from abc import ABC, abstractmethod
from typing import Any

import numpy as np

from repro.serve.errors import CodedError, ErrorCode

__all__ = ["UNSAMPLED", "Backend", "TapHost", "as_block", "empty_export", "merge_export"]


class _Unsampled:
    """The ``trace=`` of a request an upstream layer sampled out.

    The first layer with a tracer (the edge, or a retry controller)
    decides sampling for the whole stack: a backend handed this records
    nothing and births no trace of its own.  It answers ``now`` and
    ``record`` like a context that drops everything, so a decorator can
    pass it through without a branch."""

    __slots__ = ()
    trace_id = None

    def now(self) -> float:
        return 0.0

    def record(self, *args: Any, **kwargs: Any) -> None:
        pass


UNSAMPLED = _Unsampled()


def empty_export() -> dict[str, Any]:
    """A span export with nothing in it (the shape of ``Tracer.export``)."""
    return {"spans": [], "dropped": {}, "recorded": {}}


def merge_export(dst: dict[str, Any], src: dict[str, Any]) -> dict[str, Any]:
    """Fold one span export into another: spans concatenate, the
    per-component drop/recorded counters sum."""
    dst["spans"].extend(src["spans"])
    for key in ("dropped", "recorded"):
        for comp, n in src[key].items():
            dst[key][comp] = dst[key].get(comp, 0) + n
    return dst


def as_block(X: Any) -> np.ndarray:
    """``X`` as a float (m, d) block; anything else is ``MALFORMED_REQUEST``."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise CodedError(f"block must be 2-D, got ndim={X.ndim}",
                         code=ErrorCode.MALFORMED_REQUEST)
    return X


class Backend(ABC):
    """Base of every serving front door (see the module docstring)."""

    wrapped: "Backend | None" = None  # what a decorator wraps
    route: str | None = None          # "hash": a name's requests go to shard_of(name)
    _tracer: Any = None               # span sink; None keeps paths trace-free
    _closed = True                    # until __init__ owns its resources

    def _init_tracing(self, tracer: Any, trace_sample: int = 1) -> None:
        if trace_sample < 1:
            raise ValueError("trace_sample must be >= 1")
        self._tracer = tracer
        self._trace_sample = int(trace_sample)
        self._trace_tick = itertools.count()  # atomic under the GIL

    def _sampled_trace(self) -> Any:
        """A fresh trace for every ``trace_sample``-th untraced request
        (deterministic stride), else ``None``.  Callers call it only for
        ``trace is None`` with a tracer set, and turn an inbound
        :data:`UNSAMPLED` into ``None`` instead — so an untraced backend
        still pays one identity and one attribute test per request."""
        if next(self._trace_tick) % self._trace_sample == 0:
            return self._tracer.start_trace()
        return None

    @abstractmethod
    def submit(self, name: str, row: np.ndarray, kind: str = "predict", *,
               trace: Any = None) -> Any:
        """Enqueue one request; returns a ticket whose ``result()`` blocks."""

    def submit_block(self, name: str, X: np.ndarray, kind: str = "predict", *,
                     trace: Any = None) -> Any:
        """Enqueue one (m, d) block as a single request."""
        return self.submit(name, as_block(X), kind, trace=trace)

    @abstractmethod
    def stats(self) -> Any:
        """A point-in-time stats snapshot."""

    def trace_spans(self, trace_id: str | None = None) -> dict[str, Any]:
        """Recorded spans (all, or one trace's): the wrapped backend's,
        plus this backend's own tracer unless the wrapped one shares it."""
        inner = self.wrapped
        out = empty_export() if inner is None else inner.trace_spans(trace_id)
        if self._tracer is not None and (inner is None or self._tracer not in inner.tracers()):
            merge_export(out, self._tracer.export(trace_id))
        return out

    @abstractmethod
    def close(self) -> None:
        """Release what this backend owns; a second call is a no-op."""

    def predict(self, name: str, row: np.ndarray, timeout: float | None = None) -> Any:
        return self.submit(name, row).result(timeout)

    def predict_dist(self, name: str, row: np.ndarray, timeout: float | None = None) -> Any:
        return self.submit(name, row, kind="predict_dist").result(timeout)

    def predict_block(self, name: str, X: np.ndarray, timeout: float | None = None) -> Any:
        return self.submit_block(name, X).result(timeout)

    def tracers(self) -> list[Any]:
        """The distinct tracers this backend's spans land in, down the
        decorator chain (the edge exports and counts each once)."""
        out = [] if self._tracer is None else [self._tracer]
        if self.wrapped is not None:
            out += [t for t in self.wrapped.tracers() if t not in out]
        return out

    def __enter__(self) -> Any:
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __del__(self) -> None:
        # interpreter teardown may have dismantled half the world already;
        # best-effort only, and double-close is already a no-op
        try:
            self.close()
        except BaseException:
            pass


class TapHost:
    """Monitoring taps, shared by the gateway and the cluster.

    ``tap.on_request(name, row, kind)`` fires after each successful
    submission; ``tap.on_result(name, kind, block, value)`` after each
    scored ticket (a host that never scores, the cluster parent, only
    dispatches requests).  Either method may be absent, and a tap whose
    ``wants_results()`` is False skips the result dispatch.  Taps observe,
    never participate: exceptions are swallowed and counted in
    :attr:`tap_errors`, so serving is identical with or without taps.
    """

    # copy-on-write: notify paths read these tuples lock-free on every
    # request; add_tap/remove_tap replace them under the tap lock
    _taps: tuple[Any, ...] = ()
    _request_taps: tuple[Any, ...] = ()  # bound on_request callables
    _result_taps: tuple[Any, ...] = ()   # bound on_result callables
    _tap_errors = 0

    def __init__(self) -> None:
        # guards the tap set and the error count (request and result
        # paths race on a bare +=); the no-error fast path never takes it
        self._tap_lock = threading.Lock()

    @property
    def tap_errors(self) -> int:
        """Observer exceptions swallowed (monitoring accuracy only)."""
        return self._tap_errors

    def add_tap(self, tap: Any) -> None:
        """Register a monitoring tap (see the class docstring)."""
        with self._tap_lock:
            self._taps = (*self._taps, tap)
            self._rebuild_tap_views()

    def remove_tap(self, tap: Any) -> None:
        """Deregister a tap (no-op when absent)."""
        with self._tap_lock:
            self._taps = tuple(t for t in self._taps if t is not tap)
            self._rebuild_tap_views()

    def _rebuild_tap_views(self) -> None:
        # pre-bound callables: the per-request dispatch is one tuple walk
        self._request_taps = tuple(
            fn for t in self._taps if (fn := getattr(t, "on_request", None)) is not None
        )
        self._result_taps = tuple(
            fn for t in self._taps
            if (fn := getattr(t, "on_result", None)) is not None
            and ((w := getattr(t, "wants_results", None)) is None or w())
        )

    def _tap_failed(self) -> None:
        with self._tap_lock:
            self._tap_errors += 1

    def _notify_request(self, name: str, row: np.ndarray, kind: str) -> None:
        for fn in self._request_taps:
            try:
                fn(name, row, kind)
            except Exception:
                self._tap_failed()

    def _notify_result(self, name: str, ticket: Any, value: Any) -> None:
        for fn in self._result_taps:
            try:
                fn(name, ticket.kind, ticket.block, value)
            except Exception:
                self._tap_failed()
