"""Micro-batching scheduler: many tiny requests, one packed-arena call.

A single-row ``predict`` pays the full Python/NumPy dispatch overhead for
one sample; an arena pass over 256 coalesced rows pays it once.  The
:class:`MicroBatcher` accepts requests from any number of threads, queues
them FIFO, and flushes on demand, always on the thread that needs it:

* **size** — the pending row count reaches ``max_batch``; the submitter
  that crossed the threshold scores the batch inline;
* **flush** — an explicit :meth:`MicroBatcher.flush` or
  :meth:`MicroBatcher.close` (the shard worker's loop flushes once its
  channel is empty);
* **first waiter** — the first :meth:`Ticket.result` that finds its
  ticket still pending drains everything pending and scores it inline.

No request waits for a timer: a batch is whatever arrived before someone
needed an answer, and the batcher starts no thread of its own.
``max_batch`` is fixed at construction.  A flush snapshots the queue in
arrival order, groups requests by kind (``predict`` / ``predict_dist``),
and scores the groups in order of first arrival; each group rides one
batch-of-batches estimator call (``predict_many``).
Because every sample is routed through the arena independently, each
request's result is **bit-identical** to calling the model on that request
alone — batching is invisible in the numbers, exactly like the packed
arena itself.
"""

from __future__ import annotations

import copy
import threading
import time
from collections import deque
from typing import Any, Callable

import numpy as np

from repro.serve.errors import ErrorCode, coded, ensure_code

__all__ = ["CompletedTicket", "MicroBatcher", "Ticket"]


def _private_exception(exc: BaseException) -> BaseException:
    """A per-ticket copy of a shared failure.

    When one failure (a model-resolution error) has to complete many
    tickets, every ticket needs its *own* exception instance: ``raise``
    assigns ``__traceback__`` on the instance being raised, so concurrent
    ``Ticket.result()`` callers re-raising one shared instance would race
    on that mutation.  Exceptions shallow-copy through their
    ``__reduce__`` (fresh instance, no traceback); anything that refuses
    is wrapped instead, chained to the original.
    """
    try:
        clone = copy.copy(exc)
        if clone is exc:  # a pathological __copy__ returning self
            raise TypeError("copy returned the same instance")
    except Exception:
        clone = RuntimeError(f"{type(exc).__name__}: {exc}")
        clone.__cause__ = exc
    return clone


class Ticket:
    """Handle for one submitted request; blocks in :meth:`result`."""

    __slots__ = (
        "kind", "block", "single_row", "token", "seq", "enqueued_at", "batch_seq", "batch_pos", "trace", "trace_t0",
        "trace_drained", "_event", "_value", "_error", "_owner",
    )

    def __init__(self, kind: str, block: np.ndarray, single_row: bool, token: Any,
                 owner: "MicroBatcher"):
        self.kind = kind
        self.block = block
        self.single_row = single_row
        self.token = token
        self.seq = -1
        self.enqueued_at = 0.0
        self.batch_seq = -1     # which flush scored this ticket
        self.batch_pos = -1     # position inside that flush (FIFO witness)
        self.trace = None       # TraceContext when the request is traced
        self.trace_t0 = 0.0     # trace-clock submit time
        self.trace_drained = 0.0  # trace-clock drain time (ends queue_wait)
        self._event = threading.Event()
        self._value: Any = None
        self._error: BaseException | None = None
        self._owner = owner  # scores it on demand

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> Any:
        """The request's prediction (scalar for 1-D submissions).

        A ticket still pending is scored here, on the caller's thread,
        together with everything queued with it.  ``timeout`` bounds only
        the wait for a flush another thread is already running; when it
        expires the call raises a coded ``DEADLINE_EXCEEDED`` error and a
        later call may still collect the value.
        """
        if not self._event.is_set():
            self._owner._demand(self)
        if not self._event.wait(timeout):
            raise coded(TimeoutError("request not completed within timeout"),
                        ErrorCode.DEADLINE_EXCEEDED)
        if self._error is not None:
            # a private copy per raise: concurrent result() callers on one
            # shared ticket must not race on __traceback__ mutation
            raise _private_exception(self._error)
        return self._value

    def _complete(self, value: Any, error: BaseException | None) -> None:
        self._value = value
        self._error = error
        self._event.set()


class CompletedTicket:
    """An answer known at submit time (a cache hit, a shard's op reply),
    shaped like a :class:`Ticket`."""

    __slots__ = ("_value",)

    def __init__(self, value: Any):
        self._value = value

    def done(self) -> bool:
        return True

    def result(self, timeout: float | None = None) -> Any:
        return self._value


class MicroBatcher:
    """Coalesce concurrent small requests into packed-arena batches.

    Parameters
    ----------
    model_fn:
        Zero-arg callable resolving the model to score with, evaluated once
        per flush (the registry's production lookup goes here, so a promote
        takes effect at the next batch boundary).  A plain estimator is
        also accepted.
    max_batch:
        Row-count flush threshold (size trigger).
    on_result:
        Optional ``fn(ticket, value)`` called before a ticket completes —
        the prediction cache's insertion hook.
    """

    def __init__(
        self,
        model_fn: Callable[[], Any] | Any,
        max_batch: int = 256,
        on_result: Callable[[Ticket, Any], None] | None = None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._model_fn = model_fn if callable(model_fn) else (lambda: model_fn)
        self.max_batch = int(max_batch)
        self._on_result = on_result

        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._pending: list[Ticket] = []
        self._pending_rows = 0
        self._next_seq = 0
        self._next_batch = 0
        self._closed = False
        self._in_flight = 0  # batches drained but not yet fully scored

        # counters (guarded by _lock)
        self.requests = 0
        self.rows = 0
        self.batches = 0
        self.completed = 0  # tickets whose flush finished scoring
        self.size_flushes = 0
        self.manual_flushes = 0  # flush(), close() and first-waiter flushes
        self.latency_dropped = 0  # ring samples evicted by overwrite
        self.total_latency_s = 0.0
        # bounded ring of recent per-request latencies (seconds): the
        # tail-percentile sample mean-only counters can't provide, sized
        # so a process-lifetime batcher never grows it past the cap
        self._latency_ring: deque[float] = deque(maxlen=2048)

    # ------------------------------------------------------------------ #
    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def submit(
        self,
        row: np.ndarray,
        kind: str = "predict",
        token: Any = None,
        copy: bool = True,
        trace: Any = None,
    ) -> Ticket:
        """Enqueue one request — a feature vector or a small (m, d) block.

        ``copy=True`` (the default) takes a private copy: callers may
        legally reuse their buffer the moment submit returns, and the
        flush must score the submit-time bytes.  Pass ``copy=False`` only
        when handing over an array nothing else will touch (the gateway
        does, having already copied for its digest).

        ``trace`` optionally carries a
        :class:`~repro.serve.obs.trace.TraceContext`; the batcher then
        records ``queue_wait``/``score`` spans per request and one
        batch-level ``flush`` span — observational only, the scoring path
        is identical with or without it.
        """
        if kind not in ("predict", "predict_dist"):
            raise coded(ValueError("kind must be 'predict' or 'predict_dist'"),
                        ErrorCode.MALFORMED_REQUEST)
        arr = np.array(row, dtype=float) if copy else np.asarray(row, dtype=float)
        single = arr.ndim == 1
        if single:
            arr = arr[None, :]
        elif arr.ndim != 2:
            raise coded(ValueError(f"request must be 1-D or 2-D, got ndim={arr.ndim}"),
                        ErrorCode.MALFORMED_REQUEST)
        ticket = Ticket(kind, arr, single, token, self)
        if trace is not None:
            ticket.trace = trace
            ticket.trace_t0 = trace.now()

        batch: list[Ticket] | None = None
        with self._lock:
            if self._closed:
                raise coded(RuntimeError("MicroBatcher is closed"), ErrorCode.CLOSED)
            ticket.seq = self._next_seq
            self._next_seq += 1
            ticket.enqueued_at = time.monotonic()
            self._pending.append(ticket)
            self._pending_rows += arr.shape[0]
            self.requests += 1
            self.rows += arr.shape[0]
            if self._pending_rows >= self.max_batch:
                batch = self._drain_locked()
                self.size_flushes += 1
        if batch:
            self._process(batch)
        return ticket

    def flush(self) -> int:
        """Force-score everything pending; returns the request count."""
        with self._lock:
            batch = self._drain_locked()
            if batch:
                self.manual_flushes += 1
        if batch:
            self._process(batch)
        return len(batch) if batch else 0

    def close(self, timeout: float = 5.0) -> bool:
        """Flush the queue and wait up to ``timeout`` seconds for every
        in-flight flush (one scoring inline in another thread) to finish.

        Returns ``True`` when all accepted tickets completed within the
        timeout; ``False`` means a flush was still scoring when the wait
        expired (its tickets will still complete whenever it finishes, the
        batcher just stopped waiting).  Idempotent; a second call returns
        the current drained state.
        """
        deadline = time.monotonic() + timeout
        with self._lock:
            self._closed = True  # no submit lands after the flush below
        self.flush()
        with self._lock:
            while self._in_flight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._cond.wait(remaining):
                    return False
            return True

    def counters(self) -> dict[str, float]:
        with self._lock:
            return {
                "requests": self.requests,
                "rows": self.rows,
                "batches": self.batches,
                "completed": self.completed,
                "size_flushes": self.size_flushes,
                "manual_flushes": self.manual_flushes,
                # retired (no deadline timer, no tombstones): kept in the
                # counter vocabulary, always 0
                "deadline_flushes": 0,
                "abandoned": 0,
                "latency_dropped": self.latency_dropped,
                "total_latency_s": self.total_latency_s,
            }

    def latency_snapshot(self) -> tuple[float, ...]:
        """The bounded ring of recent per-request latencies (seconds),
        newest last — the sample :class:`~repro.serve.stats.ServerStats`
        computes p50/p99/p999 from."""
        with self._lock:
            return tuple(self._latency_ring)

    # ------------------------------------------------------------------ #
    def _demand(self, ticket: Ticket) -> None:
        """First-waiter flush: score ``ticket``'s batch on the caller's
        thread, unless a flush has already drained it."""
        with self._lock:
            if ticket.batch_seq >= 0:
                return  # that flush completes it
            batch = self._drain_locked()
            self.manual_flushes += 1
        self._process(batch)

    def _drain_locked(self) -> list[Ticket]:
        batch = self._pending
        self._pending = []
        self._pending_rows = 0
        if batch:
            seq = self._next_batch
            self._next_batch += 1
            self._in_flight += 1  # paired with the decrement in _process
            drained_at: float | None = None  # one trace-clock read per batch
            for pos, t in enumerate(batch):  # arrival order == flush order
                t.batch_seq = seq
                t.batch_pos = pos
                if t.trace is not None:
                    if drained_at is None:
                        drained_at = t.trace.now()
                    t.trace_drained = drained_at
        return batch

    def _process(self, batch: list[Ticket]) -> None:
        groups: dict[str, list[Ticket]] = {}  # kinds in order of first arrival
        for t in batch:
            groups.setdefault(t.kind, []).append(t)
        try:
            try:
                model = self._model_fn()
                scored = [self._score_group_isolated(model, kind, tickets)
                          for kind, tickets in groups.items()]
            except BaseException as exc:  # model resolution failed: everyone waits on it
                ensure_code(exc, ErrorCode.MODEL_RESOLUTION_FAILED)
                for t in batch:
                    # each ticket gets a private copy — concurrent result()
                    # raisers must not share one mutable instance
                    t._complete(None, _private_exception(exc))
                return
            for tickets, outcomes in zip(groups.values(), scored):
                for t, (value, error) in zip(tickets, outcomes):
                    if error is None and self._on_result is not None:
                        try:
                            self._on_result(t, value)
                        except Exception:
                            pass  # cache insertion must never fail a request
                    t._complete(value, error)
        finally:
            self._finish_batch(batch)

    def _finish_batch(self, batch: list[Ticket]) -> None:
        now = time.monotonic()
        with self._lock:
            self.batches += 1
            self.completed += len(batch)
            self.total_latency_s += sum(now - t.enqueued_at for t in batch)
            cap = self._latency_ring.maxlen
            if cap is not None:
                overflow = len(self._latency_ring) + len(batch) - cap
                if overflow > 0:  # evictions are counted, never silent
                    self.latency_dropped += overflow
            self._latency_ring.extend(now - t.enqueued_at for t in batch)
            self._in_flight -= 1
            self._cond.notify_all()  # close() may be waiting for in-flight == 0
        flush_recorded = False
        for t in batch:
            ctx = t.trace
            if ctx is None:
                continue
            end = ctx.now()
            ctx.record("batcher", "queue_wait", t.trace_t0, t.trace_drained)
            ctx.record("batcher", "score", t.trace_drained, end)
            if not flush_recorded:  # one batch-level span, on the first trace
                ctx.record("batcher", "flush", t.trace_drained, end,
                           meta={"batch_seq": t.batch_seq, "size": len(batch)})
                flush_recorded = True

    @classmethod
    def _score_group_isolated(
        cls, model: Any, kind: str, tickets: list[Ticket]
    ) -> list[tuple[Any, BaseException | None]]:
        """Score one kind group, confining a bad request to its own ticket.

        The fast path scores the whole group in one batch-of-batches call;
        if that raises (a wrong-width row breaking the concatenate, a kind
        the model does not support), the group is rescored one ticket at a
        time so only the offending requests fail — one malformed client
        must not poison its co-batched neighbours.
        """
        try:
            return [(v, None) for v in cls._score_group(model, kind, tickets)]
        except Exception:
            outcomes: list[tuple[Any, BaseException | None]] = []
            for t in tickets:
                try:
                    outcomes.append((cls._score_group(model, kind, [t])[0], None))
                except Exception as exc:
                    outcomes.append((None, ensure_code(exc, ErrorCode.SCORING_FAILED)))
            return outcomes

    @staticmethod
    def _score_group(model: Any, kind: str, tickets: list[Ticket]) -> list[Any]:
        blocks = [t.block for t in tickets]
        if kind == "predict":
            many = getattr(model, "predict_many", None)
            preds = many(blocks) if callable(many) else [model.predict(b) for b in blocks]
            return [
                float(p[0]) if t.single_row else p for t, p in zip(tickets, preds)
            ]
        many = getattr(model, "predict_dist_many", None)
        preds = many(blocks) if callable(many) else [model.predict_dist(b) for b in blocks]
        return [
            (float(m[0]), float(v[0])) if t.single_row else (m, v)
            for t, (m, v) in zip(tickets, preds)
        ]
