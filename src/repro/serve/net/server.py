"""Asyncio socket front door over the ticket-based serve stack.

:class:`AsyncServeServer` is the network edge ROADMAP direction 1 calls
for: an event loop accepts connections and speaks the length-prefixed
JSON frame protocol (:mod:`repro.serve.net.protocol`), while every
blocking ticket operation happens off-loop so one slow flush can never
stall another connection's accept/read path.

Per connection the data path is three stages.  (A shard worker gets by
with one thread because it scores its own tickets; the edge waits on
tickets scored elsewhere.)

* the **reader coroutine** (event loop) parses frames and applies
  admission control, then hands work to
* the **submitter thread**, which bridges each request to
  ``backend.submit(name, row, kind, trace=ctx)`` on any
  :class:`~repro.serve.backend.Backend`; a size-triggered flush scores *inline*
  in the submitting thread, which is exactly why submission cannot run on
  the loop — and chains the ticket to
* the **collector thread**, which blocks on ``ticket.result()`` strictly
  in submission order and marshals each response back to the event loop
  with ``loop.call_soon_threadsafe`` for writing.

Because every stage drains FIFO and ``call_soon_threadsafe`` callbacks
run in scheduling order, responses leave each connection **in request
order** — the batcher's FIFO witness semantics extend to the wire.

**Admission control** sheds load instead of queueing it unboundedly: a
request arriving while the server-wide in-flight budget
(``max_in_flight``) or the connection's pending cap
(``max_pending_per_conn``) is exhausted is answered immediately — still
in FIFO position — with a structured ``OVERLOADED`` (513) wire error and
never reaches the gateway.  The client sees ``retryable: true`` and backs
off; the server's queues stay bounded, so p99 latency under overload is
a shed, not a stall.

The server adds no scoring path: every value a client reads is the
``to_wire``/JSON image of exactly what the in-process ticket returned,
bit-identical under ``np.array_equal`` (``tests/test_net.py`` pins this
against the same gateway).
"""

from __future__ import annotations

import asyncio
import itertools
import queue
import threading
from typing import Any

from repro.serve.backend import UNSAMPLED, Backend, empty_export, merge_export
from repro.serve.errors import ErrorCode, coded, ensure_code
from repro.serve.net.protocol import (
    MAX_FRAME_BYTES,
    encode_value,
    error_response,
    ok_response,
    overload_error,
    parse_request,
    read_frame,
)
from repro.serve.obs.metrics import MetricsRegistry

__all__ = ["AsyncServeServer"]

_OPS = ("metrics", "trace", "slowest")


class _Conn:
    """Per-connection state shared between the loop and the two threads."""

    __slots__ = ("writer", "submit_q", "done_q", "pending", "threads")

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.submit_q: queue.SimpleQueue = queue.SimpleQueue()
        self.done_q: queue.SimpleQueue = queue.SimpleQueue()
        self.pending = 0  # submitted-not-yet-responded; loop-thread only
        self.threads: list[threading.Thread] = []


class AsyncServeServer:
    """Serve a ticket backend over asyncio sockets with admission control.

    Parameters
    ----------
    backend:
        A :class:`~repro.serve.backend.Backend`: a
        :class:`~repro.serve.router.ServingGateway`, a
        :class:`~repro.serve.shard.ShardedServingCluster`, or a
        :class:`~repro.serve.resilience.RetryController` over one.  Any
        object with that ``submit`` is served too, but contributes no
        spans or tracers.  The server never closes the backend; it
        usually outlives the edge.
    host, port:
        Bind address; ``port=0`` picks a free port (``.port`` has the real
        one after :meth:`start`).
    max_in_flight:
        Server-wide budget of submitted-but-unanswered requests.  The
        knob that bounds total queue memory and tail latency: request
        ``max_in_flight + 1`` is shed with ``OVERLOADED``.
    max_pending_per_conn:
        Per-connection pending cap — one firehose client saturating the
        global budget cannot starve its neighbours beyond this depth.
    max_frame_bytes:
        Largest acceptable frame; oversized headers are refused before
        allocation.
    request_timeout:
        Collector-side cap on one ticket; a wedged flush running
        elsewhere answers with a coded ``DEADLINE_EXCEEDED`` instead of
        damming the connection.  (Over an in-process gateway the
        collector scores a still-pending ticket itself; that flush is
        not cut short.)
    tracer:
        Optional :class:`~repro.serve.obs.trace.Tracer` — the obs plane's
        edge attachment.  A request then gets a trace context (born here
        for every ``trace_sample``-th request, or adopted — always — from
        the frame's ``"trace"`` field) recording
        ``parse``/``admission``/``respond`` edge spans, errors carry the
        trace id inside their wire payload, and the ``trace``/``slowest``
        op frames export spans.  The context rides ``backend.submit``
        down the whole stack, so share one tracer between the server and
        a traced backend and edge and backend spans join under one id.
        The edge then decides sampling for the whole stack: a request it
        does not trace reaches the backend as
        :data:`~repro.serve.backend.UNSAMPLED`, so no layer below births
        a trace of its own for it.
    trace_sample:
        Auto-born traces sample 1-in-``trace_sample`` requests
        (deterministic stride, the monitor plane's ``sample`` dial); a
        frame carrying an explicit ``"trace"`` id is always traced.

    Whatever the tracer, :attr:`metrics` is a
    :class:`~repro.serve.obs.metrics.MetricsRegistry` over the backend,
    this server's edge counters, and any attached tracers — the source
    the ``metrics`` op frame answers from (Prometheus text or JSON).
    """

    def __init__(
        self,
        backend: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_in_flight: int = 1024,
        max_pending_per_conn: int = 512,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        request_timeout: float = 60.0,
        tracer: Any = None,
        trace_sample: int = 1,
    ):
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if max_pending_per_conn < 1:
            raise ValueError("max_pending_per_conn must be >= 1")
        if trace_sample < 1:
            raise ValueError("trace_sample must be >= 1")
        self.backend = backend
        self.host = host
        self.port = int(port)
        self.max_in_flight = int(max_in_flight)
        self.max_pending_per_conn = int(max_pending_per_conn)
        self.max_frame_bytes = int(max_frame_bytes)
        self.request_timeout = float(request_timeout)
        self.tracer = tracer
        self.trace_sample = int(trace_sample)
        self._trace_tick = itertools.count()  # loop-thread only
        # what a request this edge did not sample passes down as trace=
        self._no_trace = None if tracer is None else UNSAMPLED
        # one unified metrics surface: backend stats + edge counters +
        # span-ring accounting, all read at op time (never cached)
        self.metrics = MetricsRegistry().add_backend(backend).add_server(self)
        self._backend_tracers = backend.tracers() if isinstance(backend, Backend) else []
        for t in ([tracer] if tracer is not None else []) + self._backend_tracers:
            self.metrics.add_tracer(t)  # dedups shared tracers

        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._closed = False
        self._in_flight = 0  # loop-thread only (reader inc, _respond dec)
        self._conns: set[_Conn] = set()

        # counters; loop-thread writes, snapshot reads via counters()
        self.connections = 0
        self.requests = 0   # frames parsed as requests (incl. shed)
        self.submitted = 0  # requests that reached backend.submit
        self.responses = 0  # response frames handed to the transport
        self.shed = 0       # requests answered OVERLOADED by admission
        self.wire_errors = 0  # frame-level failures (bad JSON, oversize)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "AsyncServeServer":
        """Bind and serve on a dedicated event-loop thread; returns self."""
        if self._thread is not None:
            raise RuntimeError("AsyncServeServer.start() called twice")
        self._thread = threading.Thread(
            target=self._run_loop, name="net-edge-loop", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            self._thread.join(timeout=5.0)
            raise self._startup_error
        return self

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            server = loop.run_until_complete(
                asyncio.start_server(self._handle, self.host, self.port)
            )
        except BaseException as exc:
            self._startup_error = exc
            self._started.set()
            loop.close()
            return
        self._server = server
        self.port = server.sockets[0].getsockname()[1]
        self._started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def close(self, timeout: float = 10.0) -> None:
        """Stop accepting, drop connections, and join the loop thread.

        Idempotent.  In-flight tickets finish in their collector threads
        but their responses go nowhere (the transports are closed) — a
        deliberate hard edge: ``close`` is shutdown, not drain.
        """
        if self._closed or self._loop is None:
            self._closed = True
            return
        self._closed = True
        loop = self._loop

        async def shutdown() -> None:
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
            for conn in list(self._conns):
                try:
                    conn.writer.close()
                except Exception:
                    pass
            loop.stop()

        def kickoff() -> None:
            loop.create_task(shutdown())

        try:
            loop.call_soon_threadsafe(kickoff)
        except RuntimeError:
            pass  # loop already gone
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "AsyncServeServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.close()

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    def counters(self) -> dict[str, int]:
        return {
            "connections": self.connections,
            "requests": self.requests,
            "submitted": self.submitted,
            "responses": self.responses,
            "shed": self.shed,
            "wire_errors": self.wire_errors,
            "in_flight": self._in_flight,
        }

    # ------------------------------------------------------------------ #
    # connection handling (event loop)
    # ------------------------------------------------------------------ #
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Conn(writer)
        self._conns.add(conn)
        self.connections += 1
        submitter = threading.Thread(
            target=self._submitter, args=(conn,), name="net-edge-submit", daemon=True
        )
        collector = threading.Thread(
            target=self._collector, args=(conn,), name="net-edge-collect", daemon=True
        )
        conn.threads = [submitter, collector]
        submitter.start()
        collector.start()
        try:
            while True:
                try:
                    msg = await read_frame(reader, self.max_frame_bytes)
                except Exception as exc:
                    # frame-level failure: the stream offset can no longer
                    # be trusted, so answer (id unknowable) and close
                    self.wire_errors += 1
                    conn.submit_q.put(("err", None, ensure_code(exc), False))
                    break
                if msg is None:
                    break  # clean disconnect (EOF or mid-frame cut)
                op = msg.get("op")
                if isinstance(op, str):
                    # observability op frame: answered from server state in
                    # FIFO position, never routed to the backend and never
                    # charged against the admission budget (ops are cheap
                    # reads — shedding them would blind the operator at
                    # exactly the moment the budget is exhausted)
                    self.requests += 1
                    rid = msg.get("id")
                    rid = rid if isinstance(rid, int) and not isinstance(rid, bool) else None
                    conn.submit_q.put(("op", rid, op, msg))
                    continue
                ctx = None
                if self.tracer is not None:
                    tid = msg.get("trace")
                    if isinstance(tid, str):
                        ctx = self.tracer.context(tid)  # explicit: never sampled
                    elif next(self._trace_tick) % self.trace_sample == 0:
                        ctx = self.tracer.context(None)
                    if ctx is not None:
                        t_parse = self.tracer.now()
                try:
                    req_id, name, kind, arr, single = parse_request(msg)
                except Exception as exc:
                    # a well-framed but invalid request: coded reply in
                    # FIFO position, connection stays up
                    self.requests += 1
                    rid = msg.get("id")
                    rid = rid if isinstance(rid, int) and not isinstance(rid, bool) else None
                    if ctx is not None:
                        _tag_trace(exc, ctx)
                    conn.submit_q.put(("err", rid, ensure_code(exc), False))
                    continue
                self.requests += 1
                if ctx is not None:
                    t_admit = ctx.now()
                    ctx.record("edge", "parse", t_parse, t_admit)
                if (
                    self._in_flight >= self.max_in_flight
                    or conn.pending >= self.max_pending_per_conn
                ):
                    self.shed += 1
                    scope = (
                        "server in-flight budget"
                        if self._in_flight >= self.max_in_flight
                        else "connection pending cap"
                    )
                    shed_exc = overload_error(f"request shed: {scope} exhausted")
                    if ctx is not None:
                        _tag_trace(shed_exc, ctx)
                    conn.submit_q.put(("err", req_id, shed_exc, False))
                    continue
                self._in_flight += 1
                conn.pending += 1
                self.submitted += 1
                if ctx is not None:
                    ctx.record("edge", "admission", t_admit, ctx.now())
                conn.submit_q.put(("req", req_id, name, kind, arr, single, ctx))
        finally:
            conn.submit_q.put(None)  # chained through to the collector

    def _finish_conn(self, conn: _Conn) -> None:
        # runs on the loop after the collector drained everything: all
        # responses are already written (or skipped on a dead transport)
        self._conns.discard(conn)
        try:
            conn.writer.close()
        except Exception:
            pass

    def _respond(self, conn: _Conn, data: bytes, counted: bool) -> None:
        """Write one response frame; runs on the event loop.

        ``counted`` releases the admission slots taken at submit time —
        also on a dead transport, so a client that vanished mid-burst can
        never leak in-flight budget."""
        if counted:
            self._in_flight -= 1
            conn.pending -= 1
        if not conn.writer.is_closing():
            try:
                conn.writer.write(data)
                self.responses += 1
            except Exception:
                pass  # peer gone; the reader will see the close

    # ------------------------------------------------------------------ #
    # per-connection worker threads (off loop)
    # ------------------------------------------------------------------ #
    def _submitter(self, conn: _Conn) -> None:
        """Bridge requests to ``backend.submit`` in arrival order.

        Submission blocks at most one connection (a size-triggered flush
        scores inline here — by design off the event loop); the resulting
        ticket chains to the collector, so later requests keep submitting
        while earlier ones are still scoring.
        """
        while True:
            item = conn.submit_q.get()
            if item is None:
                conn.done_q.put(None)
                return
            if item[0] == "err":
                conn.done_q.put(item)
                continue
            if item[0] == "op":
                _, rid, opname, msg = item
                try:
                    value = self._exec_op(opname, msg)
                except BaseException as exc:
                    conn.done_q.put(("err", rid, ensure_code(exc), False))
                else:
                    conn.done_q.put(("meta", rid, value))
                continue
            _, req_id, name, kind, arr, single, ctx = item
            try:
                ticket = self.backend.submit(
                    name, arr, kind, trace=self._no_trace if ctx is None else ctx)
            except BaseException as exc:
                if ctx is not None:
                    _tag_trace(exc, ctx)
                conn.done_q.put(("err", req_id, ensure_code(exc), True))
            else:
                conn.done_q.put(("ticket", req_id, kind, single, ticket, ctx))

    def _collector(self, conn: _Conn) -> None:
        """Complete tickets strictly FIFO and marshal responses loop-side."""
        while True:
            item = conn.done_q.get()
            if item is None:
                self._call_loop(self._finish_conn, conn)
                return
            if item[0] == "err":
                _, req_id, exc, counted = item
                data = error_response(req_id, exc)
            elif item[0] == "meta":
                # op-frame answer: raw value, never admission-counted
                _, req_id, value = item
                counted = False
                data = ok_response(req_id, value)
            else:
                _, req_id, kind, single, ticket, ctx = item
                counted = True
                t0 = ctx.now() if ctx is not None else 0.0
                try:
                    value = ticket.result(timeout=self.request_timeout)
                except BaseException as exc:
                    if ctx is not None:
                        _tag_trace(exc, ctx)
                    data = error_response(req_id, ensure_code(exc))
                else:
                    try:
                        data = ok_response(req_id, encode_value(kind, single, value))
                    except BaseException as exc:
                        if ctx is not None:
                            _tag_trace(exc, ctx)
                        data = error_response(
                            req_id,
                            coded(RuntimeError(f"result not serializable: {exc}"),
                                  ErrorCode.INTERNAL),
                        )
                if ctx is not None:
                    # result wait + response encode, ended loop-handoff side
                    ctx.record("edge", "respond", t0, ctx.now())
            self._call_loop(self._respond, conn, data, counted)

    def _call_loop(self, fn: Any, *args: Any) -> None:
        loop = self._loop
        if loop is None:
            return
        try:
            loop.call_soon_threadsafe(fn, *args)
        except RuntimeError:
            pass  # loop closed mid-shutdown; counters no longer matter

    # ------------------------------------------------------------------ #
    # observability op frames
    # ------------------------------------------------------------------ #
    def _exec_op(self, op: str, msg: dict[str, Any]) -> Any:
        """Answer one observability op frame (submitter thread).

        ``metrics`` → the unified snapshot (``fmt``: ``"json"`` default,
        ``"prom"`` for Prometheus text); ``trace`` → the merged span dump
        for ``msg["trace"]`` (or everything recorded); ``slowest`` → the
        top-``k`` spans by duration across every attached tracer.
        """
        if op == "metrics":
            fmt = msg.get("fmt", "json")
            if fmt == "prom":
                return self.metrics.prometheus()
            if fmt == "json":
                return self.metrics.collect()
            raise coded(ValueError(f"metrics fmt must be 'json' or 'prom', got {fmt!r}"),
                        ErrorCode.MALFORMED_REQUEST)
        if op == "trace":
            tid = msg.get("trace")
            return self.collect_spans(tid if isinstance(tid, str) else None)
        if op == "slowest":
            k = msg.get("k", 10)
            if not isinstance(k, int) or isinstance(k, bool) or k < 1:
                raise coded(ValueError("'k' must be a positive integer"),
                            ErrorCode.MALFORMED_REQUEST)
            spans = self.collect_spans(None)["spans"]
            spans.sort(key=lambda s: s["end"] - s["start"], reverse=True)
            return spans[:k]
        raise coded(ValueError(f"unknown op {op!r}; valid: {_OPS}"),
                    ErrorCode.MALFORMED_REQUEST)

    def collect_spans(self, trace_id: str | None = None) -> dict[str, Any]:
        """Merged span export: the backend's ``trace_spans`` (which, on a
        cluster, already fans out to the workers) plus the edge tracer.
        A tracer shared between edge and backend is exported once —
        identity-checked, never double-counted."""
        out = (self.backend.trace_spans(trace_id) if isinstance(self.backend, Backend)
               else empty_export())
        if self.tracer is not None and self.tracer not in self._backend_tracers:
            merge_export(out, self.tracer.export(trace_id))
        return out


def _tag_trace(exc: BaseException, ctx: Any) -> None:
    """Stamp the trace id onto an outbound error so its ``to_wire``
    payload carries the join key (best-effort: slotted exceptions that
    refuse attributes still ship their coded payload untagged)."""
    try:
        exc.trace_id = ctx.trace_id
    except AttributeError:
        pass
