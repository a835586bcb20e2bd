"""Process-sharded serving cluster: N gateway replicas behind one front door.

One Python process tops out at one GIL's worth of request plumbing, and the
taxonomy paper's deployment sections (drift per system, contention, load
skew) are exactly the regimes where a single serving process becomes the
bottleneck.  :class:`ShardedServingCluster` spawns ``n_shards`` worker
processes, each hosting its **own** :class:`~repro.serve.registry.ModelRegistry`
and :class:`~repro.serve.router.ServingGateway` replica, warm-started from a
snapshot of the parent's registry passed as the process argument.  Under
``fork`` the worker inherits the frozen, sealed, packed models in memory
and nothing is serialized; under ``spawn`` :mod:`multiprocessing` pickles
the snapshot like any argument (models were frozen and fit-sealed on
register, so they pickle and re-freeze cleanly).

The parent keeps a single ``submit(name, row, kind)`` front door:

* **hash routing** (default) — requests route by a consistent
  :func:`blake2b <hashlib.blake2b>` hash of the model name, so one name's
  traffic always lands on one shard and that shard's micro-batcher and
  prediction cache see the whole stream (cache locality survives
  sharding), or
* **replicated routing** — every shard holds every model anyway (registry
  mutations broadcast to all), so single-row traffic round-robins across
  live shards and :meth:`~ShardedServingCluster.submit_block` fans the
  rows of one large batch out across all of them in parallel.

Requests multiplex over one :class:`~repro.serve.transport.Transport`
per shard — ``transport="pipe"`` (a duplex :mod:`multiprocessing` pipe,
the single-node default) or ``transport="socket"`` (the network edge's
length-prefixed frame protocol with binary ndarray frames, the shape a
multi-node cluster needs).  Channel failures surface as one typed
:class:`~repro.serve.transport.TransportError` carrying the coded
``TRANSPORT_ERROR``, so the resilience plane classifies them through the
taxonomy rather than pattern-matching ``BrokenPipeError``/``OSError``.
Each worker answers **in FIFO order**, one message per drained batch —
the same ticket semantics as :class:`~repro.serve.batcher.MicroBatcher`
— and the parent completes a :class:`ClusterTicket` per answer.  Registry mutations
(register / promote / rollback / unregister) broadcast to every live
shard through the same channel and wait for acknowledgement, so the
version-keyed cache contract holds cluster-wide: after
:meth:`~ShardedServingCluster.promote` returns, no shard will serve the
old version to a new batch.

The cluster adds no scoring path: every shard scores with the same frozen
artifacts, so results stay **bit-identical** (``np.array_equal``) to a
direct single-process :class:`~repro.serve.router.ServingGateway` — the
serve layer's load-bearing invariant.  A worker crash surfaces as
:class:`ShardCrashedError` on the affected tickets (pending *and* future)
and :meth:`~ShardedServingCluster.respawn` rebuilds dead workers from the
parent registry's current state; a client is never left hanging.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import multiprocessing
import pickle
import threading
import time
from collections import deque
from typing import Any

import numpy as np

from repro.serve.backend import (UNSAMPLED, Backend, TapHost, as_block, empty_export,
                                 merge_export)
from repro.serve.batcher import _private_exception
from repro.serve.errors import ErrorCode, coded
from repro.serve.registry import ModelRegistry
from repro.serve.router import ServingGateway
from repro.serve.service import CompletedTicket
from repro.serve.stats import ClusterStats
from repro.serve.transport import (
    PipeTransport,
    SocketListener,
    Transport,
    TransportError,
    make_worker_transport,
)

__all__ = ["ClusterTicket", "ShardCrashedError", "ShardedServingCluster"]

_ROUTES = ("hash", "replicated")
_TRANSPORTS = ("pipe", "socket")


class ShardCrashedError(RuntimeError):
    """A shard worker process died (or was killed) with requests on it."""

    code = ErrorCode.SHARD_CRASHED  # retryable: a respawned shard should succeed


def shard_for_name(name: str, n_shards: int) -> int:
    """Consistent shard index for a model name.

    Uses blake2b, not ``hash()`` — Python string hashing is salted per
    process, and the whole point is that parent, workers, tests, and a
    future second front-door process all agree on the owner."""
    digest = hashlib.blake2b(name.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") % n_shards


def _picklable_exception(exc: BaseException) -> BaseException:
    """An exception instance that survives the response pipe.

    Worker-side failures ride the pipe back to the parent; an exception
    whose args don't pickle (estimator objects, locks) would kill the
    response instead of the request, so anything unpicklable is flattened
    to a ``RuntimeError`` carrying its repr."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        flat = RuntimeError(f"{type(exc).__name__}: {exc}")
        code = getattr(exc, "code", None)
        if isinstance(code, ErrorCode):
            flat.code = code  # the coded vocabulary survives the flattening
        return flat


# ---------------------------------------------------------------------- #
# worker side
# ---------------------------------------------------------------------- #
def _apply_control(registry: ModelRegistry, action: str, name: str, payload: Any) -> Any:
    """Replay one parent-side registry mutation on a worker's replica.

    Every action is **idempotent against an already-applied state**: a
    worker respawned between a mutation landing on the parent registry and
    its broadcast going out warm-starts from a snapshot that already
    contains the change, and then receives the queued broadcast anyway.
    Replaying it must be a no-op (``promote`` to the current production
    already is; the others check first), never a divergence or a spurious
    error.
    """
    if action == "register":
        model_bytes, version = payload
        try:
            existing = registry.versions(name)
        except LookupError:
            existing = []
        if version in existing:
            return version  # snapshot already carried it
        got = registry.register(name, pickle.loads(model_bytes), version=version)
        if got != version:
            raise coded(
                RuntimeError(f"replica filed {name!r} under v{got}, parent assigned v{version}"),
                ErrorCode.REPLICA_DIVERGENCE,
            )
        return got
    if action == "promote":
        registry.promote(name, payload)
        return payload
    if action == "rollback":
        # payload is the parent's post-rollback production version
        if registry.production_version(name) == payload:
            return payload  # snapshot already carried it
        got = registry.rollback(name)
        if got != payload:
            raise coded(
                RuntimeError(f"replica rolled {name!r} back to v{got}, parent to v{payload}"),
                ErrorCode.REPLICA_DIVERGENCE,
            )
        return got
    if action == "unregister":
        try:
            if payload not in registry.versions(name):
                return payload  # snapshot already carried it
        except LookupError:
            return payload
        registry.unregister(name, payload)
        return payload
    if action == "set_reference":
        # payload is the parent's pickled ReferenceSnapshot (or None to
        # clear nothing — a missing reference is simply never broadcast);
        # set_reference re-freezes the arrays pickling un-froze.  Replaying
        # onto a replica that already carries it (respawn race) just
        # rewrites the same immutable value — idempotent like the rest.
        ref = pickle.loads(payload)
        registry.set_reference(
            name, ref.X, eu=ref.eu,
            names=list(ref.names) if ref.names else None,
        )
        return name
    raise ValueError(f"unknown control action {action!r}")


def _worker_main(
    transport_spec: tuple,
    snapshot: dict[str, dict[str, Any]],
    gateway_kwargs: dict[str, Any],
    trace_rings: int = 0,
) -> None:
    """One shard: a gateway replica on one thread, driven by its channel.

    ``transport_spec`` is the picklable half of the channel —
    ``("pipe", conn)`` or ``("socket", (host, port), token)`` — resolved
    by :func:`~repro.serve.transport.make_worker_transport`; everything
    below it is transport-agnostic.  Each message puts one entry on a
    FIFO: a submit's ticket, or the finished reply of a submit error or
    an op.  Once a message leaves the channel empty
    (``transport.ready()`` is false) the loop scores everything pending
    with ``gateway.flush()`` and sends every entry, in arrival order, as
    one message, so a batch is whatever arrived while the previous
    flush was scoring.  While the channel stays busy it sends only the
    finished prefix (cache hits, op replies), and flushes once the last
    flush is ``max_delay`` old: the batchers run with ``math.inf`` (no
    deadline thread), so the loop keeps the bound — no ticket waits
    longer than ``max_delay`` plus the handling of one message.

    ``snapshot`` is the parent's
    :meth:`~repro.serve.registry.ModelRegistry.snapshot`: inherited under
    ``fork``, unpickled by :mod:`multiprocessing` under ``spawn``.

    ``trace_rings > 0`` stands up a process-local
    :class:`~repro.serve.obs.trace.Tracer` (a tracer object itself does
    not cross the spawn pickle — only its ring size does): a submit tuple
    carrying a trace id gets a worker-side context under that id, so the
    batcher/worker spans it records merge with the parent's by trace id
    when the ``obs`` op exports them.  Untraced submissions stay
    span-free — the gateway only adopts contexts, it never starts one
    here.
    """
    try:
        transport = make_worker_transport(transport_spec)
    except TransportError:
        return  # parent vanished before the handshake; nothing to serve
    tracer = None
    if trace_rings > 0:
        from repro.serve.obs.trace import Tracer

        tracer = Tracer(ring_size=trace_rings)
    registry = ModelRegistry()
    registry.restore(snapshot)
    max_delay = gateway_kwargs["max_delay"]
    gateway = ServingGateway(registry, **{**gateway_kwargs, "max_delay": math.inf})
    # (req_id, ticket or error, trace context, trace-clock enqueue time)
    fifo: deque[tuple[int, Any, Any, float]] = deque()

    def op_value(op: str, msg: tuple) -> Any:
        if op == "flush":
            return gateway.flush(msg[2])
        if op == "stats":
            return gateway.stats()
        if op == "control":
            _, _, action, name, payload = msg
            return _apply_control(registry, action, name, payload)
        if op == "obs":  # spans for the parent to join by trace id
            return tracer.export(msg[2]) if tracer is not None else empty_export()
        raise ValueError(f"unknown op {op!r}")

    def answer(drained: bool) -> None:
        """Send every entry after a flush, else the done prefix."""
        out = []
        while fifo:
            req_id, item, ctx, t0 = fifo[0]
            if isinstance(item, BaseException):
                out.append(("err", req_id, _picklable_exception(item)))
            elif drained or item.done():
                try:
                    value = item.result(0)  # done: never waits
                except BaseException as exc:
                    out.append(("err", req_id, _picklable_exception(exc)))
                else:
                    if ctx is not None:
                        ctx.record("worker", "respond", t0, ctx.now())
                    out.append(("ok", req_id, value))
            else:
                break
            fifo.popleft()
        if out:
            try:
                transport.send(tuple(out))
            except TransportError:
                pass  # parent gone; nothing useful left to do with a result

    last_flush = time.monotonic()
    try:
        while True:
            try:
                msg = transport.recv()
            except TransportError:
                break
            op = msg[0]
            if op == "shutdown":
                break
            if op == "submit":
                # 5-tuple from an untraced parent, 6-tuple carries the
                # trace id — *rest keeps the wire forms interchangeable
                _, req_id, name, row, kind, *rest = msg
                tid = rest[0] if rest else None
                ctx = None
                if tracer is not None and tid is not None:
                    ctx = tracer.context(tid)
                try:
                    ticket = gateway.submit(name, row, kind, trace=ctx)
                except BaseException as exc:
                    fifo.append((req_id, exc, None, 0.0))
                else:
                    fifo.append((req_id, ticket, ctx, 0.0 if ctx is None else ctx.now()))
            else:
                try:
                    item = CompletedTicket(op_value(op, msg))
                except BaseException as exc:
                    item = exc
                fifo.append((msg[1], item, None, 0.0))
            drained = not transport.ready() or time.monotonic() - last_flush >= max_delay
            if drained:
                gateway.flush()
                last_flush = time.monotonic()
            answer(drained)
    finally:
        try:
            gateway.close()  # completes every in-flight ticket first
        except BaseException:
            pass
        answer(drained=True)
        transport.close()


# ---------------------------------------------------------------------- #
# parent side
# ---------------------------------------------------------------------- #
class ClusterTicket:
    """Handle for one request routed to a shard; blocks in :meth:`result`."""

    __slots__ = ("shard_id", "trace", "trace_t0", "_event", "_value", "_error")

    def __init__(self, shard_id: int):
        self.shard_id = shard_id
        self.trace = None       # TraceContext when the request is traced
        self.trace_t0 = 0.0     # trace-clock send time (starts transport)
        self._event = threading.Event()
        self._value: Any = None
        self._error: BaseException | None = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> Any:
        if not self._event.wait(timeout):
            raise coded(TimeoutError("request not completed within timeout"),
                        ErrorCode.DEADLINE_EXCEEDED)
        if self._error is not None:
            # private copy per raise, same rule as batcher.Ticket: two
            # threads re-raising one instance would race on __traceback__
            raise _private_exception(self._error)
        return self._value

    def _complete(self, value: Any, error: BaseException | None) -> None:
        self._value = value
        self._error = error
        self._event.set()


class _BlockTicket:
    """Row-parallel fan-out of one block: a ticket over per-shard parts."""

    __slots__ = ("_parts", "_kind")

    def __init__(self, parts: list[ClusterTicket], kind: str):
        self._parts = parts
        self._kind = kind

    def done(self) -> bool:
        return all(p.done() for p in self._parts)

    def result(self, timeout: float | None = None) -> Any:
        deadline = None if timeout is None else time.monotonic() + timeout
        values = []
        for part in self._parts:
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            values.append(part.result(remaining))
        if len(values) == 1:
            return values[0]
        if self._kind == "predict_dist":
            means, variances = zip(*values)
            return np.concatenate(means), np.concatenate(variances)
        return np.concatenate(values)


class _ShardHandle:
    """Parent-side bookkeeping for one worker: transport, process, pending map."""

    def __init__(self, shard_id: int, process: Any, transport: Transport):
        self.shard_id = shard_id
        self.process = process
        self.transport = transport
        self.lock = threading.Lock()  # next_req, alive, sends, pending (not reader pops)
        self.pending: dict[int, ClusterTicket] = {}
        self.next_req = 0
        self.alive = True
        self.reader: threading.Thread | None = None


class ShardedServingCluster(TapHost, Backend):
    """Serve one registry from ``n_shards`` gateway worker processes.

    Parameters
    ----------
    registry:
        The parent-side :class:`~repro.serve.registry.ModelRegistry` — the
        cluster's source of truth.  Its current contents seed every worker;
        later mutations must flow through :meth:`register` (models have to
        ship to the workers), while ``promote``/``rollback``/``unregister``
        may be called on either the cluster or the registry directly — a
        registry listener broadcasts stage changes to every shard either
        way.
    n_shards:
        Worker process count.
    route:
        ``"hash"`` pins each name to one shard (cache/batcher locality);
        ``"replicated"`` round-robins rows across shards and enables
        :meth:`submit_block` fan-out.
    start_method:
        :mod:`multiprocessing` start method; default prefers ``fork``
        and falls back to ``spawn``.  Both hand workers the same registry
        snapshot as the process argument: a forked worker inherits it
        with nothing serialized, a spawned one receives it pickled.
        Behaviour is method-invariant.
    transport:
        ``"pipe"`` (default) keeps today's duplex mp pipe;
        ``"socket"`` runs every parent↔worker channel over the frame
        protocol on a loopback TCP socket (token-handshaked, binary
        ndarray frames) — bit-identical results, multi-node-shaped
        plumbing.  See :mod:`repro.serve.transport`.
    max_batch, max_delay, cache_entries:
        Per-shard gateway defaults (each worker's per-name services are
        created from these, exactly as in a single-process gateway).
    request_timeout:
        Parent-side budget shared by one fan-out (``stats``, ``flush``,
        ``trace_spans``, broadcasts): a shard still silent when it is
        spent is skipped as wedged.
    tracer:
        Optional parent-side :class:`~repro.serve.obs.trace.Tracer`.
        When set, traced submissions record ``route`` and
        ``transport`` spans here, the trace id rides the submit tuple to
        the shard, and every worker stands up its own tracer (same ring
        size) whose spans :meth:`trace_spans` fetches back by the ``obs``
        op.  ``None`` (the default) keeps all paths tracing-free.
    trace_sample:
        Auto-born traces sample 1-in-``trace_sample`` submissions
        (deterministic stride, the monitor plane's ``sample`` dial);
        inbound ``trace=`` contexts are always honoured, never sampled.

    The cluster is a :class:`~repro.serve.backend.Backend` and a
    request-side :class:`~repro.serve.backend.TapHost`: every row crosses
    the parent, so a parent-side monitoring plane profiles the whole
    stream no matter which shard scores it.  Result-side taps need the
    scored values and live on the in-process
    :class:`~repro.serve.router.ServingGateway`; policy actions taken
    here (promote/rollback via the parent registry) still propagate
    cluster-wide through the ack-gated broadcast machinery.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        n_shards: int = 2,
        route: str = "hash",
        start_method: str | None = None,
        transport: str = "pipe",
        max_batch: int = 256,
        max_delay: float = 0.005,
        cache_entries: int = 4096,
        request_timeout: float = 60.0,
        tracer: Any = None,
        trace_sample: int = 1,
    ):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if route not in _ROUTES:
            raise ValueError(f"route must be one of {_ROUTES}, got {route!r}")
        if transport not in _TRANSPORTS:
            raise ValueError(
                f"transport must be one of {_TRANSPORTS}, got {transport!r}")
        self.registry = registry
        self.route = route
        self.transport = transport
        self.request_timeout = float(request_timeout)
        super().__init__()
        self._init_tracing(tracer, trace_sample)
        # workers rebuild their own tracer from the ring size alone (a
        # Tracer holds locks and a clock — it must not cross the pickle)
        self._trace_rings = int(getattr(tracer, "ring_size", 0)) if tracer else 0
        self._gateway_kwargs = {
            "max_batch": int(max_batch),
            "max_delay": float(max_delay),
            "cache_entries": int(cache_entries),
        }
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self._lock = threading.Lock()  # serializes broadcasts and close
        self._rr = itertools.count()
        snapshot = registry.snapshot()  # one per fleet, shared by every worker
        self._shards: list[_ShardHandle] = [
            self._spawn(i, snapshot) for i in range(n_shards)
        ]
        self._closed = False
        registry.add_listener(self._on_stage_change)

    # ------------------------------------------------------------------ #
    # worker lifecycle
    # ------------------------------------------------------------------ #
    def _spawn(self, shard_id: int, snapshot: dict[str, dict[str, Any]]) -> _ShardHandle:
        if self.transport == "socket":
            # bind before forking so the worker's connect can never race a
            # missing listener; the token hello authenticates the peer
            listener = SocketListener()
            spec: tuple = ("socket", listener.address, listener.token)
            parent_end = None
        else:
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            spec = ("pipe", child_conn)
            parent_end = parent_conn
        process = self._ctx.Process(
            target=_worker_main,
            args=(spec, snapshot, self._gateway_kwargs, self._trace_rings),
            name=f"serve-shard-{shard_id}",
            daemon=True,
        )
        process.start()
        if self.transport == "socket":
            try:
                transport: Transport = listener.accept(timeout=30.0)
            finally:
                listener.close()  # one worker per listener, accepted or not
        else:
            child_conn.close()  # the worker's copy is the only write end left
            transport = PipeTransport(parent_end)
        handle = _ShardHandle(shard_id, process, transport)
        handle.reader = threading.Thread(
            target=self._reader, args=(handle,), name=f"shard{shard_id}-reader", daemon=True
        )
        handle.reader.start()
        return handle

    def _reader(self, handle: _ShardHandle) -> None:
        """Complete tickets from one shard's batched answers; when the
        stream ends — a :class:`TransportError` from a worker exit/kill,
        *or* any unexpected decode failure — fail everything still
        pending.  The cleanup is a ``finally`` because a reader that dies
        without marking the shard dead would leave clients blocking
        forever on tickets nobody will complete."""
        try:
            while True:
                try:
                    answers = handle.transport.recv()
                except TransportError:
                    break
                # atomic pops, no handle.lock: a sender may hold it, blocked
                # on a full channel, while the worker waits on this reader
                tickets = [handle.pending.pop(req_id, None) for _, req_id, _ in answers]
                for (tag, _, payload), ticket in zip(answers, tickets):
                    if ticket is None:
                        continue  # late reply after a crash-fail; ticket already errored
                    ctx = ticket.trace
                    if ctx is not None:
                        # transport = parent send → worker response landed,
                        # both ends read on the parent's clock
                        ctx.record("cluster", "transport", ticket.trace_t0,
                                   ctx.now(), meta={"shard": handle.shard_id})
                    if tag == "ok":
                        ticket._complete(payload, None)
                    else:
                        ticket._complete(None, payload)
        finally:
            with handle.lock:
                handle.alive = False
                orphans = list(handle.pending.values())
                handle.pending.clear()
            if orphans:
                err = ShardCrashedError(
                    f"shard {handle.shard_id} worker exited with "
                    f"{len(orphans)} request(s) in flight"
                )
                for ticket in orphans:
                    ticket._complete(None, err)

    def respawn(self, shard_ids: "list[int] | set[int] | None" = None) -> int:
        """Rebuild dead shards from the registry's current state; returns
        how many were restarted.  ``shard_ids`` limits the sweep to those
        shards (the supervisor's per-shard backoff path); the default
        rebuilds every dead worker.  The wave takes one fresh snapshot,
        shared by every replacement (inherited under ``fork``, pickled per
        worker under ``spawn``), so mutations that happened while a shard
        was down are already applied when it takes traffic again."""
        wanted = None if shard_ids is None else set(shard_ids)
        respawned = 0
        snapshot = None  # taken on the first dead shard, under self._lock
        with self._lock:
            if self._closed:
                raise coded(RuntimeError("ShardedServingCluster is closed"),
                            ErrorCode.CLOSED)
            # copy-on-write: lock-free readers index a consistent list
            shards = list(self._shards)
            for i, handle in enumerate(shards):
                if wanted is not None and handle.shard_id not in wanted:
                    continue
                with handle.lock:
                    dead = not handle.alive
                # a killed worker is dead once its process has exited,
                # even before the reader has seen EOF and cleared `alive`
                if dead or not handle.process.is_alive():
                    handle.transport.close()
                    handle.process.join(timeout=1.0)
                    if snapshot is None:
                        snapshot = self.registry.snapshot()
                    shards[i] = self._spawn(handle.shard_id, snapshot)
                    respawned += 1
            self._shards = shards
        return respawned

    def kill_shard(self, shard_id: int) -> None:
        """Hard-kill one worker process — the crash the resilience plane
        recovers from (the kill tests and the e2e ``storm`` workload
        drive it).
        The reader notices EOF, fails the shard's pending tickets, and
        marks it dead; :meth:`respawn` brings a replacement up."""
        handle = self._shards[shard_id]
        handle.process.kill()
        handle.process.join(timeout=5.0)

    # ------------------------------------------------------------------ #
    # routing + submission
    # ------------------------------------------------------------------ #
    def shard_of(self, name: str) -> int:
        """The shard index hash routing assigns to ``name``."""
        return shard_for_name(name, len(self._shards))

    def live_shards(self) -> list[int]:
        out = []
        for handle in self._shards:
            with handle.lock:
                if handle.alive:
                    out.append(handle.shard_id)
        return out

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    def _pick_shard(self, exclude: set[int] = frozenset()) -> _ShardHandle | None:
        """Next replicated-route shard: round-robin strictly over live
        workers (minus ``exclude``, the shards a retry loop already tried).
        Returns ``None`` only when no live candidate remains — a dead
        worker is *skipped*, never selected while a live one exists."""
        live = [
            h for h in self._shards if h.alive and h.shard_id not in exclude
        ]
        if not live:
            return None
        return live[next(self._rr) % len(live)]

    @staticmethod
    def _crashed_ticket(shard_id: int, message: str, trace: Any = None) -> ClusterTicket:
        # keeps the request's trace: a retry of it joins the same trace
        ticket = ClusterTicket(shard_id)
        ticket.trace = trace
        ticket._complete(None, ShardCrashedError(message))
        return ticket

    def _send_request(
        self, handle: _ShardHandle, op: str, *args: Any, trace: Any = None
    ) -> ClusterTicket:
        return self._try_send(handle, op, *args, trace=trace) or self._crashed_ticket(
            handle.shard_id, f"shard {handle.shard_id} is down (call respawn())", trace)

    def _try_send(
        self, handle: _ShardHandle, op: str, *args: Any, trace: Any = None
    ) -> ClusterTicket | None:
        """Enqueue one request on ``handle``; ``None`` means the shard is
        dead (or its transport broke mid-send, in which case it is marked
        dead so the next :meth:`_pick_shard` skips it) and the caller may
        try another shard instead of surfacing the failure."""
        ticket = ClusterTicket(handle.shard_id)
        if trace is not None:
            ticket.trace = trace
            ticket.trace_t0 = trace.now()  # the reader ends this span
        with handle.lock:
            if self._closed:
                ticket._complete(None, coded(
                    RuntimeError("ShardedServingCluster is closed"), ErrorCode.CLOSED
                ))
                return ticket
            if not handle.alive:
                return None
            req_id = handle.next_req
            handle.next_req += 1
            handle.pending[req_id] = ticket
            try:
                handle.transport.send((op, req_id, *args))
            except TransportError:
                handle.pending.pop(req_id, None)
                handle.alive = False  # the reader will confirm via its own error
                return None
        return ticket

    def _submit_replicated(
        self, name: str, arr: np.ndarray, kind: str, trace: Any = None
    ) -> ClusterTicket:
        """Replicated-route submission with dead-shard absorption: a shard
        found dead at send time (routing race, broken pipe) is excluded and
        the request re-routes to the next live worker.  Only when *every*
        shard is down does the ticket surface a coded crash error."""
        tried: set[int] = set()
        args = (name, arr, kind) if trace is None else (
            name, arr, kind, trace.trace_id
        )
        while True:
            handle = self._pick_shard(tried)
            if handle is None:
                return self._crashed_ticket(
                    -1, "no live shard available (call respawn())", trace)
            ticket = self._try_send(handle, "submit", *args, trace=trace)
            if ticket is not None:
                return ticket
            tried.add(handle.shard_id)

    def submit(
        self, name: str, row: np.ndarray, kind: str = "predict", *, trace: Any = None
    ) -> ClusterTicket:
        """Route one request; returns a ticket whose ``result()`` blocks.

        A dead route never hangs: the ticket completes immediately with
        :class:`ShardCrashedError` (replicated routing first re-routes to
        any remaining live shard).  ``trace`` adopts an inbound
        :class:`~repro.serve.obs.trace.TraceContext`; with none given and
        a ``tracer`` configured, the trace is born here for every
        ``trace_sample``-th submission; :data:`~repro.serve.backend.UNSAMPLED`
        (an upstream layer sampled the request out) traces nothing."""
        arr = np.asarray(row, dtype=float)
        if trace is None:
            if self._tracer is not None:
                trace = self._sampled_trace()
        elif trace is UNSAMPLED:
            trace = None
        t0 = trace.now() if trace is not None else 0.0
        if self.route == "hash":
            handle = self._shards[self.shard_of(name)]
            if trace is not None:
                ticket = self._send_request(
                    handle, "submit", name, arr, kind, trace.trace_id,
                    trace=trace,
                )
                trace.record("cluster", "route", t0, trace.now(),
                             meta={"shard": handle.shard_id})
            else:
                ticket = self._send_request(handle, "submit", name, arr, kind)
        else:
            ticket = self._submit_replicated(name, arr, kind, trace=trace)
            if trace is not None:
                trace.record("cluster", "route", t0, trace.now(),
                             meta={"shard": ticket.shard_id})
        if self._request_taps:
            # a private copy for observers: the caller may reuse its buffer
            # once submit returns (the worker scores the pickled bytes, but
            # a tap retaining `arr` would see later mutations)
            self._notify_request(name, np.array(arr), kind)
        return ticket

    def submit_block(
        self, name: str, X: np.ndarray, kind: str = "predict", *, trace: Any = None
    ):
        """Submit a whole (m, d) block.

        Under ``"replicated"`` routing the rows split across every live
        shard and score in parallel processes; the composite ticket
        reassembles them in order (a traced block traces every part).
        Under ``"hash"`` routing the block rides to the name's owner
        whole (one shard, one batch)."""
        X = as_block(X)
        if self.route == "hash":
            return self.submit(name, X, kind, trace=trace)
        if trace is None and self._tracer is not None:
            trace = self._sampled_trace()
        elif trace is UNSAMPLED:
            trace = None
        n_live = len(self.live_shards())
        n_parts = max(1, min(max(1, n_live), X.shape[0]))
        # each part routes through the dead-shard-absorbing path: a worker
        # that dies between the live count and the send just means its
        # chunk lands on a surviving replica instead of erroring the block
        parts = [
            self._submit_replicated(name, chunk, kind, trace=trace)
            for chunk in np.array_split(X, n_parts)
        ]
        if self._request_taps:
            self._notify_request(name, np.array(X), kind)  # one private-copy observation
        return _BlockTicket(parts, kind)

    def flush(self, name: str | None = None) -> int:
        """Force-score pending requests on every live shard."""
        return sum(self._fanout("flush", name).values())

    # ------------------------------------------------------------------ #
    # registry mutations (broadcast)
    # ------------------------------------------------------------------ #
    def register(self, name: str, model: Any, promote: bool = False) -> int:
        """Register on the parent registry, then ship the frozen, sealed
        model to every shard pinned under the same version number.

        Registration *must* go through the cluster (a listener can't see
        plain registers, and the workers need the model bytes); the stage
        aliases may be moved through either the cluster or the registry.
        """
        version = self.registry.register(name, model, promote=False)
        frozen = self.registry.get(name, version)  # post-freeze, post-seal
        self._broadcast("register", name, (pickle.dumps(frozen), version))
        if promote:
            self.registry.promote(name, version)  # listener broadcasts
        return version

    def promote(self, name: str, version: int) -> None:
        self.registry.promote(name, version)

    def rollback(self, name: str) -> int:
        return self.registry.rollback(name)

    def unregister(self, name: str, version: int) -> None:
        self.registry.unregister(name, version)

    def _on_stage_change(self, name: str, version: int, action: str) -> None:
        if action in ("promote", "rollback", "unregister"):
            self._broadcast(action, name, version)
        elif action == "set_reference":
            # monitor-plane config: ship the new training-reference
            # baseline to every replica so a worker-side (or respawned)
            # monitor scores against exactly the parent's snapshot
            ref = self.registry.get_reference(name)
            if ref is not None:
                self._broadcast("set_reference", name, pickle.dumps(ref))

    def _broadcast(self, action: str, name: str, payload: Any) -> None:
        """Apply one mutation on every live shard and wait for the acks —
        after this returns, no live shard scores a new batch against the
        pre-mutation stage.  Dead shards are skipped; their replacement
        respawns from the parent snapshot, which already has the change.
        A worker that *fails* to apply (replica divergence) is loud."""
        with self._lock:
            if self._closed:
                return
            tickets = [
                self._send_request(h, "control", action, name, payload)
                for h in self._shards if h.alive
            ]
        self._gather(tickets)

    def _gather(self, tickets: list[ClusterTicket]) -> list[Any]:
        """Values of a fan-out's tickets that answered (see :meth:`_settle`)."""
        return [value for _, value in self._settle(list(enumerate(tickets)))]

    def _settle(self, pairs: list[tuple[Any, ClusterTicket]]) -> list[tuple[Any, Any]]:
        """``(key, value)`` for each ``(key, ticket)`` that answered,
        tolerating shards that died or wedged mid-call.

        One ``request_timeout`` budget is shared across the *whole*
        fan-out — each ticket waits only the remaining budget, so a kill
        storm that wedges every shard costs one timeout, not
        ``n_shards ×`` of them.  A ticket that times out is skipped like
        a crashed one (its shard is wedged; the supervisor's liveness
        pass decides its fate) rather than stalling or failing the
        surviving shards' results."""
        deadline = time.monotonic() + self.request_timeout
        out = []
        for key, ticket in pairs:
            remaining = max(deadline - time.monotonic(), 1e-9)
            try:
                out.append((key, ticket.result(timeout=remaining)))
            except (ShardCrashedError, TimeoutError):
                continue  # dead (respawn() recovers) or wedged: don't dam the rest
        return out

    def _fanout(self, op: str, *args: Any) -> dict[int, Any]:
        """Send ``op`` to every live shard; the answers by shard id (dead
        or wedged shards are simply absent)."""
        return dict(self._settle([
            (h.shard_id, self._send_request(h, op, *args))
            for h in self._shards if h.alive
        ]))

    # ------------------------------------------------------------------ #
    def stats(self) -> ClusterStats:
        """Per-shard :class:`GatewayStats` snapshots (dead shards absent),
        rolled up by :class:`~repro.serve.stats.ClusterStats`."""
        return ClusterStats(per_shard=self._fanout("stats"),
                            tap_errors=self._tap_errors)

    def trace_spans(self, trace_id: str | None = None) -> dict[str, Any]:
        """Reassemble a cross-process trace (or dump everything recorded).

        Merges the parent tracer's export with every live worker's
        (fetched by the ``obs`` op under one shared ``request_timeout``
        budget, the same fan-out contract as :meth:`stats`); spans from
        different processes share the trace id, drop/recorded counters
        sum per component.  Dead or wedged shards are simply absent —
        their rings died with them."""
        out = super().trace_spans(trace_id)
        for worker in self._fanout("obs", trace_id).values():
            merge_export(out, worker)
        return out

    # ------------------------------------------------------------------ #
    def close(self, timeout: float = 10.0) -> None:
        """Shut every worker down; idempotent and safe from ``__del__``.

        Workers drain their in-flight tickets before exiting (their
        gateway ``close`` completes everything), so responses already on
        the wire still land; anything left after the timeout is killed.
        """
        if self._closed:
            return  # already closed, or __init__ never got to own workers
        with self._lock:
            if self._closed:
                return
            self._closed = True
            shards = self._shards
        try:
            self.registry.remove_listener(self._on_stage_change)
        except Exception:
            pass
        deadline = time.monotonic() + timeout
        for handle in shards:
            with handle.lock:  # sends share the transport with _send_request
                if handle.alive:
                    try:
                        handle.transport.send(("shutdown",))
                    except TransportError:
                        pass
        for handle in shards:
            handle.process.join(timeout=max(0.1, deadline - time.monotonic()))
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=1.0)
            handle.transport.close()
            if handle.reader is not None:
                handle.reader.join(timeout=max(0.1, deadline - time.monotonic()))
