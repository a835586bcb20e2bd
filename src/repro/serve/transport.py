"""Pluggable parent↔worker transports for the sharded serving cluster.

Before this module the cluster's communication path was an opaque
boundary: :mod:`multiprocessing` pipes pinned the cluster to one node and
spoke a second, pickle-only wire format hidden behind the JSON frame
protocol the network front door ships.  The paper's taxonomy argument —
error sources compound across system boundaries, so every boundary must
be observable and fault-isolated — applies here exactly: this module
makes the boundary explicit, typed, and swappable.

:class:`Transport` is the interface (``send``/``recv`` framed messages,
``ready``, ``close``); every failure it raises is one exception type,
:class:`TransportError`, pre-annotated with the coded vocabulary's
``TRANSPORT_ERROR`` (510, critical, retryable) so breakers, the retry
controller, and the supervisor classify channel failures through the
taxonomy instead of catching ``BrokenPipeError``/``OSError`` ad hoc.

Two implementations:

* :class:`PipeTransport` — today's duplex :mod:`multiprocessing` pipe,
  behaviour-preserving (pickle round-trip per message, single node).
* :class:`SocketTransport` — the same length-prefixed frame protocol the
  network edge speaks (:mod:`repro.serve.net.protocol`), extended with
  binary ndarray frames: each message is one JSON envelope frame plus N
  binary blob frames.  ndarrays cross as raw dtype/shape/order-tagged
  buffer bytes (bit-identical by construction, no JSON float repr);
  scalars ride inline in the envelope (``repr`` round-trip is IEEE-754
  exact); tuples are tagged so ``predict_dist``'s ``(mean, var)`` shape
  survives; anything richer (stats snapshots, exceptions) falls back to
  a pickle blob.  The handshake is a per-spawn loopback listener plus a
  random token hello, which is exactly the shape a future multi-node
  deployment needs — only the bind address stops being ``127.0.0.1``.

The frame cap here is :data:`SHARD_MAX_FRAME_BYTES` (1 GiB), not the
network edge's 8 MiB ``MAX_FRAME_BYTES``: shard traffic legitimately
carries multi-hundred-MiB pickled model snapshots on ``register``.
"""

from __future__ import annotations

import pickle
import secrets
import select
import socket
import threading
from typing import Any

import numpy as np

from repro.serve.errors import CodedError, ErrorCode
from repro.serve.net.protocol import (
    decode_ndarray,
    decode_payload,
    encode_binary_frame,
    encode_frame,
    encode_ndarray,
    recv_any_frame,
)

__all__ = [
    "SHARD_MAX_FRAME_BYTES",
    "PipeTransport",
    "SocketListener",
    "SocketTransport",
    "Transport",
    "TransportError",
    "connect_worker_transport",
    "make_worker_transport",
]

SHARD_MAX_FRAME_BYTES = 1 << 30  # register ships whole pickled models


class TransportError(ConnectionError):
    """The one exception every transport failure surfaces as.

    Born coded: the class-level ``code`` attribute means
    :func:`repro.serve.errors.classify_exception` maps it to
    ``TRANSPORT_ERROR`` (5xx transient, retryable) without any caller
    annotating — the uniform typed failure channel the resilience plane
    keys on.
    """

    code = ErrorCode.TRANSPORT_ERROR


class Transport:
    """Interface: framed messages between the cluster parent and a worker.

    ``send(msg)`` ships one picklable tuple; ``recv()`` blocks for the
    next one; ``ready()`` says without blocking whether ``recv`` would
    return (or raise) at once.  ``send`` and ``recv`` raise
    :class:`TransportError` on any channel failure — including the peer
    closing, which deliberately is *not* a separate "clean EOF" path: the
    caller's reaction (stop the loop, fail pending work) is the same
    either way.  ``close()`` is idempotent and unblocks a concurrent
    ``recv``.
    """

    kind = "abstract"

    def send(self, msg: tuple) -> None:
        raise NotImplementedError

    def recv(self) -> tuple:
        raise NotImplementedError

    def ready(self) -> bool:
        """True when a message is waiting, or the channel is closed so
        ``recv`` would raise; never blocks.  The shard worker asks this to
        decide whether to score its pending batch now."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class PipeTransport(Transport):
    """Today's channel: one duplex :mod:`multiprocessing` pipe end."""

    kind = "pipe"

    def __init__(self, conn: Any):
        self._conn = conn

    def send(self, msg: tuple) -> None:
        try:
            self._conn.send(msg)
        except (BrokenPipeError, OSError, ValueError) as exc:
            raise TransportError(f"pipe send failed: {exc}") from exc

    def recv(self) -> tuple:
        try:
            return self._conn.recv()
        except (EOFError, OSError) as exc:
            raise TransportError(f"pipe closed: {exc}") from exc

    def ready(self) -> bool:
        try:
            return self._conn.poll(0)  # also True at EOF
        except (OSError, ValueError):
            return True  # our end is closed: recv raises at once

    def close(self) -> None:
        try:
            self._conn.close()
        except OSError:
            pass


# ---------------------------------------------------------------------- #
# socket transport: JSON envelope + binary blob frames
# ---------------------------------------------------------------------- #
# Envelope tree encoding.  Scalars ride inline only at their *exact*
# builtin types — np.float64 is an instance of float, but must take the
# pickle path so the decoded value's type matches what PipeTransport's
# pickle round-trip would have produced (type parity, not just value
# parity, keeps the two transports interchangeable in tests).
_INLINE_TYPES = (type(None), bool, int, float, str)


def _encode_tree(obj: Any, blobs: list[bytes]) -> Any:
    if type(obj) in _INLINE_TYPES:
        return obj
    if type(obj) is np.ndarray and not obj.dtype.hasobject:
        blobs.append(encode_ndarray(obj))
        return {"__nd__": len(blobs) - 1}
    if type(obj) in (bytes, bytearray):
        blobs.append(bytes(obj))
        return {"__bytes__": len(blobs) - 1}
    if type(obj) is tuple:
        return {"__tuple__": [_encode_tree(x, blobs) for x in obj]}
    if type(obj) is list:
        return [_encode_tree(x, blobs) for x in obj]
    blobs.append(pickle.dumps(obj))  # stats, exceptions, np scalars, dicts
    return {"__pickle__": len(blobs) - 1}


def _decode_tree(node: Any, blobs: list[bytes]) -> Any:
    if isinstance(node, list):
        return [_decode_tree(x, blobs) for x in node]
    if isinstance(node, dict):
        if "__nd__" in node:
            return decode_ndarray(blobs[node["__nd__"]])
        if "__bytes__" in node:
            return blobs[node["__bytes__"]]
        if "__tuple__" in node:
            return tuple(_decode_tree(x, blobs) for x in node["__tuple__"])
        if "__pickle__" in node:
            return pickle.loads(blobs[node["__pickle__"]])
        raise ValueError(f"unknown envelope tag {sorted(node)!r}")
    return node


class SocketTransport(Transport):
    """The frame protocol over one connected TCP socket.

    One message = one JSON envelope frame ``{"m": <tree>, "b": <n>}``
    followed by exactly ``n`` binary frames (the blobs the tree's tags
    index into).  The whole message goes out in a single ``sendall`` so
    concurrent envelope/blob interleaving is impossible even without the
    internal send lock (which guards against multi-threaded senders).
    """

    kind = "socket"

    def __init__(self, sock: socket.socket, max_frame_bytes: int = SHARD_MAX_FRAME_BYTES):
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # not TCP (tests may hand a socketpair); latency knob only
        self._sock = sock
        self._max = max_frame_bytes
        self._send_lock = threading.Lock()

    def send(self, msg: tuple) -> None:
        blobs: list[bytes] = []
        tree = _encode_tree(msg, blobs)
        data = encode_frame({"m": tree, "b": len(blobs)})
        data += b"".join(encode_binary_frame(b) for b in blobs)
        try:
            with self._send_lock:
                self._sock.sendall(data)
        except (OSError, ValueError) as exc:
            raise TransportError(f"socket send failed: {exc}") from exc

    def _recv_any(self) -> tuple[bool, bytes]:
        try:
            got = recv_any_frame(self._sock, self._max)
        except CodedError as exc:  # FRAME_TOO_LARGE: peer is out of contract
            raise TransportError(f"socket recv failed: {exc}") from exc
        except OSError as exc:
            raise TransportError(f"socket closed: {exc}") from exc
        if got is None:
            raise TransportError("peer closed the socket")
        return got

    def ready(self) -> bool:
        # recv reads exact frame lengths straight off the socket, so no
        # message can sit in a user-space buffer that select cannot see
        try:
            return bool(select.select([self._sock], [], [], 0)[0])  # also True at EOF
        except (OSError, ValueError):
            return True  # our end is closed: recv raises at once

    def recv(self) -> tuple:
        is_binary, payload = self._recv_any()
        if is_binary:
            raise TransportError("protocol violation: blob frame without envelope")
        try:
            env = decode_payload(payload)
            n_blobs = env["b"]
            if not isinstance(n_blobs, int) or n_blobs < 0:
                raise ValueError(f"bad blob count {n_blobs!r}")
        except (ValueError, KeyError, TypeError) as exc:
            raise TransportError(f"malformed envelope: {exc}") from exc
        blobs: list[bytes] = []
        for _ in range(n_blobs):
            is_binary, blob = self._recv_any()
            if not is_binary:
                raise TransportError("protocol violation: envelope where blob expected")
            blobs.append(blob)
        try:
            msg = _decode_tree(env["m"], blobs)
        except Exception as exc:
            raise TransportError(f"malformed message body: {exc}") from exc
        if not isinstance(msg, tuple):
            raise TransportError(f"message must decode to a tuple, got {type(msg).__name__}")
        return msg

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)  # unblocks a concurrent recv
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass


class SocketListener:
    """Per-spawn accept point for one worker's :class:`SocketTransport`.

    The parent binds an ephemeral loopback port *before* forking the
    worker, hands ``(address, token)`` through the process args, and
    :meth:`accept` verifies the token hello before trusting the
    connection — a stray local process that races the connect cannot
    impersonate the worker.  Multi-node is the same dance with a
    non-loopback bind address.
    """

    def __init__(self, host: str = "127.0.0.1"):
        self._sock = socket.create_server((host, 0))
        self.address: tuple[str, int] = self._sock.getsockname()[:2]
        self.token = secrets.token_hex(16)

    def accept(self, timeout: float = 30.0) -> SocketTransport:
        self._sock.settimeout(timeout)
        try:
            conn, _ = self._sock.accept()
        except (socket.timeout, OSError) as exc:
            raise TransportError(f"worker never connected: {exc}") from exc
        transport = SocketTransport(conn)
        try:
            hello = transport.recv()
        except TransportError:
            transport.close()
            raise
        if hello != ("hello", self.token):
            transport.close()
            raise TransportError("worker handshake token mismatch")
        return transport

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


def connect_worker_transport(
    address: tuple[str, int], token: str, timeout: float = 30.0
) -> SocketTransport:
    """Worker side of the handshake: connect back and say hello."""
    try:
        sock = socket.create_connection(address, timeout=timeout)
    except OSError as exc:
        raise TransportError(f"cannot reach parent at {address}: {exc}") from exc
    sock.settimeout(None)  # back to blocking: recv() waits for work
    transport = SocketTransport(sock)
    transport.send(("hello", token))
    return transport


def make_worker_transport(spec: tuple) -> Transport:
    """Build the worker's transport end from its picklable spawn spec:
    ``("pipe", conn)`` or ``("socket", (host, port), token)``."""
    if spec[0] == "pipe":
        return PipeTransport(spec[1])
    if spec[0] == "socket":
        return connect_worker_transport(spec[1], spec[2])
    raise ValueError(f"unknown transport spec {spec[0]!r}")
