"""Load generator: one TCP connection to the edge, two threads.

The calling thread sends pre-encoded request frames; one receiver thread
reads the replies, which the edge returns strictly in request order.  At
most ``window`` requests are outstanding (the edge's default
per-connection cap is 512, so a full window is never shed).

Open-loop phases give every request a due time.  The sender sleeps until
a request is due and never spins: a spinning generator starves the
stack's timer threads of CPU on a small machine and inflates every
latency it measures.  Latency is timed from the due time, so a stall
also charges the requests queued behind it.  Lateness — how long after
its due time the sender actually sent a request it was waiting for —
is the generator's own error and is reported as such.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.serve.net.protocol import MAX_FRAME_BYTES, recv_frame, request_frame

WINDOW = 512
REPLY_TIMEOUT_S = 60.0


@dataclass
class Phase:
    """Timings (perf_counter seconds) and raw replies of one phase."""

    first_id: int
    t_start: float
    due: np.ndarray | None   # absolute due times, open loop only
    t_send: np.ndarray
    t_recv: np.ndarray
    late: np.ndarray         # lateness (s) of requests the sender waited for
    replies: list[dict[str, Any]]

    @property
    def latency_ms(self) -> np.ndarray:
        origin = self.due if self.due is not None else self.t_send
        return (self.t_recv - origin) * 1e3

    @property
    def elapsed_s(self) -> float:
        return float(self.t_recv[-1] - self.t_start)


class EdgeConnection:
    def __init__(self, port: int, host: str = "127.0.0.1"):
        self._sock = socket.create_connection((host, port), timeout=REPLY_TIMEOUT_S)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._next_id = 0

    def encode(self, requests: list[tuple[str, np.ndarray, str]]) -> tuple[int, list[bytes]]:
        """Frames for ``(name, row or block, kind)`` requests, numbered
        consecutively — encoded before a phase, outside its timing."""
        first = self._next_id
        frames = [request_frame(first + i, name, row, kind)
                  for i, (name, row, kind) in enumerate(requests)]
        self._next_id += len(frames)
        return first, frames

    def run(self, encoded: tuple[int, list[bytes]], offsets: np.ndarray | None = None,
            window: int = WINDOW) -> Phase:
        """Send every frame and collect every reply.

        ``offsets`` (seconds from the phase start, non-decreasing) makes
        the phase open-loop; without it the phase is closed-loop,
        sending whenever the window has room."""
        first_id, frames = encoded
        n = len(frames)
        t_send = np.zeros(n)
        t_recv = np.zeros(n)
        late = np.full(n, np.nan)
        replies: list[Any] = [None] * n
        slots = threading.Semaphore(window)
        failure: list[BaseException] = []
        sock = self._sock

        def receive() -> None:
            try:
                for i in range(n):
                    msg = recv_frame(sock, MAX_FRAME_BYTES)
                    t_recv[i] = time.perf_counter()
                    if msg is None:
                        raise ConnectionError("edge closed the connection")
                    replies[i] = msg
                    slots.release()
            except BaseException as exc:  # handed to the sender below
                failure.append(exc)
                for _ in range(window):
                    slots.release()

        receiver = threading.Thread(target=receive, name="loadgen-receive")
        receiver.start()
        t0 = time.perf_counter()
        due = None if offsets is None else t0 + np.asarray(offsets, dtype=float)
        try:
            for i in range(n):
                if not slots.acquire(timeout=REPLY_TIMEOUT_S) or failure:
                    break
                if due is not None:
                    wait = due[i] - time.perf_counter()
                    if wait > 0:
                        time.sleep(wait)
                        late[i] = time.perf_counter() - due[i]
                t_send[i] = time.perf_counter()
                sock.sendall(frames[i])
        finally:
            receiver.join(REPLY_TIMEOUT_S + 5.0)
        if failure:
            raise RuntimeError(f"load generator lost the edge: {failure[0]!r}")
        if receiver.is_alive() or any(r is None for r in replies):
            raise RuntimeError("load generator: replies missing")
        return Phase(first_id, t0, due, t_send, t_recv, late, replies)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "EdgeConnection":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
