"""Structured logging: JSON lines, trace-correlated, coded-error aware.

The bench and CLI paths used to narrate progress with bare ``print``
calls — human-readable, machine-opaque.  :class:`StructuredLogger` emits
one JSON object per line so harness output can be grepped, joined
against trace dumps by trace id, and diffed across runs:

``{"ts": <clock>, "level": "info", "event": "...", "trace": "...", ...}``

Design rules (the same ones the rest of the obs plane holds):

* **Deterministic under injected clocks** — ``clock`` is a constructor
  parameter; tests inject a counter and pin exact output lines.
* **Coded-error aware** — passing a coded exception via ``exc=`` embeds
  its frozen :meth:`~repro.serve.errors.to_wire` image (code, category,
  severity, retryable, trace id when present) instead of a bare string.
* **Trace-correlated** — ``trace=`` accepts a trace id string or a
  :class:`~repro.serve.obs.trace.TraceContext` and writes the id, so a
  log line and the span dump for the same request share a join key.
* **Bounded** — an optional in-memory tail ring (for tests and the
  ``repro obs`` demo) holds the last ``ring`` records and counts, never
  stores, what it evicts.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any, Callable, IO

from repro.serve.errors import to_wire

__all__ = ["StructuredLogger"]

_LEVELS = ("debug", "info", "warn", "error")


class StructuredLogger:
    """Emit JSON-lines records to a stream, keeping a bounded tail.

    Parameters
    ----------
    stream:
        File-like target for one ``json.dumps`` line per record; ``None``
        keeps records in the tail ring only (the quiet default for
        benches, where the ring is inspected after the run).
    clock:
        Timestamp source (inject a counter for deterministic tests).
    ring:
        Tail-ring capacity; evictions increment :attr:`dropped` rather
        than vanishing (the same silent-loss rule as the span rings).
    level:
        Minimum level emitted; records below it are counted as
        :attr:`suppressed` and skipped.
    """

    def __init__(
        self,
        stream: IO[str] | None = None,
        clock: Callable[[], float] = time.perf_counter,
        ring: int = 256,
        level: str = "debug",
    ):
        if level not in _LEVELS:
            raise ValueError(f"unknown level {level!r}; choose from {_LEVELS}")
        self.stream = stream
        self.clock = clock
        self.level = level
        self._lock = threading.Lock()
        self._tail: deque[dict[str, Any]] = deque(maxlen=max(1, int(ring)))
        self._dropped = 0
        self._suppressed = 0

    # ------------------------------------------------------------------ #
    def log(
        self,
        level: str,
        event: str,
        trace: Any = None,
        exc: BaseException | None = None,
        **fields: Any,
    ) -> dict[str, Any] | None:
        """Build, retain, and (if a stream is attached) write one record.

        Returns the record dict, or ``None`` when suppressed by level.
        Extra keyword fields land verbatim in the record; they must be
        JSON-safe (the caller owns that — this layer never mutates them).
        """
        if level not in _LEVELS:
            raise ValueError(f"unknown level {level!r}; choose from {_LEVELS}")
        if _LEVELS.index(level) < _LEVELS.index(self.level):
            with self._lock:
                self._suppressed += 1
            return None
        record: dict[str, Any] = {"ts": self.clock(), "level": level,
                                  "event": event}
        trace_id = getattr(trace, "trace_id", trace)
        if isinstance(trace_id, str):
            record["trace"] = trace_id
        if exc is not None:
            record["error"] = to_wire(exc)
        if fields:
            record.update(fields)
        line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            if len(self._tail) == self._tail.maxlen:
                self._dropped += 1
            self._tail.append(record)
            stream = self.stream
        if stream is not None:
            stream.write(line + "\n")
        return record

    def debug(self, event: str, **fields: Any) -> dict[str, Any] | None:
        return self.log("debug", event, **fields)

    def info(self, event: str, **fields: Any) -> dict[str, Any] | None:
        return self.log("info", event, **fields)

    def warn(self, event: str, **fields: Any) -> dict[str, Any] | None:
        return self.log("warn", event, **fields)

    def error(self, event: str, **fields: Any) -> dict[str, Any] | None:
        return self.log("error", event, **fields)

    # ------------------------------------------------------------------ #
    def tail(self) -> list[dict[str, Any]]:
        """The retained records, oldest first."""
        with self._lock:
            return list(self._tail)

    @property
    def dropped(self) -> int:
        """Records evicted from the tail ring (never silent)."""
        with self._lock:
            return self._dropped

    @property
    def suppressed(self) -> int:
        """Records skipped by the level filter."""
        with self._lock:
            return self._suppressed
