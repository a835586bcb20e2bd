"""Request-scoped tracing: spans, bounded span rings, trace contexts.

The taxonomy paper's whole argument is that errors must be *attributed to
their source*; this module is the serving stack's attribution substrate.
A request acquires a :class:`TraceContext` where it enters the stack (the
network edge, or ``gateway.submit`` for in-process callers) and every
layer it crosses records a **span** — one ``(component, stage)`` pair
with start/end timestamps — into its own process-local
:class:`SpanRing`.  The trace id rides the existing carriers (the JSON
request frame's optional ``"trace"`` field, the shard ``submit`` tuple),
so spans recorded in different processes for one request reassemble by
id.

Design rules, mirroring the stack's standing invariants:

* **Observational only.**  Nothing here touches a row, a result, or an
  ordering decision; with no tracer attached the instrumented code paths
  collapse to a ``None`` check (the serving layers only call in when a
  context exists), so traced and untraced serving are bit-identical —
  and the ≤5 % overhead gate in ``python benchmarks/bench_serve.py``
  keeps the traced path honest.
* **Frozen vocabulary.**  Components and stages are fixed sets
  (:data:`COMPONENTS`, :data:`STAGES`), exactly like the frozen
  :class:`~repro.serve.errors.ErrorCode` numbers: dashboards and tests
  key on span names, so a name may be *added* but never renamed.
  :meth:`Tracer.record` rejects unknown names loudly — a typo'd stage
  must fail the PR, not silently fork the taxonomy.
* **Bounded memory.**  Every ring has a fixed capacity; an overwrite
  increments the ring's ``dropped`` counter (exported through the
  metrics registry) instead of being silent, and p99+ outliers survive
  overwrites through a per-stage **exemplar** store that keeps the
  slowest few spans seen so far.
* **Deterministic under injected clocks.**  All timestamps come from the
  tracer's ``clock`` callable; tests inject a counter and get exact,
  reproducible span trees.  Timestamps are per-process monotonic values
  (there is no cross-process clock sync — same as any real tracing
  system without NTP discipline), so ordering comparisons are only
  meaningful between spans recorded by the same tracer.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from typing import Any, Callable

__all__ = [
    "COMPONENTS",
    "STAGES",
    "Span",
    "SpanRing",
    "TraceContext",
    "Tracer",
]

# frozen span vocabulary — add, never rename (docs/observability.md)
COMPONENTS = frozenset({
    "edge",        # AsyncServeServer: parse/admission/respond
    "gateway",     # ServingGateway: the name's batcher, cache lookup
    "batcher",     # MicroBatcher: queue_wait/flush/score
    "cluster",     # ShardedServingCluster parent: route/transport
    "worker",      # shard worker process: respond (result wait + send)
    "resilience",  # RetryController: retry attempts
})
STAGES = frozenset({
    "parse",       # edge: frame -> validated request
    "admission",   # edge: in-flight budget check + enqueue
    "queue_wait",  # batcher: enqueue -> drain into a flush
    "flush",       # batcher: one drained batch scoring (batch-level)
    "route",       # gateway/cluster: find the name's batcher / pick the shard
    "steal",       # deprecated: never recorded (work stealing was removed)
    "transport",   # cluster: send -> worker response completes the ticket
    "score",       # batcher: drain -> ticket completed
    "respond",     # edge/worker: result wait + response hand-off
    "retry",       # resilience: one re-submission attempt
})

_EXEMPLARS_PER_STAGE = 8  # slowest spans kept per (component, stage)


class Span:
    """One recorded stage crossing.  Plain data; compare by fields."""

    __slots__ = ("trace_id", "component", "stage", "start", "end", "meta")

    def __init__(
        self,
        trace_id: str,
        component: str,
        stage: str,
        start: float,
        end: float,
        meta: dict[str, Any] | None = None,
    ):
        self.trace_id = trace_id
        self.component = component
        self.stage = stage
        self.start = start
        self.end = end
        self.meta = meta

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe image (the wire/op-frame form; pid tags the process
        so merged cross-process dumps stay attributable)."""
        d: dict[str, Any] = {
            "trace": self.trace_id,
            "component": self.component,
            "stage": self.stage,
            "start": self.start,
            "end": self.end,
            "pid": os.getpid(),
        }
        if self.meta:
            d["meta"] = self.meta
        return d

    def __repr__(self) -> str:  # debugging aid only
        return (f"Span({self.trace_id!r}, {self.component}/{self.stage}, "
                f"{self.duration * 1e3:.3f}ms)")


class SpanRing:
    """Bounded per-component span storage with drop accounting.

    Appends are O(1) under one lock; an append that evicts the oldest
    span increments ``dropped`` (never silent — the metrics registry
    exports it), and spans slower than the current exemplar floor are
    additionally retained in a fixed-size slowest-seen store so tail
    outliers outlive ring churn.
    """

    def __init__(self, capacity: int = 2048):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._ring: deque[Span] = deque(maxlen=self.capacity)
        self._dropped = 0
        self._recorded = 0
        # (component, stage) -> up-to-_EXEMPLARS_PER_STAGE slowest spans;
        # _ex_floor caches the fastest retained duration once a stage's
        # store is full, so the hot path is one float compare — the
        # replace-and-rescan only runs for spans that beat the floor
        # (rare by construction: they are the new tail outliers)
        self._exemplars: dict[tuple[str, str], list[Span]] = {}
        self._ex_floor: dict[tuple[str, str], float] = {}

    def add(self, span: Span) -> None:
        dur = span.end - span.start
        key = (span.component, span.stage)
        with self._lock:
            if len(self._ring) == self.capacity:
                self._dropped += 1
            self._ring.append(span)
            self._recorded += 1
            ex = self._exemplars.get(key)
            if ex is None:
                self._exemplars[key] = [span]
            elif len(ex) < _EXEMPLARS_PER_STAGE:
                ex.append(span)
                if len(ex) == _EXEMPLARS_PER_STAGE:
                    self._ex_floor[key] = min(s.end - s.start for s in ex)
            elif dur > self._ex_floor[key]:
                imin = min(range(len(ex)), key=lambda i: ex[i].end - ex[i].start)
                ex[imin] = span
                self._ex_floor[key] = min(s.end - s.start for s in ex)

    @property
    def dropped(self) -> int:
        with self._lock:
            return self._dropped

    @property
    def recorded(self) -> int:
        with self._lock:
            return self._recorded

    def snapshot(self) -> list[Span]:
        with self._lock:
            return list(self._ring)

    def exemplars(self) -> list[Span]:
        with self._lock:
            return [s for ex in self._exemplars.values() for s in ex]


class TraceContext:
    """One request's tracing handle: (tracer, trace id, clock).

    Cheap by design — three slots, no allocation per span beyond the
    :class:`Span` itself; serving layers carry it on tickets and call
    :meth:`now`/:meth:`record` around the stages they own.
    """

    __slots__ = ("tracer", "trace_id")

    def __init__(self, tracer: "Tracer", trace_id: str):
        self.tracer = tracer
        self.trace_id = trace_id

    def now(self) -> float:
        return self.tracer.clock()

    def record(
        self,
        component: str,
        stage: str,
        start: float,
        end: float,
        meta: dict[str, Any] | None = None,
    ) -> None:
        self.tracer.record(self.trace_id, component, stage, start, end, meta)


class Tracer:
    """Process-local span collector: one bounded ring per component.

    Parameters
    ----------
    ring_size:
        Capacity of each per-component :class:`SpanRing`.  Total memory
        is ``O(len(COMPONENTS) * ring_size)`` — fixed, never grows with
        uptime.
    clock:
        Timestamp source for every span this tracer records; inject a
        counter for deterministic tests.  Defaults to
        :func:`time.perf_counter`.
    """

    def __init__(
        self,
        ring_size: int = 2048,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.ring_size = int(ring_size)
        self.clock = clock
        self._rings: dict[str, SpanRing] = {}
        self._rings_lock = threading.Lock()
        # trace ids must be unique across the processes whose dumps merge
        # (parent + shard workers), so the pid is part of the id; the
        # counter keeps them deterministic within a process
        self._ids = itertools.count()
        self._id_prefix = f"{os.getpid():x}"

    # ------------------------------------------------------------------ #
    def start_trace(self, trace_id: str | None = None) -> TraceContext:
        """A fresh context (or adopt ``trace_id`` arriving off the wire)."""
        if trace_id is None:
            trace_id = f"{self._id_prefix}-{next(self._ids):x}"
        return TraceContext(self, trace_id)

    def context(self, trace_id: str | None = None) -> TraceContext:
        """Alias of :meth:`start_trace` reading better at adopt sites."""
        return self.start_trace(trace_id)

    def now(self) -> float:
        return self.clock()

    def _ring(self, component: str) -> SpanRing:
        ring = self._rings.get(component)
        if ring is None:
            with self._rings_lock:
                ring = self._rings.setdefault(component, SpanRing(self.ring_size))
        return ring

    def record(
        self,
        trace_id: str,
        component: str,
        stage: str,
        start: float,
        end: float,
        meta: dict[str, Any] | None = None,
    ) -> None:
        """Record one span.  Unknown component/stage names are refused —
        the vocabulary is frozen exactly like the coded-error numbers."""
        if component not in COMPONENTS:
            raise ValueError(
                f"unknown span component {component!r}; frozen set: "
                f"{sorted(COMPONENTS)}")
        if stage not in STAGES:
            raise ValueError(
                f"unknown span stage {stage!r}; frozen set: {sorted(STAGES)}")
        self._ring(component).add(Span(trace_id, component, stage, start, end, meta))

    # ------------------------------------------------------------------ #
    def spans(
        self, trace_id: str | None = None, component: str | None = None
    ) -> list[Span]:
        """Snapshot of recorded spans, optionally filtered; ring order
        (oldest first) per component, components in sorted order."""
        with self._rings_lock:
            rings = dict(self._rings)
        out: list[Span] = []
        for comp in sorted(rings):
            if component is not None and comp != component:
                continue
            for span in rings[comp].snapshot():
                if trace_id is None or span.trace_id == trace_id:
                    out.append(span)
        return out

    def exemplars(self) -> list[Span]:
        """Slowest-seen spans per (component, stage) — the p99+ outliers
        that survive ring overwrites."""
        with self._rings_lock:
            rings = dict(self._rings)
        return [s for comp in sorted(rings) for s in rings[comp].exemplars()]

    def slowest(self, k: int = 10) -> list[Span]:
        """Top-``k`` spans by duration across rings *and* exemplars
        (deduplicated — an exemplar may still be in its ring)."""
        seen: set[int] = set()
        spans: list[Span] = []
        for s in self.spans() + self.exemplars():
            if id(s) not in seen:
                seen.add(id(s))
                spans.append(s)
        spans.sort(key=lambda s: s.duration, reverse=True)
        return spans[: max(0, int(k))]

    def dropped(self) -> dict[str, int]:
        """Per-component ring overwrite counts (silent-loss satellite)."""
        with self._rings_lock:
            rings = dict(self._rings)
        return {comp: rings[comp].dropped for comp in sorted(rings)}

    def recorded(self) -> dict[str, int]:
        """Per-component lifetime span counts (ring churn included)."""
        with self._rings_lock:
            rings = dict(self._rings)
        return {comp: rings[comp].recorded for comp in sorted(rings)}

    def export(self, trace_id: str | None = None) -> dict[str, Any]:
        """JSON-safe dump — what the shard ``obs`` op and the edge
        ``trace`` op frame ship: spans plus drop accounting."""
        return {
            "spans": [s.to_dict() for s in self.spans(trace_id)],
            "dropped": self.dropped(),
            "recorded": self.recorded(),
        }
