"""Resilience plane: retries, circuit breaking, and self-healing shards.

The coded vocabulary of :mod:`repro.serve.errors` says *what* failed and
whether retrying can help; this module is the machinery that acts on it.
Three cooperating pieces wrap a
:class:`~repro.serve.shard.ShardedServingCluster` without touching its
scoring path (results stay bit-identical — recovery changes *where* a
request scores, never *what* it returns):

* :class:`RetryController` — a :class:`~repro.serve.backend.Backend`
  decorator with deadline-budgeted retries.  Only ``retryable`` codes
  are retried (a transient shard crash is; malformed input never is —
  resubmitting the same bytes cannot help).  The gate is purely taxonomic —
  ``code.category == "transient" and code.retryable`` — so a channel
  failure surfacing as the transport layer's coded ``TRANSPORT_ERROR``
  (510) feeds breakers and retries exactly like a ``SHARD_CRASHED``
  (503), with no ``BrokenPipeError``/``OSError`` pattern-matching
  anywhere in this plane: pipe and socket transports are
  indistinguishable to the resilience machinery by construction
  (:mod:`repro.serve.transport`).  Exponential backoff stays a pure
  function of the injected clock and the seeded jitter stream: replaying
  the same submit order against the same failure schedule reproduces the
  same sleeps, the same attempt counts, the same outcome.  A traced
  request keeps one trace context across *all* its attempts: the
  controller records a ``("resilience", "retry")`` span per re-attempt
  (covering the backoff sleep, tagged with the attempt number and the
  coded failure that triggered it), so a recovered request's span dump
  shows exactly where its latency went.
* :class:`CircuitBreaker` — per-shard failure memory.  ``K`` consecutive
  transient failures open the circuit; after ``reset_timeout_s`` one
  half-open probe is let through, and its outcome closes or re-opens.
  An open breaker stops the retry loop from hammering a corpse while the
  supervisor rebuilds it.
* :class:`ShardSupervisor` — the control loop that makes "transient"
  true.  It watches worker liveness (daemon thread in production,
  hand-stepped under an injected clock in tests, exactly like
  :class:`~repro.serve.adaptive.AdaptiveBatchTuner`), respawns dead
  shards from the current parent snapshot, and backs off exponentially
  per shard when a respawn storms (a worker that dies right back gets a
  doubling delay, capped, reset once it stays up).  Every detection and
  respawn outcome is a coded
  :class:`~repro.serve.monitor.policy.MonitorEvent`, recorded into a
  :class:`~repro.serve.monitor.policy.PolicyEngine` when one is attached
  — shard deaths land on the same audit timeline as drift alerts.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable

import numpy as np

from repro.serve.backend import Backend, as_block
from repro.serve.errors import CodedError, ErrorCode, classify_exception
from repro.serve.monitor.policy import MonitorEvent
from repro.serve.stats import ResilienceStats

__all__ = ["CircuitBreaker", "RetryController", "RetryTicket", "ShardSupervisor"]


class CircuitBreaker:
    """Per-shard circuit breaker: closed → open → half-open → closed.

    ``failure_threshold`` *consecutive* transient failures open the
    circuit (one success resets the count — an occasional blip is not an
    outage).  While open, :meth:`try_acquire` refuses traffic until
    ``reset_timeout_s`` of injected-clock time has passed, then admits
    exactly one half-open probe; the probe's success closes the circuit,
    its failure re-opens it for another full timeout.  All transitions
    are pure functions of the injected clock and the recorded outcome
    sequence.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_timeout_s: float = 0.1,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout_s <= 0:
            raise ValueError("reset_timeout_s must be > 0")
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout_s = float(reset_timeout_s)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._failures = 0          # consecutive transient failures while closed
        self._opened_at = 0.0
        self._probe_in_flight = False
        # transition counters (monitoring; guarded by _lock)
        self.opens = 0
        self.probes = 0
        self.closes = 0

    @property
    def state(self) -> str:
        """``"closed"`` | ``"open"`` | ``"half_open"`` (open may lazily
        report half-open readiness only at the next :meth:`try_acquire`)."""
        with self._lock:
            return self._state

    @property
    def consecutive_failures(self) -> int:
        with self._lock:
            return self._failures

    def try_acquire(self) -> tuple[bool, float]:
        """May a request go through *now*?

        Returns ``(allowed, wait_hint_s)``: when refused, the hint is how
        long the caller should wait before asking again (time until the
        half-open window opens, or one timeout while another probe is in
        flight).  An ``open`` circuit whose timeout has lapsed transitions
        to half-open here and admits the caller as the probe.
        """
        with self._lock:
            if self._state == "closed":
                return True, 0.0
            now = self._clock()
            if self._state == "open":
                remaining = self._opened_at + self.reset_timeout_s - now
                if remaining > 0:
                    return False, remaining
                self._state = "half_open"
                self._probe_in_flight = True
                self.probes += 1
                return True, 0.0
            # half_open: one probe at a time decides the circuit's fate
            if not self._probe_in_flight:
                self._probe_in_flight = True
                self.probes += 1
                return True, 0.0
            return False, self.reset_timeout_s

    def allow(self) -> bool:
        return self.try_acquire()[0]

    def record_success(self) -> None:
        with self._lock:
            was = self._state
            self._state = "closed"
            self._failures = 0
            self._probe_in_flight = False
            if was != "closed":
                self.closes += 1

    def record_failure(self) -> None:
        with self._lock:
            self._probe_in_flight = False
            if self._state == "half_open":
                self._state = "open"
                self._opened_at = self._clock()
                self.opens += 1
                return
            self._failures += 1
            if self._state == "closed" and self._failures >= self.failure_threshold:
                self._state = "open"
                self._opened_at = self._clock()
                self.opens += 1


class RetryTicket:
    """Handle for one resilient request.

    The *first* attempt is submitted eagerly (at controller ``submit``
    time) while the shard's breaker is closed, so wrapped requests
    coalesce into the same micro-batches as bare ones — the resilience
    layer must not change batch shapes on the happy path.  Behind an open
    or half-open breaker the first attempt waits for :meth:`result`, so a
    half-open probe is always taken by the thread that waits on it.
    Retries run lazily inside :meth:`result`: the calling
    thread does its own waiting (no extra machinery threads), so the
    retry trajectory is deterministic per ticket — the backoff stream is
    seeded by ``(controller seed, submit index)`` and driven by the
    injected clock.  The first :meth:`result` call settles the outcome;
    later calls replay it from cache.
    """

    __slots__ = ("_controller", "_name", "_payload", "_kind", "_block",
                 "_index", "_current", "_settled", "_value", "_error",
                 "_trace")

    def __init__(self, controller: "RetryController", name: str,
                 payload: np.ndarray, kind: str, block: bool, index: int,
                 current: Any = None, trace: Any = None):
        self._controller = controller
        self._name = name
        self._payload = payload
        self._kind = kind
        self._block = block
        self._index = index
        self._current = current  # the eagerly-submitted first attempt
        self._trace = trace      # one context for the whole retry trajectory
        self._settled = False
        self._value: Any = None
        self._error: BaseException | None = None

    def done(self) -> bool:
        return self._settled

    def result(self, timeout: float | None = None) -> Any:
        if not self._settled:
            current, self._current = self._current, None
            try:
                self._value = self._controller._run(
                    self._name, self._payload, self._kind, self._block,
                    self._index, timeout, current, self._trace,
                )
            except BaseException as exc:
                self._error = exc
                self._settled = True
                raise
            self._settled = True
        if self._error is not None:
            raise self._error
        return self._value


class RetryController(Backend):
    """Deadline-budgeted retries: a ``Backend → Backend`` decorator.

    Parameters
    ----------
    cluster:
        The backend to wrap (:attr:`wrapped`), usually a
        :class:`~repro.serve.shard.ShardedServingCluster`: under hash
        routing its ``shard_of`` keys the per-shard breakers.  The
        controller never closes it — whoever built it does.
    deadline_s:
        Default per-request retry budget; ``result(timeout=)`` overrides
        it per call.  The budget covers everything — waits, backoff
        sleeps, resubmissions.
    base_delay_s, max_delay_s, multiplier, jitter:
        Exponential backoff: attempt ``n`` sleeps
        ``min(max_delay_s, base_delay_s * multiplier**n)`` scaled by a
        seeded jitter factor in ``[1-jitter, 1+jitter]``.
    seed:
        Root of the jitter streams; stream ``i`` (the i-th submitted
        ticket) is ``default_rng((seed, i))`` — independent of thread
        interleaving, reproducible per ticket.
    breaker_threshold, breaker_reset_s:
        Per-shard :class:`CircuitBreaker` parameters.
    clock, sleep:
        Injected time sources (fakes make every trajectory a pure
        function of the failure schedule).
    tracer:
        Optional :class:`~repro.serve.obs.trace.Tracer`.  When set, the
        controller is where every untraced request's trace is born.
        Without one, a request is traced only if it arrives with a
        context (``submit(..., trace=)``) or the wrapped backend samples
        it on the first attempt — so the wrapped backend's
        ``trace_sample`` holds behind the controller.  Either way every
        attempt reuses the one context.  Tracing is observational only —
        span recording cannot change a retry trajectory.

    Only codes with ``retryable=True`` are ever retried; a 4xx-class
    failure surfaces immediately with zero resubmissions.  Hash-routed
    names gate on their owning shard's breaker before each attempt
    (waiting out an open circuit while budget remains); replicated
    routing needs no gate — the cluster itself re-routes around dead
    workers — but outcomes still feed the breakers for observability.
    """

    def __init__(
        self,
        cluster: Any,
        deadline_s: float = 5.0,
        base_delay_s: float = 0.01,
        max_delay_s: float = 0.25,
        multiplier: float = 2.0,
        jitter: float = 0.1,
        seed: int = 0,
        breaker_threshold: int = 3,
        breaker_reset_s: float = 0.1,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        tracer: Any = None,
    ):
        if deadline_s <= 0:
            raise ValueError("deadline_s must be > 0")
        if base_delay_s <= 0 or max_delay_s < base_delay_s:
            raise ValueError("delays must satisfy 0 < base_delay_s <= max_delay_s")
        if multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not (0.0 <= jitter < 1.0):
            raise ValueError("jitter must be in [0, 1)")
        self.wrapped = cluster
        self.deadline_s = float(deadline_s)
        self.base_delay_s = float(base_delay_s)
        self.max_delay_s = float(max_delay_s)
        self.multiplier = float(multiplier)
        self.jitter = float(jitter)
        self.seed = int(seed)
        self._breaker_threshold = int(breaker_threshold)
        self._breaker_reset_s = float(breaker_reset_s)
        self._clock = clock
        self._sleep = sleep
        self._init_tracing(tracer)
        self._closed = False
        self._lock = threading.Lock()  # guards counters, breakers, index
        self._breakers: dict[int, CircuitBreaker] = {}
        self._next_index = 0
        # counters (guarded by _lock)
        self.submits = 0
        self.retries = 0
        self.recovered = 0
        self.failed_fast = 0
        self.exhausted = 0

    # ------------------------------------------------------------------ #
    def submit(self, name: str, row: np.ndarray, kind: str = "predict", *,
               trace: Any = None) -> RetryTicket:
        """Enqueue one resilient request (row copied: retries may resend
        it long after the caller reused its buffer)."""
        return self._make_ticket(name, np.array(row, dtype=float), kind, False, trace)

    def submit_block(self, name: str, X: np.ndarray, kind: str = "predict", *,
                     trace: Any = None) -> RetryTicket:
        """Enqueue one (m, d) block; replicated fan-out degrades gracefully
        (the cluster re-routes a dead shard's rows onto live replicas), and
        a whole-block transient failure retries under the same budget."""
        return self._make_ticket(name, as_block(X).copy(), kind, True, trace)

    def close(self) -> None:
        """Refuse new requests (``CLOSED``); the wrapped backend stays open."""
        self._closed = True

    def breaker(self, shard_id: int) -> CircuitBreaker:
        """The (lazily created) breaker guarding one shard."""
        with self._lock:
            br = self._breakers.get(shard_id)
            if br is None:
                br = CircuitBreaker(
                    failure_threshold=self._breaker_threshold,
                    reset_timeout_s=self._breaker_reset_s,
                    clock=self._clock,
                )
                self._breakers[shard_id] = br
            return br

    def backoff_delay(self, attempt: int, rng: np.random.Generator) -> float:
        """The attempt-``n`` sleep: clamped exponential times seeded jitter."""
        delay = min(self.max_delay_s, self.base_delay_s * self.multiplier ** attempt)
        if self.jitter:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay

    def stats(self) -> ResilienceStats:
        with self._lock:
            breakers = list(self._breakers.values())
            return ResilienceStats(
                submits=self.submits,
                retries=self.retries,
                recovered=self.recovered,
                failed_fast=self.failed_fast,
                exhausted=self.exhausted,
                breaker_opens=sum(b.opens for b in breakers),
                breaker_probes=sum(b.probes for b in breakers),
                breaker_closes=sum(b.closes for b in breakers),
            )

    # ------------------------------------------------------------------ #
    def _make_ticket(self, name: str, payload: np.ndarray, kind: str,
                     block: bool, trace: Any) -> RetryTicket:
        if self._closed:
            raise CodedError("RetryController is closed", code=ErrorCode.CLOSED)
        with self._lock:
            index = self._next_index
            self._next_index += 1
            self.submits += 1
        # one trace context per logical request, shared by every attempt
        # (one the wrapped backend samples is adopted in _run), so a
        # recovered request's span dump reads end-to-end
        if trace is None and self._tracer is not None:
            trace = self._sampled_trace()
        # eager first attempt: wrapped traffic coalesces into the same
        # micro-batches as bare traffic.  Only through a *closed* breaker,
        # checked without acquiring: a half-open probe taken here would
        # report only when this ticket's result() runs, and a FIFO
        # collector runs it after older tickets that sit in _gate waiting
        # for that very probe.  Deferred tickets take the probe in
        # result(), on the thread that waits for its outcome.
        current = None
        if (self.wrapped.route != "hash"
                or self.breaker(self.wrapped.shard_of(name)).state == "closed"):
            current = self._attempt(name, payload, kind, block, trace)
        return RetryTicket(self, name, payload, kind, block, index, current, trace)

    def _attempt(self, name: str, payload: np.ndarray, kind: str,
                 block: bool, trace: Any) -> Any:
        """One submission to the wrapped backend; an untraced request
        reaches it as a bare ``submit(name, row, kind)``, so the wrapped
        backend makes the sampling decision itself."""
        submit = self.wrapped.submit_block if block else self.wrapped.submit
        if trace is None:
            return submit(name, payload, kind)
        return submit(name, payload, kind, trace=trace)

    def _shard_ids_of(self, ticket: Any) -> list[int]:
        sid = getattr(ticket, "shard_id", None)
        if sid is not None:
            return [sid] if sid >= 0 else []
        return [p.shard_id for p in getattr(ticket, "_parts", ()) if p.shard_id >= 0]

    def _record(self, ticket: Any, ok: bool, transient: bool) -> None:
        for sid in self._shard_ids_of(ticket):
            if ok or not transient:
                # a non-transient coded reply (malformed row, unknown
                # model, scoring failure) is a completed round-trip from a
                # live worker — availability-wise a success.  It MUST
                # report to the breaker: a half-open probe that recorded
                # neither success nor failure would leak the probe slot
                # and wedge the breaker half-open, starving the shard of
                # traffic until an unrelated request happened to report
                # (the chaos harness catches this as poison floods turning
                # into full-deadline CIRCUIT_OPEN stalls)
                self.breaker(sid).record_success()
            else:
                self.breaker(sid).record_failure()

    def _gate(self, shard_id: int, deadline: float) -> None:
        """Wait out an open circuit while budget remains; raise
        ``CIRCUIT_OPEN`` only once the budget cannot cover the wait."""
        br = self.breaker(shard_id)
        while True:
            allowed, wait = br.try_acquire()
            if allowed:
                return
            remaining = deadline - self._clock()
            if remaining <= 0:
                raise CodedError(
                    f"circuit open for shard {shard_id} "
                    f"(state={br.state}, retry budget spent)",
                    code=ErrorCode.CIRCUIT_OPEN,
                )
            self._sleep(min(wait, remaining))

    def _run(self, name: str, payload: np.ndarray, kind: str, block: bool,
             index: int, timeout: float | None, current: Any = None,
             trace: Any = None) -> Any:
        budget = self.deadline_s if timeout is None else float(timeout)
        deadline = self._clock() + budget
        # per-ticket jitter stream, built lazily: Generator construction
        # is the single biggest per-request cost and the happy path never
        # draws from it — deferring keeps the wrap overhead inside budget
        # without changing any retry trajectory (the stream is still a
        # pure function of (seed, index))
        rng: np.random.Generator | None = None
        hash_routed = self.wrapped.route == "hash"
        attempt = 0
        while True:
            if current is not None:
                ticket, current = current, None
            else:
                if hash_routed:
                    self._gate(self.wrapped.shard_of(name), deadline)
                ticket = self._attempt(name, payload, kind, block, trace)
            remaining = deadline - self._clock()
            try:
                value = ticket.result(max(remaining, 1e-9))
            except BaseException as exc:
                code = classify_exception(exc)
                self._record(ticket, ok=False,
                             transient=code.category == "transient" and code.retryable)
                if not code.retryable:
                    with self._lock:
                        self.failed_fast += 1
                    raise  # resubmitting the same bytes cannot help
                remaining = deadline - self._clock()
                if remaining <= 0:
                    with self._lock:
                        self.exhausted += 1
                    raise
                if trace is None:
                    # adopt the context the wrapped backend sampled for
                    # this attempt: the retries join its trace
                    trace = getattr(ticket, "trace", None)
                if rng is None:
                    rng = np.random.default_rng((self.seed, index))
                delay = self.backoff_delay(attempt, rng)
                t_retry = trace.now() if trace is not None else 0.0
                self._sleep(min(delay, remaining))
                attempt += 1
                with self._lock:
                    self.retries += 1
                if trace is not None:
                    # the backoff sleep is the retry's latency cost; the
                    # resubmission itself shows up as the next cluster span
                    trace.record(
                        "resilience", "retry", t_retry, trace.now(),
                        meta={"attempt": attempt, "code": int(code)},
                    )
                continue
            self._record(ticket, ok=True, transient=False)
            if attempt > 0:
                with self._lock:
                    self.recovered += 1
            return value


class _SupervisedShard:
    """Supervisor-side memory for one shard id."""

    __slots__ = ("down_since", "respawn_count", "last_respawn_at")

    def __init__(self) -> None:
        self.down_since: float | None = None
        self.respawn_count = 0          # consecutive respawns without stability
        self.last_respawn_at = 0.0


class ShardSupervisor:
    """Liveness watchdog: detect dead workers, respawn them, back off storms.

    Duck-typed over the cluster (``n_shards``, ``live_shards()``,
    ``respawn(shard_ids)``), so determinism tests drive it against a stub
    with a hand-cranked clock.  :meth:`step` is one control pass;
    :meth:`start` runs it from a daemon thread every ``check_interval_s``
    (production mode, same split as the adaptive tuner).

    Respawn-storm backoff is per shard: the first respawn of a freshly
    dead worker is immediate, but a shard that keeps dying waits
    ``backoff_base_s * 2**(n-1)`` (capped at ``backoff_max_s``) after its
    n-th respawn; surviving ``stability_window_s`` of clock time resets
    the count.  Every detection and respawn outcome becomes a coded
    :class:`~repro.serve.monitor.policy.MonitorEvent` in :attr:`events`
    (and in the attached policy engine's audit trail, via
    :meth:`~repro.serve.monitor.policy.PolicyEngine.record`).
    """

    RULE = "shard-supervisor"

    def __init__(
        self,
        cluster: Any,
        policy: Any = None,
        check_interval_s: float = 0.05,
        backoff_base_s: float = 0.05,
        backoff_max_s: float = 2.0,
        stability_window_s: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
        max_events: int = 1024,
    ):
        if check_interval_s <= 0:
            raise ValueError("check_interval_s must be > 0")
        if backoff_base_s <= 0 or backoff_max_s < backoff_base_s:
            raise ValueError("backoffs must satisfy 0 < base <= max")
        self.cluster = cluster
        self.policy = policy
        self.check_interval_s = float(check_interval_s)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_max_s = float(backoff_max_s)
        self.stability_window_s = float(stability_window_s)
        self._clock = clock
        self._lock = threading.Lock()  # serializes whole steps
        self._shards: dict[int, _SupervisedShard] = {}
        self.events: deque[MonitorEvent] = deque(maxlen=max_events)
        self.respawns = 0
        self.respawn_failures = 0
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    # ------------------------------------------------------------------ #
    def backoff_for(self, respawn_count: int) -> float:
        """Delay before respawn attempt ``respawn_count + 1`` of a storm."""
        if respawn_count < 1:
            return 0.0
        return min(self.backoff_max_s, self.backoff_base_s * 2.0 ** (respawn_count - 1))

    def step(self) -> list[MonitorEvent]:
        """One watchdog pass; returns the events it emitted.

        Pure function of the injected clock, the cluster's liveness view,
        and the respawn outcomes — stepping a stub cluster through the
        same schedule twice yields identical event streams.
        """
        with self._lock:
            now = self._clock()
            emitted: list[MonitorEvent] = []
            live = set(self.cluster.live_shards())
            for sid in range(self.cluster.n_shards):
                st = self._shards.setdefault(sid, _SupervisedShard())
                if sid in live:
                    st.down_since = None
                    if st.respawn_count and (
                        now - st.last_respawn_at >= self.stability_window_s
                    ):
                        st.respawn_count = 0  # survived: the storm is over
                    continue
                if st.down_since is None:
                    st.down_since = now
                    emitted.append(self._event(
                        now, "alert", sid,
                        f"shard {sid} worker is dead", ErrorCode.SHARD_CRASHED,
                    ))
                wait = self.backoff_for(st.respawn_count)
                ready_at = (st.last_respawn_at + wait) if st.respawn_count else st.down_since
                if now < ready_at:
                    continue  # storm backoff: let the substrate breathe
                st.respawn_count += 1
                st.last_respawn_at = now
                try:
                    n = int(self.cluster.respawn([sid]))
                except Exception as exc:
                    self.respawn_failures += 1
                    emitted.append(self._event(
                        now, "alert-failed", sid,
                        f"respawn of shard {sid} raised "
                        f"{type(exc).__name__}: {exc} "
                        f"(attempt {st.respawn_count}, "
                        f"next in {self.backoff_for(st.respawn_count):.3f}s)",
                        ErrorCode.RESPAWN_FAILED,
                    ))
                    continue
                if n > 0:
                    self.respawns += 1
                    st.down_since = None
                    emitted.append(self._event(
                        now, "respawn", sid,
                        f"shard {sid} respawned from current snapshot "
                        f"(attempt {st.respawn_count})", None,
                    ))
            self.events.extend(emitted)
        if self.policy is not None:
            for event in emitted:
                self.policy.record(event)
        return emitted

    def _event(self, now: float, action: str, shard_id: int,
               detail: str, code: ErrorCode | None) -> MonitorEvent:
        return MonitorEvent(
            at=now, name=f"shard:{shard_id}", rule=self.RULE,
            action=action, value=float(shard_id), detail=detail, code=code,
        )

    def stats(self) -> ResilienceStats:
        with self._lock:
            return ResilienceStats(
                respawns=self.respawns,
                respawn_failures=self.respawn_failures,
            )

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Spawn the daemon watchdog (production mode; tests call
        :meth:`step` directly)."""
        if self._thread is not None:
            raise RuntimeError("supervisor already started")
        self._stop.clear()

        def run() -> None:
            while not self._stop.wait(self.check_interval_s):
                try:
                    self.step()
                except Exception:
                    # the cluster may be closing under us; the watchdog
                    # itself must never die of a racing shutdown
                    if self._stop.is_set():
                        return

        self._thread = threading.Thread(target=run, name="shard-supervisor", daemon=True)
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=timeout)
        self._thread = None

    def __enter__(self) -> "ShardSupervisor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()
