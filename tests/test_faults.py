"""Fault injection against the *real* serve stack.

Where ``test_resilience.py`` pins trajectories against scripted stubs and
injected clocks, this suite breaks real components: micro-batcher slots
abandoned by timed-out callers, worker pipes that snap mid-send, and
worker processes hard-killed while requests are in flight.  The
acceptance contract (ISSUE 6): with a :class:`RetryController` in front
and a :class:`ShardSupervisor` respawning the dead, every retryable
request completes bit-identical to a direct predict — zero client-visible
``ShardCrashedError`` — while malformed requests fail fast with a 4xx
code and zero retries, and nothing ever hangs or answers twice.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.ml.forest import RandomForestRegressor
from repro.serve import (
    ErrorCode,
    MicroBatcher,
    ModelRegistry,
    RetryController,
    ShardSupervisor,
    ShardedServingCluster,
    code_of,
)
from repro.serve.shard import ShardCrashedError
from repro.serve.transport import TransportError

pytestmark = [pytest.mark.serve, pytest.mark.faults]


def _data(n=600, d=6, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, d))
    y = np.sin(2 * X[:, 0]) + X[:, 1] * X[:, 2] + 0.05 * rng.normal(0, 1, n)
    return X, y


@pytest.fixture(scope="module")
def forest():
    X, y = _data()
    return RandomForestRegressor(n_estimators=20, max_depth=8, random_state=1).fit(X, y)


@pytest.fixture(scope="module")
def registry(forest):
    reg = ModelRegistry()
    reg.register("forest", forest, promote=True)
    return reg


# --------------------------------------------------------------------- #
# micro-batcher: abandoned tickets must not leak queue slots
# --------------------------------------------------------------------- #
class TestAbandonedTickets:
    """A caller that gives up on a ticket leaves nothing behind: a wait
    that finds its ticket pending scores it, so no row stays queued."""

    def test_a_timed_out_wait_leaves_no_pending_row(self, forest):
        rows = _data(n=8, seed=4)[0]
        ref = np.array([forest.predict(r[None, :])[0] for r in rows])
        # batch far from full: only a waiter or a flush() scores anything
        with MicroBatcher(forest, max_batch=10_000) as mb:
            tickets = [mb.submit(r) for r in rows]
            got = [t.result(timeout=0.0) for t in tickets]
            assert mb._pending == [] and mb._pending_rows == 0
            assert np.array_equal(np.array(got), ref)
            assert mb.flush() == 0  # nothing left to flush
            # later traffic is not wedged, and the answers stay put
            late = mb.submit(rows[0])
            assert late.result(timeout=0.0) == ref[0]
            assert [t.result(timeout=0.0) for t in tickets] == got
            c = mb.counters()
            assert (c["batches"], c["abandoned"], c["deadline_flushes"]) == (2, 0, 0)

    def test_concurrent_abandoners_and_flushers(self, forest):
        """Half the callers give up with tiny timeouts while a flusher
        hammers; every ticket either carries its bit-exact answer or a
        DEADLINE_EXCEEDED — and no pending row survives."""
        rows = _data(n=64, seed=7)[0]
        with MicroBatcher(forest, max_batch=8) as mb:
            outcomes: list[tuple[int, object]] = []
            lock = threading.Lock()

            def caller(i):
                t = mb.submit(rows[i])
                try:
                    v = t.result(timeout=0.001 if i % 2 else 20.0)
                except TimeoutError as exc:
                    v = code_of(exc)
                with lock:
                    outcomes.append((i, v))

            threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(rows))]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30.0)
            assert len(outcomes) == len(rows)  # nobody hung
            direct = [forest.predict(r[None, :])[0] for r in rows]
            for i, v in outcomes:
                if isinstance(v, ErrorCode):
                    assert v is ErrorCode.DEADLINE_EXCEEDED
                else:
                    assert v == direct[i]
            mb.flush()
            assert mb._pending == [] and mb._pending_rows == 0


# --------------------------------------------------------------------- #
# replicated routing: dead shards must never be picked
# --------------------------------------------------------------------- #
class _SnappedTransport:
    """A transport whose sends fail like a worker that died this instant —
    before the reader thread has noticed and flipped ``alive``."""

    def __init__(self, inner):
        self._inner = inner

    def send(self, msg):
        raise TransportError("worker went away mid-send")

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


class TestReplicatedRouting:
    def test_round_robin_skips_shards_that_snap_at_send_time(self, registry):
        """Regression: round-robin used to hand requests to a shard whose
        pipe was already broken, erroring the ticket instead of rerouting.
        ``alive`` is still True here — only the send itself fails."""
        rows = _data(n=12, seed=8)[0]
        with ShardedServingCluster(
            registry, n_shards=2, route="replicated", max_batch=16, max_delay=0.005
        ) as cluster:
            victim = cluster._shards[0]
            victim.transport = _SnappedTransport(victim.transport)
            tickets = [cluster.submit("forest", r) for r in rows]
            cluster.flush()
            got = np.array([t.result(timeout=20.0) for t in tickets])
            model = registry.get("forest")
            ref = np.array([model.predict(r[None, :])[0] for r in rows])
            assert np.array_equal(got, ref)
            assert not victim.alive  # the failed send marked it dead

    def test_a_shard_that_snaps_at_send_time_is_killed_at_once(self, registry):
        """A handle marked dead by a failed send has its worker killed
        there and then — not left running until close() or respawn()."""
        rows = _data(n=12, seed=8)[0]
        with ShardedServingCluster(
            registry, n_shards=2, route="replicated", max_batch=16, max_delay=0.005
        ) as cluster:
            victim = cluster._shards[0]
            victim.transport = _SnappedTransport(victim.transport)
            tickets = [cluster.submit("forest", r) for r in rows]
            assert not victim.alive  # the failed send marked it dead...
            deadline = time.monotonic() + 2.0
            while victim.process.is_alive() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not victim.process.is_alive()  # ...and killed it
            cluster.flush()
            got = np.array([t.result(timeout=20.0) for t in tickets])
            model = registry.get("forest")
            assert np.array_equal(got, np.array([model.predict(r[None, :])[0] for r in rows]))
            assert cluster.live_shards() == [1]

    def test_round_robin_skips_known_dead_shards(self, registry):
        rows = _data(n=12, seed=9)[0]
        with ShardedServingCluster(
            registry, n_shards=3, route="replicated", max_batch=16, max_delay=0.005
        ) as cluster:
            cluster.kill_shard(1)
            deadline = time.monotonic() + 10.0
            while 1 in cluster.live_shards() and time.monotonic() < deadline:
                time.sleep(0.005)
            tickets = [cluster.submit("forest", r) for r in rows]
            cluster.flush()
            got = np.array([t.result(timeout=20.0) for t in tickets])
            model = registry.get("forest")
            ref = np.array([model.predict(r[None, :])[0] for r in rows])
            assert np.array_equal(got, ref)
            for t in tickets:
                assert t.shard_id != 1

    def test_all_shards_dead_yields_a_coded_error_not_a_hang(self, registry):
        with ShardedServingCluster(
            registry, n_shards=2, route="replicated", max_batch=16, max_delay=0.005
        ) as cluster:
            for sid in (0, 1):
                cluster.kill_shard(sid)
            deadline = time.monotonic() + 10.0
            while cluster.live_shards() and time.monotonic() < deadline:
                time.sleep(0.005)
            t = cluster.submit("forest", np.zeros(6))
            with pytest.raises(ShardCrashedError) as info:
                t.result(timeout=5.0)
            assert code_of(info.value) is ErrorCode.SHARD_CRASHED
            assert code_of(info.value).retryable

    def test_block_split_counts_only_live_shards(self, registry):
        X = _data(n=40, seed=10)[0]
        with ShardedServingCluster(
            registry, n_shards=3, route="replicated", max_batch=64, max_delay=0.005
        ) as cluster:
            cluster.kill_shard(2)
            deadline = time.monotonic() + 10.0
            while 2 in cluster.live_shards() and time.monotonic() < deadline:
                time.sleep(0.005)
            t = cluster.submit_block("forest", X)
            got = t.result(timeout=20.0)
            # two live shards -> two chunks; bit-identity is pinned against
            # the same chunk composition the cluster scored
            model = registry.get("forest")
            ref = np.concatenate([model.predict(c) for c in np.array_split(X, 2)])
            assert np.array_equal(got, ref)


# --------------------------------------------------------------------- #
# the acceptance soak: kill-during-flight with retry + supervision
# --------------------------------------------------------------------- #
class TestKillDuringFlightSoak:
    @pytest.mark.parametrize("route", ["replicated", "hash"])
    def test_every_request_recovers_bit_identical(self, registry, route):
        """Hard-kill workers while a request stream is in flight.  With
        retry + supervision, *every* request must come back bit-identical
        to a direct predict — the client never sees ShardCrashedError on
        a retryable route, and nothing hangs."""
        rows = _data(n=150, seed=11)[0]
        direct = np.array([registry.get("forest").predict(r[None, :])[0] for r in rows])
        with ShardedServingCluster(
            registry, n_shards=2, route=route, max_batch=16, max_delay=0.002,
            cache_entries=1,
        ) as cluster:
            retry = RetryController(
                cluster, deadline_s=60.0, base_delay_s=0.01, max_delay_s=0.1,
                seed=0, breaker_threshold=3, breaker_reset_s=0.05,
            )
            with ShardSupervisor(
                cluster, check_interval_s=0.01, backoff_base_s=0.02,
                backoff_max_s=0.2, stability_window_s=0.5,
            ) as sup:
                sup.start()
                tickets, got = [], []
                for i, row in enumerate(rows):
                    tickets.append(retry.submit("forest", row))
                    if i in (20, 60, 100):  # storms mid-flight
                        victims = cluster.live_shards()
                        if victims:
                            cluster.kill_shard(victims[i % len(victims)])
                    if len(tickets) >= 30:
                        got.extend(t.result(timeout=60.0) for t in tickets)
                        tickets.clear()
                got.extend(t.result(timeout=60.0) for t in tickets)
            assert np.array_equal(np.array(got), direct)
            s = retry.stats()
            assert s.submits >= len(rows)
            assert s.exhausted == 0 and s.failed_fast == 0
            assert sup.stats().respawns >= 1  # the supervisor did the healing

    def test_kill_under_promote_rollback_churn_is_bit_identical(self, forest):
        """Hard-kill workers while another thread keeps promoting and
        rolling back.  Every reply must be bit-identical to a version
        that was in production at some point during its flight, and no
        client may see an error: the ack-gated broadcasts, the respawn
        snapshot and the retries must agree on what each worker scores."""
        X, y = _data()
        models = {1: forest}
        reg = ModelRegistry()
        reg.register("forest", forest, promote=True)
        for v, seed in ((2, 2), (3, 3)):
            models[v] = RandomForestRegressor(
                n_estimators=20, max_depth=8, random_state=seed).fit(X, y)
            assert reg.register("forest", models[v]) == v
        rows = _data(n=240, seed=13)[0]
        direct = {v: [m.predict(r[None, :])[0] for r in rows]
                  for v, m in models.items()}
        # (from, to, version): `from` is taken before the mutation that
        # made the version production, `to` after the one that replaced
        # it returned, so each interval over-covers its real span
        timeline: list[tuple[float, float, int]] = []
        churn_errors: list[Exception] = []
        stop = threading.Event()

        def churn(cluster):
            # every third step rolls back, the others promote the next
            # version round-robin, so production visits all three
            current, since = 1, time.monotonic()
            try:
                while not stop.wait(0.03):
                    t = time.monotonic()
                    if len(timeline) % 3 == 2:
                        nxt = cluster.rollback("forest")
                    else:
                        nxt = current % 3 + 1
                        cluster.promote("forest", nxt)
                    timeline.append((since, time.monotonic(), current))
                    current, since = nxt, t
            except Exception as exc:  # pragma: no cover - diagnostic
                churn_errors.append(exc)
            timeline.append((since, float("inf"), current))

        flights = []
        with ShardedServingCluster(
            reg, n_shards=2, route="hash", max_batch=16, max_delay=0.002,
            cache_entries=1,
        ) as cluster:
            retry = RetryController(
                cluster, deadline_s=60.0, base_delay_s=0.01, max_delay_s=0.1,
                seed=0, breaker_threshold=3, breaker_reset_s=0.05,
            )
            with ShardSupervisor(
                cluster, check_interval_s=0.01, backoff_base_s=0.02,
                backoff_max_s=0.2, stability_window_s=0.5,
            ) as sup:
                sup.start()
                churner = threading.Thread(target=churn, args=(cluster,))
                churner.start()
                try:
                    pending = []
                    for i, row in enumerate(rows):
                        pending.append((i, time.monotonic(),
                                        retry.submit("forest", row)))
                        if i in (40, 100, 160, 220):
                            cluster.kill_shard(cluster.shard_of("forest"))
                        if len(pending) >= 10 or i == len(rows) - 1:
                            for j, t0, ticket in pending:
                                value = ticket.result(timeout=60.0)
                                flights.append((j, t0, time.monotonic(), value))
                            pending.clear()
                        time.sleep(0.001)
                finally:
                    stop.set()
                    churner.join(timeout=60.0)
                respawns = sup.stats().respawns
        assert not churner.is_alive()
        assert not churn_errors, churn_errors
        assert len(timeline) >= 6          # the churn really interleaved
        assert respawns >= 1
        assert len(flights) == len(rows)
        for j, t0, t1, value in flights:
            live = {v for lo, hi, v in timeline if lo <= t1 and hi >= t0}
            assert any(value == direct[v][j] for v in live), (j, live)
        s = retry.stats()
        assert s.exhausted == 0 and s.failed_fast == 0

    def test_malformed_requests_fail_fast_during_the_storm(self, registry):
        """Client errors are never retried — even while shards are dying
        and the controller is busy recovering everyone else."""
        with ShardedServingCluster(
            registry, n_shards=2, route="replicated", max_batch=16,
            max_delay=0.002,
        ) as cluster:
            retry = RetryController(cluster, deadline_s=30.0, seed=0)
            with ShardSupervisor(cluster, check_interval_s=0.01):
                cluster.kill_shard(cluster.live_shards()[0])
                before = retry.stats()
                with pytest.raises(ValueError) as info:
                    retry.predict("forest", np.zeros((2, 2, 2)))
                assert code_of(info.value) is ErrorCode.MALFORMED_REQUEST
                with pytest.raises(LookupError) as info:
                    retry.predict("no-such-model", np.zeros(6))
                assert code_of(info.value) is ErrorCode.UNKNOWN_MODEL
                after = retry.stats()
                assert after.retries == before.retries       # zero retries
                assert after.failed_fast - before.failed_fast == 2

    def test_no_duplicate_scoring_under_retry(self, registry):
        """Settled tickets replay from cache: draining results twice after
        a kill storm resubmits nothing and returns identical arrays."""
        rows = _data(n=30, seed=12)[0]
        with ShardedServingCluster(
            registry, n_shards=2, route="replicated", max_batch=16,
            max_delay=0.002,
        ) as cluster:
            retry = RetryController(cluster, deadline_s=60.0, seed=0)
            with ShardSupervisor(cluster, check_interval_s=0.01):
                tickets = [retry.submit("forest", r) for r in rows]
                cluster.kill_shard(cluster.live_shards()[0])
                first = np.array([t.result(timeout=60.0) for t in tickets])
                submits_after_drain = retry.stats().submits
                second = np.array([t.result(timeout=60.0) for t in tickets])
                assert retry.stats().submits == submits_after_drain
            assert np.array_equal(first, second)
            model = registry.get("forest")
            ref = np.array([model.predict(r[None, :])[0] for r in rows])
            assert np.array_equal(first, ref)
