"""Resilience plane: breaker state machine, retry trajectories, supervisor.

Everything here runs against injected clocks, scripted fake clusters, and
seeded jitter streams — no worker processes, no wall time.  The pinned
contract is the ISSUE's determinism acceptance: retry/backoff/breaker/
supervisor trajectories are *pure functions* of the injected clock, the
seed, and the scripted failure schedule, so every scenario is asserted
twice — once for the expected behaviour, once that an identical replay
produces the identical trajectory.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.errors import CodedError, ErrorCode, code_of, coded
from repro.serve.monitor.policy import PolicyEngine
from repro.serve.registry import ModelRegistry
from repro.serve.resilience import CircuitBreaker, RetryController, ShardSupervisor
from repro.serve.shard import ShardCrashedError

pytestmark = [pytest.mark.serve, pytest.mark.faults]


class FakeClock:
    """Hand-cranked monotonic clock; ``sleep`` advances it and logs."""

    def __init__(self, t: float = 0.0):
        self.t = float(t)
        self.sleeps: list[float] = []

    def __call__(self) -> float:
        return self.t

    def sleep(self, dt: float) -> None:
        self.sleeps.append(dt)
        self.t += dt

    def advance(self, dt: float) -> None:
        self.t += dt


class FakeTicket:
    def __init__(self, shard_id: int, value=None, error=None):
        self.shard_id = shard_id
        self._value = value
        self._error = error

    def done(self) -> bool:
        return True

    def result(self, timeout=None):
        if self._error is not None:
            raise self._error
        return self._value


class ScriptedCluster:
    """Replays a scripted outcome per submit: a value or an exception."""

    def __init__(self, outcomes, route="hash", n_shards=1):
        self.outcomes = list(outcomes)
        self.route = route
        self.n_shards = n_shards
        self.submits = 0

    def shard_of(self, name: str) -> int:
        return 0

    def live_shards(self):
        return list(range(self.n_shards))

    def _next(self):
        out = self.outcomes[min(self.submits, len(self.outcomes) - 1)]
        self.submits += 1
        if isinstance(out, BaseException):
            return FakeTicket(0, error=out)
        return FakeTicket(0, value=out)

    def submit(self, name, row, kind="predict"):
        return self._next()

    def submit_block(self, name, X, kind="predict"):
        return self._next()


# --------------------------------------------------------------------- #
# circuit breaker
# --------------------------------------------------------------------- #
class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        br = CircuitBreaker(failure_threshold=3, reset_timeout_s=1.0, clock=clock)
        for _ in range(2):
            br.record_failure()
        assert br.state == "closed"
        br.record_failure()
        assert br.state == "open"
        assert br.opens == 1

    def test_success_resets_the_consecutive_count(self):
        br = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        br.record_failure()
        br.record_success()
        br.record_failure()
        assert br.state == "closed"  # blips are not outages

    def test_open_refuses_until_reset_timeout(self):
        clock = FakeClock()
        br = CircuitBreaker(failure_threshold=1, reset_timeout_s=1.0, clock=clock)
        br.record_failure()
        allowed, wait = br.try_acquire()
        assert not allowed and wait == pytest.approx(1.0)
        clock.advance(0.5)
        allowed, wait = br.try_acquire()
        assert not allowed and wait == pytest.approx(0.5)

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        br = CircuitBreaker(failure_threshold=1, reset_timeout_s=1.0, clock=clock)
        br.record_failure()
        clock.advance(1.0)
        assert br.try_acquire() == (True, 0.0)   # the probe
        assert br.state == "half_open"
        allowed, _ = br.try_acquire()            # concurrent second caller
        assert not allowed
        assert br.probes == 1

    def test_probe_success_closes(self):
        clock = FakeClock()
        br = CircuitBreaker(failure_threshold=1, reset_timeout_s=1.0, clock=clock)
        br.record_failure()
        clock.advance(1.0)
        br.try_acquire()
        br.record_success()
        assert br.state == "closed"
        assert br.closes == 1
        assert br.try_acquire() == (True, 0.0)

    def test_probe_failure_reopens_for_a_full_timeout(self):
        clock = FakeClock()
        br = CircuitBreaker(failure_threshold=1, reset_timeout_s=1.0, clock=clock)
        br.record_failure()
        clock.advance(1.0)
        br.try_acquire()
        br.record_failure()
        assert br.state == "open"
        assert br.opens == 2
        allowed, wait = br.try_acquire()
        assert not allowed and wait == pytest.approx(1.0)

    @settings(max_examples=100, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["fail", "ok", "acquire"]),
                st.floats(0.0, 0.3, allow_nan=False),
            ),
            max_size=60,
        ),
        threshold=st.integers(1, 5),
    )
    def test_state_machine_properties(self, ops, threshold):
        """Hypothesis drive: legal states, counter sanity, and bit-exact
        replay determinism under an identical injected-clock schedule."""
        def run():
            clock = FakeClock()
            br = CircuitBreaker(
                failure_threshold=threshold, reset_timeout_s=0.1, clock=clock
            )
            trajectory = []
            for op, dt in ops:
                clock.advance(dt)
                if op == "fail":
                    br.record_failure()
                elif op == "ok":
                    br.record_success()
                else:
                    br.try_acquire()
                state = br.state
                assert state in ("closed", "open", "half_open")
                if state == "closed":
                    assert br.consecutive_failures < threshold
                if op == "ok":
                    assert state == "closed"
                    assert br.consecutive_failures == 0
                assert br.closes <= br.opens  # every close needed an open
                trajectory.append((state, br.opens, br.probes, br.closes))
            return trajectory

        assert run() == run()  # pure function of the schedule


# --------------------------------------------------------------------- #
# retry controller
# --------------------------------------------------------------------- #
class TestRetryController:
    def _controller(self, cluster, clock, **kw):
        kw.setdefault("deadline_s", 10.0)
        kw.setdefault("base_delay_s", 0.01)
        kw.setdefault("max_delay_s", 0.25)
        kw.setdefault("jitter", 0.1)
        kw.setdefault("seed", 7)
        return RetryController(cluster, clock=clock, sleep=clock.sleep, **kw)

    def test_happy_path_never_retries(self):
        clock = FakeClock()
        cluster = ScriptedCluster([1.5])
        rc = self._controller(cluster, clock)
        assert rc.predict("m", np.zeros(3)) == 1.5
        s = rc.stats()
        assert (s.submits, s.retries, s.recovered) == (1, 0, 0)
        assert clock.sleeps == []

    def test_transient_failures_retry_then_recover(self):
        clock = FakeClock()
        cluster = ScriptedCluster(
            [ShardCrashedError("s0 died")] * 2 + [42.0]
        )
        rc = self._controller(cluster, clock, breaker_threshold=5)
        assert rc.predict("m", np.zeros(3)) == 42.0
        s = rc.stats()
        assert s.retries == 2 and s.recovered == 1 and s.failed_fast == 0
        assert cluster.submits == 3

    def test_backoff_schedule_is_seeded_and_exponential(self):
        clock = FakeClock()
        cluster = ScriptedCluster([ShardCrashedError("x")] * 3 + [1.0])
        rc = self._controller(cluster, clock, breaker_threshold=10)
        rc.predict("m", np.zeros(3))
        # reproduce the expected jittered exponential independently: the
        # ticket's stream is default_rng((seed, index)) with index 0
        rng = np.random.default_rng((7, 0))
        expected = []
        for attempt in range(3):
            delay = min(0.25, 0.01 * 2.0 ** attempt)
            expected.append(delay * (1.0 + 0.1 * (2.0 * rng.random() - 1.0)))
        assert clock.sleeps == pytest.approx(expected)

    def test_trajectory_is_a_pure_function_of_clock_and_seed(self):
        def run():
            clock = FakeClock()
            cluster = ScriptedCluster([ShardCrashedError("x")] * 4 + [9.0])
            rc = self._controller(cluster, clock, breaker_threshold=2)
            value = rc.predict("m", np.zeros(3))
            return value, clock.sleeps, rc.stats(), cluster.submits

        assert run() == run()

    def test_non_retryable_fails_fast_with_zero_resubmissions(self):
        clock = FakeClock()
        cluster = ScriptedCluster(
            [coded(ValueError("bad row"), ErrorCode.MALFORMED_REQUEST)]
        )
        rc = self._controller(cluster, clock)
        with pytest.raises(ValueError) as info:
            rc.predict("m", np.zeros(3))
        assert code_of(info.value) is ErrorCode.MALFORMED_REQUEST
        assert cluster.submits == 1      # zero retries
        assert clock.sleeps == []        # zero backoff waits
        assert rc.stats().failed_fast == 1

    def test_poisoned_probe_releases_the_half_open_breaker(self):
        # PR 9 chaos-harness regression: the half-open probe slot is
        # consumed by try_acquire but was only released by record_success
        # (ok) or record_failure (transient).  A probe that failed with a
        # NON-transient coded reply — a poisoned row's MALFORMED_REQUEST —
        # recorded neither, leaking the slot: the breaker wedged
        # half-open and every later hash-routed request spun in the gate
        # for its whole deadline before raising CIRCUIT_OPEN.  A coded
        # client reply comes from a live, scoring worker, so
        # availability-wise it must count as breaker success.
        clock = FakeClock()
        cluster = ScriptedCluster(
            [coded(ValueError("poison row"), ErrorCode.MALFORMED_REQUEST), 7.0]
        )
        rc = self._controller(cluster, clock, breaker_threshold=3,
                              breaker_reset_s=0.2)
        br = rc.breaker(0)
        for _ in range(3):
            br.record_failure()        # the kill storm opened the circuit
        assert br.state == "open"
        clock.advance(0.25)            # reset lapsed: next acquire probes
        with pytest.raises(ValueError) as info:
            rc.predict("m", np.zeros(3))   # the probe is the poisoned row
        assert code_of(info.value) is ErrorCode.MALFORMED_REQUEST
        assert br.state == "closed"    # pre-fix: stuck "half_open"
        assert rc.predict("m", np.zeros(3)) == 7.0
        assert rc.stats().breaker_probes == 1
        assert clock.sleeps == []      # and nobody spun in the gate

    def test_fifo_collector_does_not_wait_on_a_probe_a_younger_ticket_holds(self):
        # The edge collects one connection's replies in order, one
        # result() at a time.  Ticket a arrives behind an open breaker and
        # defers its first attempt; the reset then lapses and ticket b
        # arrives.  If b's eager submit took the half-open probe, a would
        # wait in the gate for an outcome only b's result() records, and
        # the collector reaches b only after a gives up: a spends its
        # whole budget and fails CIRCUIT_OPEN (60 s behind the real edge).
        clock = FakeClock()
        cluster = ScriptedCluster([1.0, 2.0])
        rc = self._controller(cluster, clock, deadline_s=5.0,
                              breaker_threshold=1, breaker_reset_s=0.2)
        rc.breaker(0).record_failure()
        tickets = [rc.submit("m", np.zeros(3))]   # open: a defers
        clock.advance(0.25)
        tickets.append(rc.submit("m", np.zeros(3)))
        replies = [t.result(timeout=5.0) for t in tickets]  # FIFO collector
        assert replies == [1.0, 2.0]
        assert clock.sleeps == []       # nobody waited in the gate
        s = rc.stats()
        assert (s.breaker_probes, s.breaker_closes) == (1, 1)

    def test_unclassified_internal_errors_are_not_blind_retried(self):
        clock = FakeClock()
        cluster = ScriptedCluster([RuntimeError("??")])
        rc = self._controller(cluster, clock)
        with pytest.raises(RuntimeError):
            rc.predict("m", np.zeros(3))
        assert cluster.submits == 1

    def test_deadline_budget_exhaustion_raises_the_last_error(self):
        clock = FakeClock()
        cluster = ScriptedCluster([ShardCrashedError("forever down")])
        rc = self._controller(cluster, clock, deadline_s=0.05,
                              breaker_threshold=1000)
        with pytest.raises(ShardCrashedError):
            rc.predict("m", np.zeros(3))
        assert rc.stats().exhausted == 1
        # the budget bounds total injected-clock spend
        assert sum(clock.sleeps) <= 0.05 + 1e-9

    def test_result_timeout_overrides_the_default_budget(self):
        clock = FakeClock()
        cluster = ScriptedCluster([ShardCrashedError("down")])
        rc = self._controller(cluster, clock, deadline_s=100.0,
                              breaker_threshold=1000)
        with pytest.raises(ShardCrashedError):
            rc.submit("m", np.zeros(3)).result(timeout=0.05)
        assert sum(clock.sleeps) <= 0.05 + 1e-9

    def test_breaker_opens_then_probe_recovers(self):
        clock = FakeClock()
        cluster = ScriptedCluster([ShardCrashedError("x")] * 3 + [5.0])
        rc = self._controller(cluster, clock, breaker_threshold=3,
                              breaker_reset_s=0.2)
        assert rc.predict("m", np.zeros(3)) == 5.0
        s = rc.stats()
        assert s.breaker_opens == 1   # 3 consecutive transient failures
        assert s.breaker_probes == 1  # the half-open trial
        assert s.breaker_closes == 1  # ... which succeeded
        assert rc.breaker(0).state == "closed"

    def test_open_breaker_with_no_budget_raises_circuit_open(self):
        clock = FakeClock()
        cluster = ScriptedCluster([ShardCrashedError("x")])
        rc = self._controller(cluster, clock, breaker_threshold=1,
                              breaker_reset_s=50.0)
        with pytest.raises(CodedError) as info:
            rc.predict("m", np.zeros(3), timeout=0.1)  # opens the breaker,
        assert info.value.code is ErrorCode.CIRCUIT_OPEN  # then budget dies
        with pytest.raises(CodedError) as info:           # waiting on it
            rc.predict("m", np.zeros(3), timeout=0.1)  # cannot wait 50s
        assert info.value.code is ErrorCode.CIRCUIT_OPEN
        assert cluster.submits == 1  # the open circuit blocked resubmission
        assert ErrorCode.CIRCUIT_OPEN.retryable  # a later call may succeed

    def test_replicated_route_skips_the_breaker_gate(self):
        clock = FakeClock()
        cluster = ScriptedCluster([ShardCrashedError("x"), 3.0],
                                  route="replicated")
        rc = self._controller(cluster, clock, breaker_threshold=1)
        # shard 0's breaker opens on the failure, but replicated routing
        # re-routes inside the cluster — the gate must not block resubmits
        assert rc.predict("m", np.zeros(3)) == 3.0
        assert rc.stats().recovered == 1

    def test_ticket_settles_once_and_replays_from_cache(self):
        clock = FakeClock()
        cluster = ScriptedCluster([2.0, 99.0])
        rc = self._controller(cluster, clock)
        t = rc.submit("m", np.zeros(3))
        assert t.result() == 2.0
        assert t.result() == 2.0  # no resubmission
        assert cluster.submits == 1
        assert t.done()

    def test_submit_block_validates_shape(self):
        rc = self._controller(ScriptedCluster([0.0]), FakeClock())
        with pytest.raises(CodedError) as info:
            rc.submit_block("m", np.zeros((2, 2, 2)))
        assert info.value.code is ErrorCode.MALFORMED_REQUEST


# --------------------------------------------------------------------- #
# shard supervisor
# --------------------------------------------------------------------- #
class FlakyCluster:
    """Liveness stub: tests flip shards dead; respawn revives (or fails)."""

    def __init__(self, n_shards=2, fail_respawns=0):
        self.n_shards = n_shards
        self.alive = {i: True for i in range(n_shards)}
        self.fail_respawns = fail_respawns  # first N respawn calls raise
        self.respawn_calls: list[list[int]] = []

    def live_shards(self):
        return [i for i, a in self.alive.items() if a]

    def kill(self, shard_id):
        self.alive[shard_id] = False

    def respawn(self, shard_ids):
        self.respawn_calls.append(list(shard_ids))
        if self.fail_respawns > 0:
            self.fail_respawns -= 1
            raise RuntimeError("spawn refused")
        n = 0
        for i in shard_ids:
            if not self.alive[i]:
                self.alive[i] = True
                n += 1
        return n


class TestShardSupervisor:
    def _supervisor(self, cluster, clock, **kw):
        kw.setdefault("backoff_base_s", 0.05)
        kw.setdefault("backoff_max_s", 0.4)
        kw.setdefault("stability_window_s", 1.0)
        return ShardSupervisor(cluster, clock=clock, **kw)

    def test_healthy_cluster_emits_nothing(self):
        sup = self._supervisor(FlakyCluster(), FakeClock())
        assert sup.step() == []
        assert sup.stats().respawns == 0

    def test_dead_shard_is_detected_and_respawned(self):
        clock = FakeClock()
        cluster = FlakyCluster()
        sup = self._supervisor(cluster, clock)
        cluster.kill(1)
        events = sup.step()
        assert [e.action for e in events] == ["alert", "respawn"]
        assert events[0].code is ErrorCode.SHARD_CRASHED
        assert events[0].name == "shard:1"
        assert cluster.live_shards() == [0, 1]
        assert sup.stats().respawns == 1

    def test_respawn_storm_backs_off_exponentially(self):
        clock = FakeClock()
        cluster = FlakyCluster()
        sup = self._supervisor(cluster, clock)
        respawn_times = []
        cluster.kill(0)
        for _ in range(200):  # step far more often than respawns happen
            before = len(cluster.respawn_calls)
            sup.step()
            if len(cluster.respawn_calls) > before:
                respawn_times.append(clock.t)
                cluster.kill(0)  # it dies right back: a storm
            clock.advance(0.01)
        gaps = np.diff(respawn_times)
        # consecutive respawns of the same shard wait base * 2**(n-1),
        # capped — the schedule the docstring promises (0.01 step quantum)
        expected = [0.05, 0.1, 0.2, 0.4, 0.4, 0.4]
        assert gaps[: len(expected)] == pytest.approx(expected, abs=0.011)

    def test_stability_resets_the_storm_counter(self):
        clock = FakeClock()
        cluster = FlakyCluster()
        sup = self._supervisor(cluster, clock)
        cluster.kill(0)
        sup.step()                     # respawn #1, immediate
        cluster.kill(0)
        clock.advance(0.05)
        sup.step()                     # respawn #2 after base backoff
        assert len(cluster.respawn_calls) == 2
        clock.advance(2.0)             # stays up past stability_window_s
        sup.step()                     # observes stability, resets count
        cluster.kill(0)
        t0 = clock.t
        sup.step()                     # a fresh death respawns immediately
        assert len(cluster.respawn_calls) == 3
        assert clock.t == t0

    def test_respawn_failure_is_a_coded_event(self):
        clock = FakeClock()
        cluster = FlakyCluster(fail_respawns=1)
        sup = self._supervisor(cluster, clock)
        cluster.kill(1)
        events = sup.step()
        assert [e.action for e in events] == ["alert", "alert-failed"]
        assert events[1].code is ErrorCode.RESPAWN_FAILED
        assert sup.stats().respawn_failures == 1
        clock.advance(0.05)            # failed attempt backs off too
        events = sup.step()
        assert [e.action for e in events] == ["respawn"]
        assert cluster.live_shards() == [0, 1]

    def test_event_stream_is_deterministic_under_replay(self):
        def run():
            clock = FakeClock()
            cluster = FlakyCluster(fail_respawns=2)
            sup = self._supervisor(cluster, clock)
            stream = []
            for i in range(120):
                if i in (3, 40, 41):
                    cluster.kill(i % 2)
                stream.extend(
                    (e.at, e.name, e.action, e.code) for e in sup.step()
                )
                clock.advance(0.02)
            return stream

        first = run()
        assert first == run()
        assert any(action == "alert-failed" for _, _, action, _ in first)
        assert any(action == "respawn" for _, _, action, _ in first)

    def test_events_land_in_the_policy_engine_audit_trail(self):
        clock = FakeClock()
        cluster = FlakyCluster()
        policy = PolicyEngine(ModelRegistry(), clock=clock)
        sup = self._supervisor(cluster, clock, policy=policy)
        cluster.kill(0)
        sup.step()
        actions = [e.action for e in policy.events]
        assert actions == ["alert", "respawn"]
        assert policy.events[0].code is ErrorCode.SHARD_CRASHED
        assert policy.events[0].rule == ShardSupervisor.RULE

    def test_backoff_for_schedule(self):
        sup = self._supervisor(FlakyCluster(), FakeClock())
        assert sup.backoff_for(0) == 0.0
        assert [sup.backoff_for(n) for n in (1, 2, 3, 4, 5)] == \
            pytest.approx([0.05, 0.1, 0.2, 0.4, 0.4])
