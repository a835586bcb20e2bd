"""Tests for the online error-source monitoring plane (repro.serve.monitor).

The plane's load-bearing contracts, in test form:

* **observational** — a monitored gateway/cluster returns bit-identical
  (``np.array_equal``) results to an unmonitored one, even with a tap
  that raises on every call;
* **bounded memory** — ring-buffer windows clamp at their capacity;
* **deterministic** — detection depends only on the observed sequence
  (evaluation cadence counts rows, the injected clock only stamps
  events and drives cooldowns);
* **actionable** — rule firings execute through the registry's normal
  stage-change path, so an auto-rollback propagates to a sharded
  cluster's every worker, ack-gated, exactly like an operator's call.
"""

import numpy as np
import pytest

from repro.ml.forest import RandomForestRegressor
from repro.ml.uncertainty import epistemic_sample
from repro.serve import (
    EuQuantileRule,
    ModelRegistry,
    MonitoringPlane,
    PolicyEngine,
    PsiThresholdRule,
    ServingGateway,
    ShadowScorer,
    ShadowWinnerRule,
    ShardedServingCluster,
    StreamProfile,
    UncertaintyTap,
)
from repro.serve.monitor import NameState

pytestmark = [pytest.mark.serve, pytest.mark.monitor]


def _data(n=400, d=6, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, d))
    y = 2 * X[:, 0] + np.sin(X[:, 1]) + 0.05 * rng.normal(0, 1, n)
    return X, y


def _forest(X, y, seed=0, trees=25):
    return RandomForestRegressor(
        n_estimators=trees, max_depth=8, random_state=seed
    ).fit(X, y)


@pytest.fixture(scope="module")
def setup():
    X, y = _data()
    m1 = _forest(X, y, seed=0)
    m2 = _forest(X, y, seed=1)
    return X, y, m1, m2


def _registry(setup, reference=True):
    X, y, m1, m2 = setup
    reg = ModelRegistry()
    v1 = reg.register("m", m1, promote=True)
    if reference:
        reg.set_reference("m", X, eu=epistemic_sample(m1, X))
    v2 = reg.register("m", m2)
    return reg, v1, v2


# ---------------------------------------------------------------------- #
# registry reference snapshots
# ---------------------------------------------------------------------- #
class TestReferenceSnapshot:
    def test_set_get_and_freeze(self, setup):
        X, y, m1, _ = setup
        reg = ModelRegistry()
        reg.register("m", m1, promote=True)
        ref = reg.set_reference("m", X, eu=np.ones(10), names=[f"c{i}" for i in range(X.shape[1])])
        assert not ref.X.flags.writeable and not ref.eu.flags.writeable
        got = reg.get_reference("m")
        assert got is ref
        assert got.names == tuple(f"c{i}" for i in range(X.shape[1]))
        # the stored X is a private copy, not the caller's array
        assert got.X is not X

    def test_unknown_name_refused(self):
        reg = ModelRegistry()
        with pytest.raises(LookupError):
            reg.set_reference("ghost", np.zeros((10, 2)))
        with pytest.raises(LookupError):
            reg.get_reference("ghost")

    def test_none_until_set(self, setup):
        X, y, m1, _ = setup
        reg = ModelRegistry()
        reg.register("m", m1, promote=True)
        assert reg.get_reference("m") is None

    def test_listener_notified(self, setup):
        X, y, m1, _ = setup
        reg = ModelRegistry()
        reg.register("m", m1, promote=True)
        seen = []
        reg.add_listener(lambda n, v, a: seen.append((n, v, a)))
        reg.set_reference("m", X)
        assert ("m", 0, "set_reference") in seen

    def test_snapshot_restore_carries_reference(self, setup):
        import pickle

        X, y, m1, _ = setup
        reg = ModelRegistry()
        reg.register("m", m1, promote=True)
        reg.set_reference("m", X, eu=np.arange(5.0))
        blob = pickle.dumps(reg.snapshot())
        replica = ModelRegistry()
        replica.restore(pickle.loads(blob))
        ref = replica.get_reference("m")
        assert np.array_equal(ref.X, X)
        assert np.array_equal(ref.eu, np.arange(5.0))
        # pickling dropped the read-only flag; restore re-froze it
        assert not ref.X.flags.writeable

    def test_restore_with_reference_but_no_versions(self, setup):
        # a snapshot can carry a reference for a name whose every version
        # was unregistered — restore must still rebuild it (worker respawn
        # path), not crash on the missing entry
        import pickle

        X, y, m1, _ = setup
        reg = ModelRegistry()
        reg.register("m", m1)  # never promoted
        reg.set_reference("m", X)
        reg.unregister("m", 1)
        blob = pickle.dumps(reg.snapshot())
        replica = ModelRegistry()
        replica.restore(pickle.loads(blob))
        assert replica.versions("m") == []
        assert np.array_equal(replica.get_reference("m").X, X)

    def test_stage_change_does_not_clear_cache_on_reference(self, setup):
        # set_reference must not invalidate warm prediction caches — it
        # moves no production alias
        X, y, m1, _ = setup
        reg = ModelRegistry()
        reg.register("m", m1, promote=True)
        with ServingGateway(reg, max_batch=4, max_delay=0.05) as gw:
            gw.predict("m", X[0], timeout=5.0)
            hit_before = gw.stats().per_name["m"].cache_invalidations
            reg.set_reference("m", X)
            assert gw.stats().per_name["m"].cache_invalidations == hit_before


# ---------------------------------------------------------------------- #
# stream profile
# ---------------------------------------------------------------------- #
class TestStreamProfile:
    def test_window_clamps(self):
        rng = np.random.default_rng(0)
        ref = rng.normal(0, 1, (100, 3))
        prof = StreamProfile(ref, window=16, min_window=4)
        for row in rng.normal(0, 1, (50, 3)):
            prof.observe(row)
        assert prof.window_fill == 16
        assert prof.n_observed == 50
        assert prof.window().shape == (16, 3)

    def test_window_keeps_most_recent_in_order(self):
        ref = np.arange(60.0).reshape(20, 3)
        prof = StreamProfile(ref, window=8, min_window=1)
        rows = np.arange(90.0).reshape(30, 3)
        for row in rows:
            prof.observe(row)
        assert np.array_equal(prof.window(), rows[-8:])

    def test_block_observe(self):
        rng = np.random.default_rng(1)
        ref = rng.normal(0, 1, (100, 3))
        prof = StreamProfile(ref, window=10, min_window=1)
        prof.observe(rng.normal(0, 1, (25, 3)))  # block larger than window
        assert prof.window_fill == 10
        assert prof.n_observed == 25

    def test_none_below_min_window(self):
        rng = np.random.default_rng(2)
        prof = StreamProfile(rng.normal(0, 1, (100, 3)), window=64, min_window=32)
        for row in rng.normal(0, 1, (31, 3)):
            prof.observe(row)
        assert prof.drift() is None
        prof.observe(rng.normal(0, 1, 3))
        assert prof.drift() is not None

    def test_identical_window_scores_zero(self):
        rng = np.random.default_rng(3)
        ref = rng.normal(0, 1, (64, 4))
        prof = StreamProfile(ref, window=64, min_window=64)
        prof.observe(ref)
        report = prof.drift(ks=True)
        assert np.all(report.psi == 0.0)
        assert np.all(report.ks == 0.0)

    def test_shifted_window_scores_high(self):
        rng = np.random.default_rng(4)
        ref = rng.normal(0, 1, (300, 4))
        prof = StreamProfile(ref, window=128, min_window=64)
        prof.observe(rng.normal(0, 1, (128, 4)) * 2.0 + 1.5)
        report = prof.drift()
        assert report.max_psi > 0.25
        assert report.ks is None  # opt-in only
        worst = report.worst(2)
        assert len(worst) == 2 and worst[0][1] >= worst[1][1]

    def test_wrong_width_refused(self):
        prof = StreamProfile(np.zeros((20, 3)) + np.arange(3), window=8)
        with pytest.raises(ValueError):
            prof.observe(np.zeros(4))


# ---------------------------------------------------------------------- #
# uncertainty tap
# ---------------------------------------------------------------------- #
class TestUncertaintyTap:
    def test_novel_tagging_against_reference_quantile(self):
        rng = np.random.default_rng(0)
        ref_eu = rng.uniform(0, 1, 1000)
        tap = UncertaintyTap(ref_eu, window=64, novel_quantile=0.99)
        assert tap.observe(0.5) == 0
        assert tap.observe(5.0) == 1
        assert tap.n_novel == 1 and tap.n_observed == 2

    def test_window_bounded_and_quantile(self):
        tap = UncertaintyTap(np.linspace(0, 1, 100), window=8)
        tap.observe(np.full(100, 10.0))
        assert tap.window_fill == 8
        assert tap.novel_fraction() == 1.0
        assert tap.window_quantile(0.5) == 10.0

    def test_empty_window_is_defined(self):
        tap = UncertaintyTap(np.ones(10))
        assert tap.novel_fraction() == 0.0
        assert tap.window_quantile() == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            UncertaintyTap(np.array([]))
        with pytest.raises(ValueError):
            UncertaintyTap(np.ones(10), novel_quantile=1.5)

    def test_epistemic_sample_forest_and_missing(self, setup):
        X, y, m1, _ = setup
        eu = epistemic_sample(m1, X[:10])
        _, var = m1.predict_dist(X[:10])
        assert np.array_equal(eu, np.sqrt(var))
        with pytest.raises(TypeError):
            epistemic_sample(object(), X[:10])


# ---------------------------------------------------------------------- #
# shadow scorer
# ---------------------------------------------------------------------- #
class TestShadowScorer:
    def test_deterministic_mirroring_stride(self, setup):
        X, y, m1, m2 = setup
        reg, v1, v2 = _registry(setup)
        shadow = ShadowScorer(reg, "m", v2, fraction=0.25)
        assert shadow.stride == 4
        for row in X[:40]:
            shadow.on_result("predict", row[None, :], float(m1.predict(row[None, :])[0]))
        assert shadow.report().mirrored == 10

    def test_predict_dist_not_mirrored(self, setup):
        X, y, m1, m2 = setup
        reg, v1, v2 = _registry(setup)
        shadow = ShadowScorer(reg, "m", v2, fraction=1.0)
        shadow.on_result("predict_dist", X[0][None, :], (1.0, 2.0))
        assert shadow.report().mirrored == 0

    def test_challenger_must_be_staged(self, setup):
        reg, v1, v2 = _registry(setup)
        with pytest.raises(ValueError):
            ShadowScorer(reg, "m", v1)  # production version
        with pytest.raises(LookupError):
            ShadowScorer(reg, "m", 99)

    def test_wins_only_with_enough_better_outcomes(self, setup):
        X, y, m1, m2 = setup
        reg = ModelRegistry()
        weak = _forest(X[:60], y[:60], seed=0, trees=3)
        strong = _forest(X, y, seed=1, trees=60)
        reg.register("m", weak, promote=True)
        v2 = reg.register("m", strong)
        shadow = ShadowScorer(reg, "m", v2, fraction=1.0, min_outcomes=20)
        for row, outcome in zip(X[:19], y[:19]):
            shadow.record_outcome(row, outcome)
        assert not shadow.report().challenger_wins  # below min evidence
        for row, outcome in zip(X[19:80], y[19:80]):
            shadow.record_outcome(row, outcome)
        rep = shadow.report()
        assert rep.challenger_error < rep.champion_error
        assert rep.challenger_wins

    def test_disagreement_windowed(self, setup):
        X, y, m1, m2 = setup
        reg, v1, v2 = _registry(setup)
        shadow = ShadowScorer(reg, "m", v2, fraction=1.0, window=8)
        for row in X[:30]:
            shadow.on_result("predict", row[None, :], float(m1.predict(row[None, :])[0]))
        rep = shadow.report()
        assert rep.mirrored == 30            # lifetime count
        assert rep.disagreement_mean >= 0.0  # windowed mean over last 8


# ---------------------------------------------------------------------- #
# policy engine
# ---------------------------------------------------------------------- #
class TestPolicyEngine:
    def _state(self, reg, profile=None, tap=None, shadow=None):
        return NameState(name="m", registry=reg, profile=profile, tap=tap, shadow=shadow)

    def test_alert_records_without_touching_registry(self, setup):
        X, *_ = setup
        reg, v1, v2 = _registry(setup)
        reg.promote("m", v2)
        prof = StreamProfile(X, window=64, min_window=32)
        prof.observe(X[:64] * 3.0 + 2.0)
        clock = [100.0]
        engine = PolicyEngine(reg, clock=lambda: clock[0], cooldown_s=10.0)
        engine.add_rule(PsiThresholdRule(threshold=0.25, action="alert"))
        fired = engine.evaluate(self._state(reg, profile=prof))
        assert len(fired) == 1 and fired[0].action == "alert" and fired[0].at == 100.0
        assert reg.production_version("m") == v2  # untouched

    def test_rollback_executes_and_cooldown_holds(self, setup):
        X, *_ = setup
        reg, v1, v2 = _registry(setup)
        reg.promote("m", v2)
        prof = StreamProfile(X, window=64, min_window=32)
        prof.observe(X[:64] * 3.0 + 2.0)
        clock = [0.0]
        engine = PolicyEngine(reg, clock=lambda: clock[0], cooldown_s=30.0)
        engine.add_rule(PsiThresholdRule(threshold=0.25, action="rollback"))
        state = self._state(reg, profile=prof)
        fired = engine.evaluate(state)
        assert [e.action for e in fired] == ["rollback"]
        assert reg.production_version("m") == v1
        # still drifted, but inside the cooldown: no second firing
        assert engine.evaluate(state) == []
        clock[0] = 31.0  # cooldown expired; fires again (and fails loudly:
        # no rollback history left — recorded, not raised)
        fired = engine.evaluate(state)
        assert [e.action for e in fired] == ["rollback-failed"]
        assert reg.production_version("m") == v1

    def test_rule_scoping_by_name(self, setup):
        reg, v1, v2 = _registry(setup)
        engine = PolicyEngine(reg, clock=lambda: 0.0)
        rule = PsiThresholdRule()
        engine.add_rule(rule, names=["other"])
        assert engine.rules_for("m") == []
        assert engine.rules_for("other") == [rule]

    def test_eu_quantile_rule(self):
        reg = ModelRegistry()
        tap = UncertaintyTap(np.linspace(0, 1.0, 200), window=128)
        rule = EuQuantileRule(factor=3.0, min_window=16)
        state = NameState(name="m", registry=reg, tap=tap)
        tap.observe(np.full(20, 0.5))
        assert rule(state) is None          # in-distribution EU
        tap.observe(np.full(128, 50.0))     # the window explodes
        action, value, detail = rule(state)
        assert action == "alert" and value > 3.0 * tap.reference_threshold

    def test_shadow_winner_promotes_through_registry(self, setup):
        X, y, *_ = setup
        reg = ModelRegistry()
        weak = _forest(X[:60], y[:60], seed=0, trees=3)
        strong = _forest(X, y, seed=1, trees=60)
        reg.register("m", weak, promote=True)
        v2 = reg.register("m", strong)
        shadow = ShadowScorer(reg, "m", v2, fraction=1.0, min_outcomes=10)
        for row, outcome in zip(X[:40], y[:40]):
            shadow.record_outcome(row, outcome)
        engine = PolicyEngine(reg, clock=lambda: 0.0)
        engine.add_rule(ShadowWinnerRule())
        fired = engine.evaluate(NameState(name="m", registry=reg, shadow=shadow))
        assert [e.action for e in fired] == ["promote"]
        assert reg.production_version("m") == v2

    def test_events_bounded(self, setup):
        reg, v1, v2 = _registry(setup)
        engine = PolicyEngine(reg, clock=lambda: 0.0, max_events=4)
        engine.events.extend(range(10))
        assert len(engine.events) == 4

    def test_bad_rule_config_refused(self):
        with pytest.raises(ValueError):
            PsiThresholdRule(action="explode")
        with pytest.raises(ValueError):
            EuQuantileRule(factor=0.5)


# ---------------------------------------------------------------------- #
# the plane over a live gateway
# ---------------------------------------------------------------------- #
class TestMonitoringPlaneGateway:
    def test_monitored_bit_identical_and_detects_drift(self, setup):
        X, y, m1, m2 = setup
        rng = np.random.default_rng(7)
        rows = rng.normal(0, 1, (200, X.shape[1]))
        drifted = rows * 2.0 + 1.5

        reg, v1, v2 = _registry(setup)
        reg.promote("m", v2)
        clock = [0.0]
        plane = MonitoringPlane(reg, clock=lambda: clock[0], window=128,
                                min_window=128, eval_every=32, cooldown_s=1e9)
        plane.watch("m")
        # threshold above full-window sampling noise (~0.2 at 128 rows),
        # far below the injected shift's score (> 2)
        plane.add_rule(PsiThresholdRule(threshold=0.5, action="rollback"))

        with ServingGateway(reg, max_batch=32, max_delay=0.05) as gw:
            plane.attach(gw)
            tickets = [gw.submit("m", r) for r in rows]
            gw.flush()
            monitored = np.array([t.result(10.0) for t in tickets])
            assert not plane.events  # in-distribution: no firing

            for r in drifted:
                gw.predict("m", r, timeout=10.0)
            assert [e.action for e in plane.events] == ["rollback"]
            assert reg.production_version("m") == v1
            assert gw.tap_errors == 0

        # the same stream through an unmonitored gateway (against the same
        # production version) is bit-identical
        reg2 = ModelRegistry()
        reg2.register("m", m2, promote=True)
        with ServingGateway(reg2, max_batch=32, max_delay=0.05) as gw2:
            tickets = [gw2.submit("m", r) for r in rows]
            gw2.flush()
            plain = np.array([t.result(10.0) for t in tickets])
        assert np.array_equal(monitored, plain)

    def test_raising_tap_never_breaks_serving(self, setup):
        X, y, m1, _ = setup
        reg = ModelRegistry()
        reg.register("m", m1, promote=True)

        class BadTap:
            def on_request(self, name, row, kind):
                raise RuntimeError("boom")

            def on_result(self, name, kind, block, value):
                raise RuntimeError("boom")

        with ServingGateway(reg, max_batch=8, max_delay=0.05) as gw:
            gw.add_tap(BadTap())
            tickets = [gw.submit("m", r) for r in X[:20]]
            gw.flush()
            got = np.array([t.result(10.0) for t in tickets])
            # the serve layer's invariant is per-request parity: each
            # answer equals a direct single-row predict
            direct = np.array([float(m1.predict(r[None, :])[0]) for r in X[:20]])
            assert np.array_equal(got, direct)
            assert gw.tap_errors == 40  # 20 requests + 20 results, all swallowed

    def test_remove_tap_stops_observation(self, setup):
        X, y, m1, _ = setup
        reg = ModelRegistry()
        reg.register("m", m1, promote=True)
        reg.set_reference("m", X)
        plane = MonitoringPlane(reg, eval_every=10**9)
        plane.watch("m")
        with ServingGateway(reg, max_batch=8, max_delay=0.05) as gw:
            plane.attach(gw)
            gw.predict("m", X[0], timeout=5.0)
            plane.detach()
            gw.predict("m", X[1], timeout=5.0)
        assert plane.status()["m"]["n_observed"] == 1

    def test_eu_tap_sees_predict_dist_results(self, setup):
        X, y, m1, _ = setup
        reg = ModelRegistry()
        reg.register("m", m1, promote=True)
        reg.set_reference("m", X, eu=epistemic_sample(m1, X))
        plane = MonitoringPlane(reg, eval_every=10**9)
        plane.watch("m")
        with ServingGateway(reg, max_batch=4, max_delay=0.05) as gw:
            plane.attach(gw)
            for r in X[:8]:
                gw.predict_dist("m", r, timeout=5.0)
        status = plane.status()["m"]
        assert status["eu_observed"] == 8
        assert status["eu_novel_fraction"] <= 0.05  # in-distribution jobs

    def test_watch_requires_a_reference(self, setup):
        X, y, m1, _ = setup
        reg = ModelRegistry()
        reg.register("m", m1, promote=True)
        plane = MonitoringPlane(reg)
        with pytest.raises(ValueError):
            plane.watch("m")

    def test_shadow_promote_via_live_traffic(self, setup):
        X, y, *_ = setup
        reg = ModelRegistry()
        weak = _forest(X[:60], y[:60], seed=0, trees=3)
        strong = _forest(X, y, seed=1, trees=60)
        reg.register("m", weak, promote=True)
        reg.set_reference("m", X)
        v2 = reg.register("m", strong)
        plane = MonitoringPlane(reg, clock=lambda: 0.0, eval_every=10**9,
                                cooldown_s=0.0)
        plane.watch("m")
        shadow = plane.shadow("m", v2, fraction=0.5, min_outcomes=20)
        plane.add_rule(ShadowWinnerRule())
        with ServingGateway(reg, max_batch=16, max_delay=0.05) as gw:
            plane.attach(gw)
            tickets = [gw.submit("m", r) for r in X[:60]]
            gw.flush()
            for t in tickets:
                t.result(10.0)
            assert shadow.report().mirrored == 30
            for row, outcome in zip(X[:40], y[:40]):
                plane.record_outcome("m", row, outcome)
            fired = plane.evaluate("m")
            assert [e.action for e in fired] == ["promote"]
            assert reg.production_version("m") == v2
            # the settled shadow is retired — no re-firing forever after
            assert plane.state("m").shadow is None

    def test_wants_results_reflects_consumers(self, setup):
        X, y, m1, _ = setup
        reg = ModelRegistry()
        reg.register("m", m1, promote=True)
        v2 = reg.register("m", _forest(X, y, seed=3))
        plane = MonitoringPlane(reg)
        plane.watch("m", reference=X)          # drift-only
        assert not plane.wants_results()
        with ServingGateway(reg, max_batch=8, max_delay=0.05) as gw:
            plane.attach(gw)
            assert gw._result_taps == ()       # dispatch skipped entirely
            plane.shadow("m", v2, fraction=1.0)
            assert plane.wants_results()
            assert len(gw._result_taps) == 1   # re-attached automatically


# ---------------------------------------------------------------------- #
# the plane over a sharded cluster: detection propagates fleet-wide
# ---------------------------------------------------------------------- #
@pytest.mark.shard
class TestMonitoringPlaneCluster:
    def test_psi_rollback_propagates_to_every_shard(self, setup):
        X, y, m1, m2 = setup
        rng = np.random.default_rng(9)
        drifted = rng.normal(0, 1, (160, X.shape[1])) * 2.0 + 1.5

        reg = ModelRegistry()
        v1 = reg.register("m", m1, promote=True)
        reg.set_reference("m", X)
        v2 = reg.register("m", m2)

        with ShardedServingCluster(
            reg, n_shards=2, route="replicated", max_batch=16, max_delay=0.05,
        ) as cluster:
            reg.promote("m", v2)  # broadcast: every shard serves v2
            plane = MonitoringPlane(reg, window=128, min_window=64,
                                    eval_every=32, cooldown_s=1e9)
            plane.watch("m")
            plane.add_rule(PsiThresholdRule(threshold=0.25, action="rollback"))
            plane.attach(cluster)

            for r in drifted:
                cluster.predict("m", r, timeout=30.0)
            assert [e.action for e in plane.events] == ["rollback"]
            assert reg.production_version("m") == v1
            assert cluster.tap_errors == 0

            # ack-gated: the rollback broadcast returned before the event
            # was recorded, so every shard must already serve v1 — witness
            # each one with a probe (replicated round-robin hits both)
            probe = X[0]
            expect = float(m1.predict(probe[None, :])[0])
            shards_seen = set()
            for _ in range(8):
                ticket = cluster.submit("m", probe)
                shards_seen.add(ticket.shard_id)
                assert ticket.result(30.0) == expect
            assert shards_seen == {0, 1}

    def test_set_reference_broadcast_and_respawn(self, setup):
        import pickle

        from repro.serve.shard import _apply_control

        X, y, m1, _ = setup
        reg = ModelRegistry()
        reg.register("m", m1, promote=True)
        with ShardedServingCluster(reg, n_shards=2, max_batch=8) as cluster:
            # live broadcast: the mutating call returns only after every
            # worker acked the new baseline
            reg.set_reference("m", X, eu=np.ones(4))
            # a replica applies the same control message idempotently
            replica = ModelRegistry()
            replica.register("m", pickle.loads(pickle.dumps(m1)), version=1)
            payload = pickle.dumps(reg.get_reference("m"))
            _apply_control(replica, "set_reference", "m", payload)
            _apply_control(replica, "set_reference", "m", payload)  # replay
            ref = replica.get_reference("m")
            assert np.array_equal(ref.X, X) and not ref.X.flags.writeable
            # a respawned worker warm-starts from a snapshot that already
            # carries the reference
            cluster.kill_shard(0)
            assert cluster.respawn() == 1
            assert cluster.predict("m", X[0], timeout=30.0) == pytest.approx(
                float(m1.predict(X[0][None, :])[0])
            )
