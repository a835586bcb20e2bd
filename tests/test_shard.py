"""Tests for the process-sharded serving cluster.

The cluster's contract mirrors the rest of the serve stack: process
sharding is routing and plumbing, never arithmetic.  Every answer must be
bit-identical (``np.array_equal``) to a direct single-process predict on
the same registered model, registry mutations must hold cluster-wide the
moment the mutating call returns, and a dead worker must surface as
per-ticket errors — never a hung client.
"""

import pickle
import time

import numpy as np
import pytest

from repro.ml.forest import RandomForestRegressor
from repro.ml.gbm import GradientBoostingRegressor
from repro.serve import (
    ClusterStats,
    ModelRegistry,
    ServingGateway,
    ShardCrashedError,
    ShardedServingCluster,
)
from repro.serve.shard import shard_for_name

pytestmark = [pytest.mark.serve, pytest.mark.shard]


def _data(n=600, d=6, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, d))
    y = np.sin(2 * X[:, 0]) + X[:, 1] * X[:, 2] + 0.05 * rng.normal(0, 1, n)
    return X, y


@pytest.fixture(scope="module")
def data():
    return _data()


@pytest.fixture(scope="module")
def forest(data):
    X, y = data
    return RandomForestRegressor(n_estimators=20, max_depth=8, random_state=1).fit(X, y)


@pytest.fixture(scope="module")
def gbm(data):
    X, y = data
    return GradientBoostingRegressor(n_estimators=20, max_depth=3, loss="squared").fit(X, y)


class RowAffine:
    """Tiny row-wise affine model: cheap to register by the hundred and
    bit-identical for any batch grouping (each row reduces alone)."""

    def __init__(self, w, b):
        self.w = np.asarray(w, dtype=float)
        self.b = float(b)

    def predict(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.array([float(r @ self.w) + self.b for r in X])


def _registry(forest, gbm):
    reg = ModelRegistry()
    reg.register("forest", forest, promote=True)
    reg.register("gbm", gbm, promote=True)
    return reg


def _cluster(reg, **kw):
    kw.setdefault("n_shards", 2)
    kw.setdefault("max_batch", 16)
    kw.setdefault("max_delay", 0.01)
    return ShardedServingCluster(reg, **kw)


# ---------------------------------------------------------------------- #
class TestRouting:
    def test_name_hash_is_stable_and_in_range(self):
        for name in ("forest", "gbm", "io-throughput", "a", ""):
            for n in (1, 2, 3, 7):
                idx = shard_for_name(name, n)
                assert 0 <= idx < n
                assert idx == shard_for_name(name, n)  # process-independent

    def test_hash_route_pins_a_name_to_one_shard(self, forest, gbm):
        reg = _registry(forest, gbm)
        with _cluster(reg) as cluster:
            owner = cluster.shard_of("forest")
            tickets = [cluster.submit("forest", _data(n=10, seed=3)[0][i]) for i in range(10)]
            cluster.flush()
            for t in tickets:
                t.result(timeout=20.0)
                assert t.shard_id == owner


class TestBitIdentity:
    def test_two_shard_two_name_stream_matches_single_process_gateway(
        self, forest, gbm
    ):
        """The acceptance gate: a 2-shard cluster serving 2 names returns
        predictions np.array_equal to a single-process ServingGateway."""
        reg = _registry(forest, gbm)
        rows = _data(n=120, seed=7)[0]
        names = ["forest" if i % 3 else "gbm" for i in range(len(rows))]

        with ServingGateway(reg, max_batch=16, max_delay=0.01) as gw:
            tickets = [(n, gw.submit(n, r)) for n, r in zip(names, rows)]
            gw.flush()
            single = {"forest": [], "gbm": []}
            for n, t in tickets:
                single[n].append(t.result(timeout=20.0))

        with _cluster(reg) as cluster:
            tickets = [(n, cluster.submit(n, r)) for n, r in zip(names, rows)]
            cluster.flush()
            sharded = {"forest": [], "gbm": []}
            for n, t in tickets:
                sharded[n].append(t.result(timeout=20.0))

        for name in ("forest", "gbm"):
            assert np.array_equal(np.array(sharded[name]), np.array(single[name]))

    def test_predict_dist_routes_through_shards(self, forest, gbm):
        reg = _registry(forest, gbm)
        rows = _data(n=8, seed=11)[0]
        with _cluster(reg) as cluster:
            got = [cluster.predict_dist("forest", r, timeout=20.0) for r in rows]
        for r, (m, v) in zip(rows, got):
            mr, vr = forest.predict_dist(r[None, :])
            assert m == mr[0] and v == vr[0]

    def test_replicated_block_fanout_bit_identical(self, forest, gbm):
        reg = _registry(forest, gbm)
        X = _data(n=97, seed=13)[0]  # odd count: uneven chunks must reassemble
        with _cluster(reg, route="replicated", max_batch=64) as cluster:
            got = cluster.predict_block("forest", X, timeout=20.0)
            assert np.array_equal(got, forest.predict(X))
            m, v = cluster.submit_block("forest", X, kind="predict_dist").result(20.0)
            mr, vr = forest.predict_dist(X)
            assert np.array_equal(m, mr) and np.array_equal(v, vr)

    def test_replicated_single_rows_bit_identical(self, forest, gbm):
        reg = _registry(forest, gbm)
        rows = _data(n=40, seed=17)[0]
        with _cluster(reg, route="replicated") as cluster:
            tickets = [cluster.submit("gbm", r) for r in rows]
            cluster.flush()
            got = np.array([t.result(timeout=20.0) for t in tickets])
            shards_used = {t.shard_id for t in tickets}
        assert np.array_equal(got, gbm.predict(rows))
        assert len(shards_used) == 2  # round-robin actually spread the load


# ---------------------------------------------------------------------- #
class TestBroadcastMutations:
    def test_register_promote_rollback_unregister_hold_cluster_wide(
        self, data, forest, gbm
    ):
        X, y = data
        reg = _registry(forest, gbm)
        probe = _data(n=3, seed=19)[0]
        v2_model = RandomForestRegressor(n_estimators=20, max_depth=8, random_state=9).fit(X, y)
        with _cluster(reg) as cluster:
            assert cluster.predict("forest", probe[0], timeout=20.0) == \
                forest.predict(probe[0][None, :])[0]

            v2 = cluster.register("forest", v2_model, promote=True)
            assert reg.production_version("forest") == v2
            # distinct probe rows per stage: results must come from the
            # broadcast-promoted replica, not a stale worker cache
            assert cluster.predict("forest", probe[1], timeout=20.0) == \
                v2_model.predict(probe[1][None, :])[0]

            cluster.rollback("forest")
            assert cluster.predict("forest", probe[2], timeout=20.0) == \
                forest.predict(probe[2][None, :])[0]

            cluster.unregister("forest", v2)
            assert reg.versions("forest") == [1]
            # the replicas dropped it too: re-registering reuses v2's slot
            v3 = cluster.register("forest", v2_model)
            assert v3 == v2 + 1

    def test_control_replay_is_idempotent(self, data, forest, gbm):
        """A worker respawned between a parent mutation and its broadcast
        warm-starts from a snapshot that already holds the change, then
        receives the queued broadcast anyway — replaying every action on
        an already-consistent replica must be a no-op, not a divergence."""
        from repro.serve.shard import _apply_control

        X, y = data
        reg = _registry(forest, gbm)
        v2_model = RandomForestRegressor(n_estimators=20, max_depth=8, random_state=3).fit(X, y)
        v2 = reg.register("forest", v2_model, promote=True)
        reg.rollback("forest")

        replica = ModelRegistry()
        replica.restore(reg.snapshot())  # snapshot already carries everything
        payload = (pickle.dumps(reg.get("forest", v2)), v2)
        assert _apply_control(replica, "register", "forest", payload) == v2
        assert replica.versions("forest") == [1, v2]
        # replayed rollback: production already at the target, history intact
        assert _apply_control(replica, "rollback", "forest", 1) == 1
        assert replica.production_version("forest") == 1
        _apply_control(replica, "promote", "forest", 1)  # no history push
        reg.unregister("forest", v2)
        replica.unregister("forest", v2)
        assert _apply_control(replica, "unregister", "forest", v2) == v2
        assert replica.versions("forest") == [1]

    def test_mutations_through_registry_directly_also_broadcast(self, data, forest, gbm):
        X, y = data
        reg = _registry(forest, gbm)
        v2_model = RandomForestRegressor(n_estimators=20, max_depth=8, random_state=5).fit(X, y)
        probe = _data(n=2, seed=23)[0]
        with _cluster(reg) as cluster:
            v2 = cluster.register("gbm", v2_model)  # register must ship bytes
            reg.promote("gbm", v2)  # listener broadcast
            assert cluster.predict("gbm", probe[0], timeout=20.0) == \
                v2_model.predict(probe[0][None, :])[0]
            reg.rollback("gbm")
            assert cluster.predict("gbm", probe[1], timeout=20.0) == \
                gbm.predict(probe[1][None, :])[0]


# ---------------------------------------------------------------------- #
class TestCrashContainment:
    def test_worker_kill_fails_tickets_and_respawn_recovers(self, forest, gbm):
        """The acceptance gate: a killed worker yields per-ticket errors
        (no hang) and respawn() restores bit-identical service."""
        reg = _registry(forest, gbm)
        rows = _data(n=6, seed=29)[0]
        with _cluster(reg, max_batch=512, max_delay=30.0) as cluster:
            victim = cluster.shard_of("forest")
            # park requests on the victim: huge limits keep them pending
            in_flight = [cluster.submit("forest", r) for r in rows[:3]]
            cluster.kill_shard(victim)
            for t in in_flight:
                with pytest.raises(ShardCrashedError):
                    t.result(timeout=10.0)
            # post-crash submits error immediately instead of hanging
            with pytest.raises(ShardCrashedError):
                cluster.submit("forest", rows[3]).result(timeout=10.0)
            assert cluster.live_shards() != list(range(cluster.n_shards))

            assert cluster.respawn() == 1
            assert cluster.live_shards() == list(range(cluster.n_shards))
            ticket = cluster.submit("forest", rows[4])
            cluster.flush()  # the huge test limits never self-flush
            assert ticket.result(timeout=20.0) == forest.predict(rows[4][None, :])[0]

    def test_respawned_worker_carries_mutations_made_while_down(
        self, data, forest, gbm
    ):
        X, y = data
        reg = _registry(forest, gbm)
        v2_model = RandomForestRegressor(n_estimators=20, max_depth=8, random_state=7).fit(X, y)
        probe = _data(n=1, seed=31)[0][0]
        with _cluster(reg) as cluster:
            cluster.kill_shard(cluster.shard_of("forest"))
            v2 = cluster.register("forest", v2_model, promote=True)  # owner is down
            cluster.respawn()  # warm-starts from the *current* snapshot
            assert cluster.predict("forest", probe, timeout=20.0) == \
                v2_model.predict(probe[None, :])[0]
            assert reg.production_version("forest") == v2

    def test_respawn_with_hundreds_of_versions_serves_old_and_new(self):
        """A killed shard whose registry holds 300 versions warm-starts
        from the parent snapshot with all of them: after the respawn it
        answers the oldest and the newest version bit-identically, and a
        version registered after the respawn reaches it too."""
        rng = np.random.default_rng(41)
        models = [RowAffine(rng.normal(0, 1, 6), rng.normal()) for _ in range(300)]
        reg = ModelRegistry()
        for model in models:
            reg.register("many", model)
        reg.promote("many", 1)
        probe = _data(n=3, seed=43)[0]
        with _cluster(reg) as cluster:
            cluster.kill_shard(cluster.shard_of("many"))
            assert cluster.respawn() == 1
            assert cluster.predict("many", probe[0], timeout=20.0) == \
                models[0].predict(probe[0])[0]
            cluster.promote("many", 300)
            assert cluster.predict("many", probe[1], timeout=20.0) == \
                models[-1].predict(probe[1])[0]
            newest = RowAffine(rng.normal(0, 1, 6), rng.normal())
            assert cluster.register("many", newest, promote=True) == 301
            assert cluster.predict("many", probe[2], timeout=20.0) == \
                newest.predict(probe[2])[0]

    def test_respawn_right_after_kill_does_not_wait_for_the_reader(
        self, forest, gbm, monkeypatch
    ):
        """kill_shard returns once the worker process is joined, but the
        shard's `alive` flag clears only when its reader thread sees EOF.
        With every reader held back, that window stays open: an immediate
        respawn() must still count the exited worker as dead."""
        import threading

        release = threading.Event()
        read = ShardedServingCluster._reader

        def held_reader(self, handle):
            release.wait(timeout=30.0)
            read(self, handle)

        monkeypatch.setattr(ShardedServingCluster, "_reader", held_reader)
        reg = _registry(forest, gbm)
        probe = _data(n=1, seed=37)[0][0]
        with _cluster(reg) as cluster:
            try:
                cluster.kill_shard(0)
                assert cluster.live_shards() == [0, 1]  # no reader saw EOF yet
                assert cluster.respawn() == 1
            finally:
                release.set()
            assert cluster.respawn() == 0  # the replacement is healthy
            for name, model in (("forest", forest), ("gbm", gbm)):
                assert cluster.predict(name, probe, timeout=20.0) == \
                    model.predict(probe[None, :])[0]


# ---------------------------------------------------------------------- #
class TestStatsAndLifecycle:
    def test_cluster_stats_aggregate_per_shard_and_per_name(self, forest, gbm):
        reg = _registry(forest, gbm)
        rows = _data(n=30, seed=37)[0]
        with _cluster(reg) as cluster:
            for i, r in enumerate(rows):
                cluster.predict("forest" if i % 2 else "gbm", r, timeout=20.0)
            # a result() return races the flusher's counter bump by a few
            # microseconds — poll until the last flush finishes accounting
            for _ in range(100):
                stats = cluster.stats()
                if stats.total.completed == len(rows):
                    break
                time.sleep(0.01)
        assert isinstance(stats, ClusterStats)
        assert set(stats.per_shard) == {0, 1}
        per_name = stats.per_name
        assert per_name["forest"].requests == 15
        assert per_name["gbm"].requests == 15
        assert stats.total.requests == 30
        assert stats.total.completed == 30
        # per-shard totals sum to the cluster total, field by field
        assert sum(gw.total.requests for gw in stats.per_shard.values()) == 30

    def test_close_is_idempotent_and_del_safe(self, forest, gbm):
        reg = _registry(forest, gbm)
        cluster = _cluster(reg)
        assert cluster.predict("forest", _data(n=1, seed=41)[0][0], timeout=20.0)
        cluster.close()
        cluster.close()  # second close is a no-op
        cluster.__del__()  # and the finalizer path never raises
        with pytest.raises((RuntimeError, ShardCrashedError)):
            cluster.submit("forest", _data(n=1, seed=41)[0][0]).result(timeout=5.0)
        # a listener left behind would re-broadcast into closed pipes:
        # a real stage change on the registry must not raise after close
        v2 = reg.register("forest", gbm)
        reg.promote("forest", v2)

    def test_snapshot_roundtrips_through_pickle(self, forest, gbm):
        reg = _registry(forest, gbm)
        snap = pickle.loads(pickle.dumps(reg.snapshot()))
        replica = ModelRegistry()
        replica.restore(snap)
        assert replica.names() == reg.names()
        row = _data(n=1, seed=43)[0]
        assert replica.get("forest").predict(row) == forest.predict(row)
        assert replica.production_version("forest") == reg.production_version("forest")

    def test_bad_requests_stay_per_ticket(self, forest, gbm):
        reg = _registry(forest, gbm)
        with _cluster(reg) as cluster:
            bad = cluster.submit("forest", np.ones(3))  # wrong width
            unknown = cluster.submit("nope", np.ones(6))
            good = cluster.submit("forest", _data(n=1, seed=47)[0][0])
            cluster.flush()
            with pytest.raises(Exception):
                bad.result(timeout=20.0)
            with pytest.raises(LookupError):
                unknown.result(timeout=20.0)
            assert good.result(timeout=20.0) == pytest.approx(
                forest.predict(_data(n=1, seed=47)[0])[0]
            )
            # the cluster survives its clients
            assert cluster.live_shards() == [0, 1]


# ---------------------------------------------------------------------- #
class TestStormBugRegressions:
    """The two storm-scale bugs the chaos harness flushed out."""

    @staticmethod
    def _stub_cluster(n_shards: int, request_timeout: float) -> ShardedServingCluster:
        """A parent-side cluster shell with fake live shards and a
        _send_request that hands back tickets nobody will ever complete —
        the wedged-fleet worst case a kill storm produces, without
        spawning a single process."""
        from types import SimpleNamespace

        from repro.serve.shard import ClusterTicket

        cluster = object.__new__(ShardedServingCluster)
        cluster.request_timeout = request_timeout
        cluster._closed = False
        cluster._tap_errors = 0
        cluster._shards = [
            SimpleNamespace(shard_id=i, alive=True) for i in range(n_shards)
        ]
        cluster._send_request = lambda handle, op, *args: ClusterTicket(handle.shard_id)
        return cluster

    def test_gather_shares_one_deadline_across_fanout(self):
        """A fan-out over n wedged shards must cost ~one request_timeout,
        not n of them, and must degrade (skip the wedged shards) instead
        of raising the first ticket's timeout at the caller."""
        from repro.serve.shard import ClusterTicket

        cluster = self._stub_cluster(n_shards=4, request_timeout=0.3)
        tickets = [ClusterTicket(i) for i in range(4)]
        start = time.monotonic()
        values = cluster._gather(tickets)
        elapsed = time.monotonic() - start
        assert values == []
        assert elapsed < 2 * 0.3, (
            f"fan-out gather took {elapsed:.2f}s — per-ticket timeouts "
            f"instead of one shared deadline"
        )

    def test_stats_shares_one_deadline_across_shards(self):
        """stats() over wedged shards: same shared-deadline contract, and
        the wedged shards are simply absent from the roll-up."""
        cluster = self._stub_cluster(n_shards=4, request_timeout=0.3)
        start = time.monotonic()
        stats = cluster.stats()
        elapsed = time.monotonic() - start
        assert isinstance(stats, ClusterStats)
        assert stats.per_shard == {}
        assert elapsed < 2 * 0.3, (
            f"stats() took {elapsed:.2f}s — per-ticket timeouts "
            f"instead of one shared deadline"
        )

    def test_respawn_wave_serializes_snapshot_once(self, forest, gbm):
        """A K-shard respawn wave must pickle the registry snapshot once,
        not once per dead worker — O(models) work, not O(models × deaths)."""
        reg = _registry(forest, gbm)
        with _cluster(reg, n_shards=3) as cluster:
            # move the registry past the __init__-time snapshot so the wave
            # genuinely needs one fresh serialization (workers are all dead
            # below, so the respawned fleet stays consistent)
            reg.register("extra", gbm)
            for sid in range(3):
                cluster.kill_shard(sid)
            deadline = time.monotonic() + 10.0
            while cluster.live_shards() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert cluster.live_shards() == []

            calls = {"n": 0}
            orig = reg.snapshot

            def counting_snapshot():
                calls["n"] += 1
                return orig()

            reg.snapshot = counting_snapshot
            try:
                assert cluster.respawn() == 3
            finally:
                del reg.snapshot
            assert calls["n"] == 1, (
                f"respawn wave serialized the snapshot {calls['n']} times "
                f"for 3 dead shards"
            )
            assert sorted(cluster.live_shards()) == [0, 1, 2]
