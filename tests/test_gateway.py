"""Tests for the multi-model serving gateway.

The gateway adds routing, never arithmetic: every name's answers must be
bit-identical (``np.array_equal``) to direct predicts on that name's
production model, no matter how the per-name streams interleave or how
badly one name's clients misbehave.
"""

import sys
import threading

import numpy as np
import pytest

from repro.ml.forest import RandomForestRegressor
from repro.ml.gbm import GradientBoostingRegressor
from repro.serve import (
    GatewayStats,
    ModelRegistry,
    ServerStats,
    ServingGateway,
    ShardedServingCluster,
)

pytestmark = [pytest.mark.serve, pytest.mark.gateway]


def _data(n=900, d=6, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, d))
    y = np.sin(2 * X[:, 0]) + X[:, 1] * X[:, 2] + 0.05 * rng.normal(0, 1, n)
    return X, y


@pytest.fixture(scope="module")
def data():
    return _data()


@pytest.fixture(scope="module")
def gbm(data):
    X, y = data
    return GradientBoostingRegressor(n_estimators=25, max_depth=4, loss="squared").fit(X, y)


@pytest.fixture(scope="module")
def forest(data):
    X, y = data
    return RandomForestRegressor(n_estimators=30, max_depth=9, random_state=1).fit(X, y)


def _registry(gbm, forest):
    reg = ModelRegistry()
    reg.register("gbm", gbm, promote=True)
    reg.register("forest", forest, promote=True)
    return reg


# ---------------------------------------------------------------------- #
class TestServingGateway:
    def test_routes_two_names_bit_identical(self, data, gbm, forest):
        """The acceptance gate: an interleaved two-name stream through the
        gateway matches direct per-model predicts exactly."""
        reg = _registry(gbm, forest)
        models = {"gbm": gbm, "forest": forest}
        rows = _data(n=120, seed=3)[0]
        names = ["gbm" if i % 3 else "forest" for i in range(len(rows))]
        with ServingGateway(reg, max_batch=32) as gw:
            tickets = [(n, gw.submit(n, r)) for n, r in zip(names, rows)]
            gw.flush()
            out = {"gbm": [], "forest": []}
            for n, t in tickets:
                out[n].append(t.result(timeout=10.0))
            # independent per-name batchers, one per routed name
            assert gw.names() == ["forest", "gbm"]
            per_name = gw.stats().per_name
            assert {n: st.requests for n, st in per_name.items()} == {
                n: names.count(n) for n in ("gbm", "forest")}
        for name in ("gbm", "forest"):
            ref = np.array([
                models[name].predict(r[None, :])[0]
                for n, r in zip(names, rows) if n == name
            ])
            assert np.array_equal(np.array(out[name]), ref)

    def test_lazy_creation_and_unknown_name(self, data, gbm, forest):
        reg = _registry(gbm, forest)
        row = _data(n=1, seed=4)[0][0]
        with ServingGateway(reg, max_batch=4) as gw:
            assert gw.names() == []
            gw.predict("gbm", row, timeout=10.0)
            assert gw.names() == ["gbm"]  # only the touched name is live
            with pytest.raises(LookupError):
                gw.submit("nope", row)
            assert gw.names() == ["gbm"]  # the failed route created nothing

    def test_routing_isolation_of_malformed_traffic(self, data, gbm, forest):
        """One name's wrong-width clients must fail alone: the other
        name's co-scheduled stream stays bit-identical and error-free."""
        reg = _registry(gbm, forest)
        rows = _data(n=40, seed=5)[0]
        with ServingGateway(reg, max_batch=10_000) as gw:
            good_f = [gw.submit("forest", r) for r in rows[:20]]
            bad = [gw.submit("gbm", np.zeros(rows.shape[1] + 3)) for _ in range(4)]
            good_g = [gw.submit("gbm", r) for r in rows[20:]]
            gw.flush()
            for t in bad:
                with pytest.raises(ValueError):
                    t.result(timeout=10.0)
            out_f = np.array([t.result(timeout=10.0) for t in good_f])
            out_g = np.array([t.result(timeout=10.0) for t in good_g])
        assert np.array_equal(
            out_f, np.array([forest.predict(r[None, :])[0] for r in rows[:20]])
        )
        assert np.array_equal(
            out_g, np.array([gbm.predict(r[None, :])[0] for r in rows[20:]])
        )

    def test_tap_error_count_exact_under_contention(self, data, gbm, forest):
        """Swallowed tap exceptions increment under a dedicated lock: N
        threads hammering a raising tap must count every swallow exactly.
        The bare ``+=`` read-modify-write it replaces was only
        *incidentally* safe on GIL builds (no eval-breaker checkpoint
        lands between the attribute load and store); the lock makes the
        exactness this test pins an actual guarantee — including on
        free-threaded builds, where the bare form loses increments and
        silently understates monitoring breakage."""
        reg = _registry(gbm, forest)

        class Raising:
            def on_request(self, name, row, kind):
                raise RuntimeError("boom")

        row = np.zeros(6)
        n_threads, per_thread = 8, 400
        with ServingGateway(reg, max_batch=4) as gw:
            gw.add_tap(Raising())
            barrier = threading.Barrier(n_threads)

            def worker():
                barrier.wait()
                for _ in range(per_thread):
                    gw._notify_request("gbm", row, "predict")

            old = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # force interleaving inside +=
            try:
                threads = [threading.Thread(target=worker) for _ in range(n_threads)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
            finally:
                sys.setswitchinterval(old)
            assert gw.tap_errors == n_threads * per_thread

    def test_constructors_reject_bad_limits(self, data, gbm, forest):
        """A limit out of range fails when the front door is built, not as
        a client-facing MALFORMED_REQUEST on every submit — and a cluster
        starts no worker to find out."""
        reg = _registry(gbm, forest)
        bad = [({"max_batch": 0}, "max_batch"), ({"cache_entries": 0}, "cache_entries")]
        for kwargs, field in bad:
            with pytest.raises(ValueError, match=field):
                ServingGateway(reg, **kwargs)
            with pytest.raises(ValueError, match=field):
                ShardedServingCluster(reg, n_shards=1, **kwargs)
        # max_delay is the worker loop's backstop: a cluster-only limit
        with pytest.raises(ValueError, match="max_delay"):
            ShardedServingCluster(reg, n_shards=1, max_delay=0.0)
        assert reg._listeners == []  # nothing half-built stayed subscribed

    def test_flush_of_idle_name_creates_no_service(self, data, gbm, forest):
        reg = _registry(gbm, forest)
        with ServingGateway(reg, max_batch=4) as gw:
            assert gw.flush("forest") == 0
            assert gw.flush("never-registered") == 0
            assert gw.names() == []  # nothing was stood up just to flush

    def test_promote_rollback_through_gateway(self, data, gbm, forest):
        """Stage changes stay a registry concern; the gateway observes
        them at the next batch boundary, exactly as for a single name."""
        X, y = data
        reg = _registry(gbm, forest)
        v2_model = GradientBoostingRegressor(
            n_estimators=10, max_depth=3, loss="squared", random_state=7
        ).fit(X, y)
        v2 = reg.register("gbm", v2_model)
        row = _data(n=1, seed=6)[0][0]
        with ServingGateway(reg, max_batch=4) as gw:
            p1 = gw.predict("gbm", row, timeout=10.0)
            f1 = gw.predict("forest", row, timeout=10.0)
            reg.promote("gbm", v2)
            p2 = gw.predict("gbm", row, timeout=10.0)
            reg.rollback("gbm")
            p3 = gw.predict("gbm", row, timeout=10.0)
            f2 = gw.predict("forest", row, timeout=10.0)
        assert p1 == gbm.predict(row[None, :])[0]
        assert p2 == v2_model.predict(row[None, :])[0]
        assert p3 == p1
        assert f1 == f2 == forest.predict(row[None, :])[0]  # other name untouched

    def test_aggregate_stats_match_per_name_sums(self, data, gbm, forest):
        reg = _registry(gbm, forest)
        rows = _data(n=30, seed=7)[0]
        with ServingGateway(reg, max_batch=8) as gw:
            for r in rows[:20]:
                gw.predict("gbm", r, timeout=10.0)
            for r in rows[20:]:
                gw.predict("forest", r, timeout=10.0)
            gw.predict("gbm", rows[0], timeout=10.0)  # one cache hit
            stats = gw.stats()
        assert set(stats.per_name) == {"gbm", "forest"}
        total = stats.total
        import dataclasses

        for f in dataclasses.fields(ServerStats):
            if f.name == "latency_samples":  # concatenates, not sums
                continue
            assert getattr(total, f.name) == pytest.approx(
                sum(getattr(s, f.name) for s in stats.per_name.values())
            )
        assert len(total.latency_samples) == sum(
            len(s.latency_samples) for s in stats.per_name.values()
        )
        assert total.requests == 31
        assert stats.per_name["gbm"].cache_hits == 1
        assert "TOTAL (2 models)" in stats.summary()

    def test_empty_gateway_stats(self):
        stats = GatewayStats(per_name={})
        assert stats.total.requests == 0
        assert stats.total.mean_latency_ms == 0.0

    def test_empty_rollups_every_ratio_defined(self):
        # the empty-total contract: a gateway/cluster that has served
        # nothing (or whose every shard is dead) reports 0.0 ratios —
        # never NaN, never ZeroDivisionError — and summaries render
        from repro.serve import ClusterStats
        from repro.serve.stats import sum_stats

        empty_total = sum_stats([])
        assert empty_total.hit_rate == 0.0
        assert empty_total.mean_batch_rows == 0.0
        assert empty_total.mean_latency_ms == 0.0
        assert "requests=0" in empty_total.summary()

        gw = GatewayStats(per_name={})
        assert gw.total.hit_rate == 0.0
        assert "TOTAL (0 models)" in gw.summary()

        cluster = ClusterStats(per_shard={})  # every shard dead/absent
        assert cluster.per_name == {}
        assert cluster.total.hit_rate == 0.0
        assert cluster.total.mean_latency_ms == 0.0
        assert "CLUSTER (0 shards" in cluster.summary()

    def test_single_dead_shard_rollup(self):
        # one live shard (the other died -> absent from per_shard): the
        # cluster rollup must equal the surviving shard's own numbers
        import dataclasses

        from repro.serve import ClusterStats

        live = ServerStats(
            requests=10, rows=10, batches=2, completed=10, size_flushes=1,
            deadline_flushes=1, manual_flushes=0, abandoned=1, cache_hits=4,
            cache_misses=6, cache_evictions=0, cache_invalidations=0,
            cache_entries=6, total_latency_s=0.05,
        )
        cluster = ClusterStats(per_shard={1: GatewayStats(per_name={"m": live})})
        assert set(cluster.per_name) == {"m"}
        for f in dataclasses.fields(ServerStats):
            assert getattr(cluster.total, f.name) == getattr(live, f.name)
        assert cluster.total.hit_rate == pytest.approx(0.4)
        # a name served by zero live shards simply isn't reported; the
        # total still carries the live shard's counters only
        empty_shard = ClusterStats(per_shard={0: GatewayStats(per_name={})})
        assert empty_shard.per_name == {}
        assert empty_shard.total.completed == 0
        assert empty_shard.total.mean_latency_ms == 0.0

    def test_close_tears_everything_down(self, data, gbm, forest):
        reg = _registry(gbm, forest)
        gw = ServingGateway(reg, max_batch=4)
        row = _data(n=1, seed=8)[0][0]
        gw.predict("gbm", row, timeout=10.0)
        gw.predict("forest", row, timeout=10.0)
        assert len(reg._listeners) == 1  # one per gateway, not per name
        gw.close()
        assert reg._listeners == []
        with pytest.raises(RuntimeError, match="closed"):
            gw.submit("gbm", row)
        gw.close()  # idempotent


# ---------------------------------------------------------------------- #
class TestCloseIdempotence:
    """Regression: teardown must be safe however many times — and from
    whatever thread of execution — it runs.  ``__del__`` and atexit hooks
    call close() on objects in arbitrary states, including ones whose
    ``__init__`` never finished; double-close used to rely on every caller
    being careful."""

    def test_gateway_double_close_and_del(self, data, gbm, forest):
        reg = _registry(gbm, forest)
        gw = ServingGateway(reg, max_batch=8)
        assert gw.predict("gbm", _data(n=1, seed=5)[0][0], timeout=10.0) is not None
        gw.close()
        gw.close()  # second close: no re-teardown, no raise
        gw.__del__()  # finalizer path after an explicit close
        with pytest.raises(RuntimeError, match="closed"):
            gw.submit("gbm", _data(n=1, seed=5)[0][0])
        # close() deregistered the gateway's listener exactly once: a
        # stage change afterwards must not touch the closed batchers
        v = reg.register("gbm", forest)
        reg.promote("gbm", v)

    def test_gateway_close_on_partially_constructed_instance(self):
        gw = object.__new__(ServingGateway)  # __init__ never ran
        gw.close()  # must be a silent no-op
        gw.__del__()

    def test_flush_after_close_is_harmless(self, data, gbm, forest):
        reg = _registry(gbm, forest)
        gw = ServingGateway(reg, max_batch=8)
        gw.predict("forest", _data(n=1, seed=7)[0][0], timeout=10.0)
        gw.close()
        assert gw.flush() == 0  # nothing pending, nothing raised
