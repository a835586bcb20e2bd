"""Tests for the stats subpackage (bootstrap, weighted quantiles, drift)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import (
    DriftMonitor,
    ReferenceBinning,
    bootstrap_ci,
    bootstrap_median_ci,
    ks_statistic,
    population_stability_index,
    reference_bin_edges,
    weighted_median,
    weighted_quantile,
)


class TestBootstrap:
    def test_median_ci_brackets_truth(self):
        rng = np.random.default_rng(0)
        x = rng.normal(5.0, 1.0, 2000)
        point, lo, hi = bootstrap_median_ci(x, n_boot=500)
        assert lo <= point <= hi
        assert lo < 5.0 < hi
        assert hi - lo < 0.3  # tight at n=2000

    def test_ci_width_shrinks_with_n(self):
        rng = np.random.default_rng(1)
        _, lo_s, hi_s = bootstrap_median_ci(rng.normal(0, 1, 100), n_boot=400)
        _, lo_l, hi_l = bootstrap_median_ci(rng.normal(0, 1, 10_000), n_boot=400)
        assert (hi_l - lo_l) < (hi_s - lo_s)

    def test_generic_statistic(self):
        rng = np.random.default_rng(2)
        x = rng.exponential(2.0, 1500)
        point, lo, hi = bootstrap_ci(x, lambda v: float(np.mean(v)), n_boot=400)
        assert lo < 2.0 < hi
        assert point == pytest.approx(x.mean())

    def test_deterministic_given_seed(self):
        x = np.arange(100.0)
        a = bootstrap_median_ci(x, n_boot=200, random_state=7)
        b = bootstrap_median_ci(x, n_boot=200, random_state=7)
        assert a == b

    def test_rejects_tiny_samples(self):
        with pytest.raises(ValueError):
            bootstrap_median_ci(np.array([1.0]))
        with pytest.raises(ValueError):
            bootstrap_ci(np.array([1.0, 2.0]), np.mean, coverage=1.5)


class TestWeightedQuantile:
    def test_matches_numpy_for_equal_weights(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, 5000)
        w = np.ones_like(x)
        for q in (0.1, 0.5, 0.9):
            assert weighted_quantile(x, w, q) == pytest.approx(np.quantile(x, q), abs=0.01)

    def test_zero_weight_points_ignored(self):
        x = np.array([0.0, 1.0, 2.0, 100.0])
        w = np.array([1.0, 1.0, 1.0, 0.0])
        assert weighted_median(x, w) == pytest.approx(1.0, abs=0.35)

    def test_heavy_weight_dominates(self):
        x = np.array([0.0, 10.0])
        w = np.array([1.0, 99.0])
        assert weighted_median(x, w) == pytest.approx(10.0, abs=0.6)

    def test_vector_q(self):
        x = np.arange(100.0)
        w = np.ones(100)
        out = weighted_quantile(x, w, np.array([0.25, 0.75]))
        assert out.shape == (2,)
        assert out[0] < out[1]

    def test_input_validation(self):
        with pytest.raises(ValueError):
            weighted_quantile(np.array([1.0]), np.array([1.0, 2.0]), 0.5)
        with pytest.raises(ValueError):
            weighted_quantile(np.array([1.0]), np.array([-1.0]), 0.5)
        with pytest.raises(ValueError):
            weighted_quantile(np.array([1.0, 2.0]), np.array([0.0, 0.0]), 0.5)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.01, 0.99))
    def test_monotone_in_q(self, q):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, 300)
        w = rng.uniform(0.1, 2.0, 300)
        assert weighted_quantile(x, w, q) <= weighted_quantile(x, w, min(q + 0.01, 0.999))


class TestDrift:
    def test_psi_near_zero_for_same_distribution(self):
        rng = np.random.default_rng(0)
        ref = rng.normal(0, 1, 5000)
        cur = rng.normal(0, 1, 5000)
        assert population_stability_index(ref, cur) < 0.02

    def test_psi_large_for_shifted_distribution(self):
        rng = np.random.default_rng(1)
        ref = rng.normal(0, 1, 5000)
        cur = rng.normal(2.0, 1, 5000)
        assert population_stability_index(ref, cur) > 0.5

    def test_ks_bounds_and_extremes(self):
        rng = np.random.default_rng(2)
        a = rng.normal(0, 1, 1000)
        assert ks_statistic(a, a) == 0.0
        assert ks_statistic(a, a + 100.0) == pytest.approx(1.0)

    def test_monitor_flags_only_shifted_columns(self):
        rng = np.random.default_rng(3)
        ref = rng.normal(0, 1, (3000, 4))
        cur = ref.copy()[:1500]
        cur[:, 2] += 3.0
        monitor = DriftMonitor().fit(ref, names=list("abcd"))
        report = monitor.score(cur)
        assert report.n_drifted == 1
        assert report.worst(1)[0][0] == "c"

    def test_monitor_validation(self):
        monitor = DriftMonitor()
        with pytest.raises(RuntimeError):
            monitor.score(np.zeros((5, 2)))
        monitor.fit(np.random.default_rng(0).normal(0, 1, (100, 2)))
        with pytest.raises(ValueError):
            monitor.score(np.zeros((5, 3)))

    def test_constant_reference_column_handled(self):
        ref = np.zeros((200, 1))
        cur = np.ones((100, 1))
        monitor = DriftMonitor().fit(ref)
        report = monitor.score(cur)
        assert np.isfinite(report.psi).all()
        assert report.psi[0] > 0.25

    # --- PR 5 degenerate-binning regression ---------------------------- #
    def test_constant_column_jitter_is_not_drift(self):
        # the bug: a constant reference collapses every decile edge to one
        # value, and pre-fix any current value differing by float noise
        # landed in the epsilon-floored "other" bin -> PSI ~ 27.6 (maximal
        # drift from a representation detail).  The documented fallback
        # widens the collapsed edge to a tolerance band.
        ref = np.full(200, 3.0)
        assert population_stability_index(ref, np.full(100, 3.0)) == 0.0
        jitter = np.full(100, 3.0 + 1e-12)
        assert population_stability_index(ref, jitter) < 0.1
        # genuinely moved mass still scores as maximal drift
        assert population_stability_index(ref, np.full(100, 4.0)) > 0.25
        assert population_stability_index(ref, np.full(100, 2.0)) > 0.25

    def test_constant_feature_in_monitor_self_score_is_zero(self):
        rng = np.random.default_rng(5)
        ref = rng.normal(0, 1, (300, 3))
        ref[:, 1] = 7.5  # constant feature (a never-used counter)
        monitor = DriftMonitor().fit(ref, names=list("abc"))
        report = monitor.score(ref)
        assert np.array_equal(report.psi, np.zeros(3))
        # jitter on just the constant column stays quiet
        cur = ref.copy()
        cur[:, 1] += 1e-11
        assert monitor.score(cur).n_drifted == 0

    def test_reference_bin_edges_fallback(self):
        edges = reference_bin_edges(np.full(50, 2.0))
        assert edges.shape == (2,)
        assert edges[0] < 2.0 < edges[1]
        with pytest.raises(ValueError):
            reference_bin_edges(np.zeros(3), n_bins=10)

    def test_reference_binning_matches_offline_psi_and_ks(self):
        rng = np.random.default_rng(6)
        ref = rng.normal(0, 1, (400, 5))
        ref[:, 3] = np.round(ref[:, 3])  # duplicate-heavy column
        ref[:, 4] = -1.25                # constant column
        cur = rng.normal(0.5, 1.4, (150, 5))
        cur[:, 4] = -1.25
        binning = ReferenceBinning(ref, names=list("abcde"))
        psi = binning.psi(cur)
        ks = binning.ks(cur)
        for j in range(5):
            assert psi[j] == population_stability_index(ref[:, j], cur[:, j])
            assert ks[j] == ks_statistic(ref[:, j], cur[:, j])

    def test_reference_binning_validation(self):
        rng = np.random.default_rng(7)
        ref = rng.normal(0, 1, (100, 2))
        with pytest.raises(ValueError):
            ReferenceBinning(ref[:, 0])  # 1-D
        with pytest.raises(ValueError):
            ReferenceBinning(ref, names=["only-one"])
        binning = ReferenceBinning(ref)
        with pytest.raises(ValueError):
            binning.psi(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            binning.psi(np.zeros((5, 3)))


# ---------------------------------------------------------------------- #
@pytest.mark.serve
class TestServeStatsRollup:
    """The serving counters' aggregation contract: every ServerStats
    field — ``abandoned`` included — must survive field-wise summing
    through GatewayStats and ClusterStats unchanged."""

    def _snap(self, **overrides):
        from repro.serve import ServerStats

        base = dict(
            requests=10, rows=10, batches=2, completed=8, size_flushes=1,
            deadline_flushes=1, manual_flushes=0, abandoned=0, cache_hits=3,
            cache_misses=7, cache_evictions=0, cache_invalidations=0,
            cache_entries=7, total_latency_s=0.5,
        )
        base.update(overrides)
        return ServerStats(**base)

    def test_sum_stats_carries_abandoned(self):
        from repro.serve.stats import sum_stats

        total = sum_stats([self._snap(abandoned=2), self._snap(abandoned=3)])
        assert total.abandoned == 5
        assert total.requests == 20
        assert "abandoned=5" in total.summary()

    def test_empty_sum_is_all_zero(self):
        from repro.serve.stats import sum_stats

        total = sum_stats([])
        assert total.abandoned == 0
        assert total.hit_rate == 0.0 and total.mean_latency_ms == 0.0

    def test_gateway_and_cluster_rollups_carry_abandoned(self):
        from repro.serve import ClusterStats, GatewayStats

        gw0 = GatewayStats(per_name={"a": self._snap(abandoned=1),
                                     "b": self._snap(abandoned=2)})
        gw1 = GatewayStats(per_name={"a": self._snap(abandoned=4)})
        assert gw0.total.abandoned == 3
        cluster = ClusterStats(per_shard={0: gw0, 1: gw1})
        assert cluster.total.abandoned == 7
        assert cluster.per_name["a"].abandoned == 5
        assert cluster.per_name["b"].abandoned == 2
        assert "abandoned=7" in cluster.total.summary()


# ---------------------------------------------------------------------- #
@pytest.mark.serve
class TestLatencyPercentiles:
    """The tail-accounting contract (PR 9): per-request latencies land in
    a bounded ring, surface as p50/p99/p999 on ServerStats, and survive
    the gateway/cluster roll-ups by concatenation + decimation — never by
    field-wise summing (a summed percentile is meaningless)."""

    def _snap(self, samples=(), **overrides):
        from repro.serve import ServerStats

        base = dict(
            requests=len(samples), rows=len(samples), batches=1,
            completed=len(samples), size_flushes=0, deadline_flushes=0,
            manual_flushes=0, abandoned=0, cache_hits=0, cache_misses=0,
            cache_evictions=0, cache_invalidations=0, cache_entries=0,
            total_latency_s=float(sum(samples)),
            latency_samples=tuple(samples),
        )
        base.update(overrides)
        return ServerStats(**base)

    def test_percentiles_match_numpy_and_order(self):
        samples = tuple(np.random.default_rng(0).uniform(0.001, 0.1, 500))
        snap = self._snap(samples)
        for q, attr in ((50, "p50_ms"), (99, "p99_ms"), (99.9, "p999_ms")):
            want = 1e3 * float(np.percentile(np.asarray(samples), q))
            assert getattr(snap, attr) == pytest.approx(want)
            assert snap.percentile_ms(q) == pytest.approx(want)
        assert snap.p50_ms <= snap.p99_ms <= snap.p999_ms

    def test_empty_samples_are_zero_and_silent_in_summary(self):
        snap = self._snap((), requests=5, completed=5, total_latency_s=0.1)
        assert snap.p50_ms == snap.p99_ms == snap.p999_ms == 0.0
        assert "p99" not in snap.summary()
        loud = self._snap((0.01, 0.02))
        assert "p50=" in loud.summary() and "p999=" in loud.summary()

    def test_sum_concatenates_samples_not_sums_them(self):
        from repro.serve.stats import sum_stats

        a = self._snap((0.001,) * 50)
        b = self._snap((0.1,) * 50)
        total = sum_stats([a, b])
        assert len(total.latency_samples) == 100
        assert sorted(total.latency_samples) == sorted(a.latency_samples
                                                       + b.latency_samples)
        # the merged p50 sits between the two pools — a field-wise sum
        # would have produced a nonsense 101ms "percentile"
        assert a.p50_ms < total.p50_ms < b.p50_ms

    def test_merged_samples_are_capped_by_decimation(self):
        from repro.serve.stats import _MERGED_SAMPLE_CAP, sum_stats

        shards = [self._snap(tuple(np.full(6000, 0.01 * (i + 1))))
                  for i in range(4)]
        total = sum_stats(shards)
        assert 0 < len(total.latency_samples) <= _MERGED_SAMPLE_CAP
        # decimation is a stride over the concatenation: every survivor
        # is a real observation and every shard stays represented
        assert set(total.latency_samples) <= {0.01, 0.02, 0.03, 0.04}
        assert len(set(total.latency_samples)) == 4

    def test_batcher_ring_is_bounded_and_feeds_service_stats(self):
        from repro.serve import MicroBatcher

        class _Echo:
            def predict(self, X):
                return np.asarray(X)[:, 0]

        batcher = MicroBatcher(_Echo(), max_batch=4)
        try:
            tickets = [batcher.submit(np.array([float(i), 0.0]))
                       for i in range(64)]
            batcher.flush()
            for t in tickets:
                t.result(timeout=5.0)
            ring = batcher.latency_snapshot()
            assert 0 < len(ring) <= 2048
            assert all(s >= 0.0 for s in ring)
            assert batcher._latency_ring.maxlen == 2048
        finally:
            batcher.close()

    def test_cluster_rollup_carries_samples(self):
        from repro.serve import ClusterStats, GatewayStats

        gw0 = GatewayStats(per_name={"a": self._snap((0.01,) * 10)})
        gw1 = GatewayStats(per_name={"a": self._snap((0.03,) * 10)})
        cluster = ClusterStats(per_shard={0: gw0, 1: gw1})
        assert len(cluster.total.latency_samples) == 20
        assert cluster.total.p999_ms == pytest.approx(30.0)
        assert len(cluster.per_name["a"].latency_samples) == 20
