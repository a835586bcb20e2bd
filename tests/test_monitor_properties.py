"""Property suite for the windowed drift scorer + monitoring soak test.

The stream profile runs unattended against whatever feature stream a
deployment produces, so its invariants must hold for *arbitrary* row
sequences, not just friendly ones:

* windowed PSI is non-negative for any reference/window pair (each
  epsilon-floored term ``(q - p)·ln(q/p)`` has matching signs),
* a window that replays the reference exactly scores PSI == 0 on every
  feature — including constant features (the degenerate-binning
  regression of PR 5),
* the ring buffer clamps at its capacity and keeps exactly the most
  recent rows in arrival order, whatever mix of single rows and blocks
  arrives,
* the whole pipeline — windowed scores, policy decisions, event log — is
  a pure function of the observed sequence under an injected clock.

The closing soak drives a *monitored* gateway under threaded traffic and
promote/rollback churn and asserts the serve layer's load-bearing
invariant end to end: the monitor is observational, so every answer is
bit-identical to an unmonitored gateway's.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.forest import RandomForestRegressor
from repro.serve import (
    ModelRegistry,
    MonitoringPlane,
    PsiThresholdRule,
    ServingGateway,
    StreamProfile,
)
from repro.stats.drift import ReferenceBinning, population_stability_index

pytestmark = [pytest.mark.serve, pytest.mark.monitor]


# ---------------------------------------------------------------------- #
# strategies
# ---------------------------------------------------------------------- #
finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, width=32)


@st.composite
def reference_and_window(draw):
    d = draw(st.integers(1, 4))
    n_ref = draw(st.integers(10, 40))
    n_cur = draw(st.integers(1, 40))
    ref = draw(
        st.lists(st.lists(finite, min_size=d, max_size=d),
                 min_size=n_ref, max_size=n_ref)
    )
    cur = draw(
        st.lists(st.lists(finite, min_size=d, max_size=d),
                 min_size=n_cur, max_size=n_cur)
    )
    return np.array(ref, dtype=float), np.array(cur, dtype=float)


# ---------------------------------------------------------------------- #
# PSI properties
# ---------------------------------------------------------------------- #
class TestWindowedPsiProperties:
    @given(reference_and_window())
    @settings(max_examples=60, deadline=None)
    def test_psi_non_negative(self, data):
        ref, cur = data
        psi = ReferenceBinning(ref).psi(cur)
        assert np.all(psi >= 0.0)

    @given(reference_and_window())
    @settings(max_examples=60, deadline=None)
    def test_online_matches_offline_scorer(self, data):
        ref, cur = data
        online = ReferenceBinning(ref).psi(cur)
        offline = np.array([
            population_stability_index(ref[:, j], cur[:, j])
            for j in range(ref.shape[1])
        ])
        assert np.array_equal(online, offline)

    @given(st.integers(10, 60), st.integers(1, 4),
           st.floats(-1e3, 1e3, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_identical_window_psi_zero_even_with_constant_column(
        self, n, d, const
    ):
        rng = np.random.default_rng(n * 7 + d)
        ref = rng.normal(0, 1, (n, d))
        ref[:, 0] = const  # degenerate column: every decile edge collapses
        prof = StreamProfile(ref, window=n, min_window=1)
        prof.observe(ref)
        report = prof.drift(ks=True)
        assert np.all(report.psi == 0.0)
        assert np.all(report.ks == 0.0)

    @given(st.floats(-1e3, 1e3, allow_nan=False), st.integers(10, 50))
    @settings(max_examples=40, deadline=None)
    def test_constant_reference_tolerates_float_jitter(self, const, n):
        # the PR 5 degenerate-binning regression, property form: float
        # noise around a constant reference is NOT drift
        ref = np.full(n, const)
        jittered = ref + 1e-12 * np.abs(const if const else 1.0)
        assert population_stability_index(ref, jittered) < 0.1


# ---------------------------------------------------------------------- #
# ring-window properties
# ---------------------------------------------------------------------- #
class TestWindowClampProperties:
    @given(
        st.integers(1, 32),                          # window capacity
        st.lists(st.integers(1, 7), min_size=1, max_size=30),  # block sizes
    )
    @settings(max_examples=60, deadline=None)
    def test_window_is_exactly_the_most_recent_rows(self, window, blocks):
        d = 3
        ref = np.arange(30.0)[:, None] * np.ones(d)
        prof = StreamProfile(ref, window=window, min_window=1)
        sent: list[np.ndarray] = []
        counter = 0
        for m in blocks:
            block = np.full((m, d), 0.0) + np.arange(counter, counter + m)[:, None]
            counter += m
            sent.append(block)
            prof.observe(block if m > 1 else block[0])
        all_rows = np.vstack(sent)
        expect = all_rows[-window:]
        assert prof.n_observed == counter
        assert prof.window_fill == min(counter, window)
        assert np.array_equal(prof.window(), expect)


# ---------------------------------------------------------------------- #
# determinism under an injected clock
# ---------------------------------------------------------------------- #
class TestDeterminism:
    @given(st.lists(st.integers(0, 3), min_size=20, max_size=80))
    @settings(max_examples=20, deadline=None)
    def test_trajectory_is_a_pure_function_of_the_stream(self, choices):
        rng = np.random.default_rng(42)
        ref = rng.normal(0, 1, (120, 3))
        shifted = rng.normal(0, 1, (4, 3)) * 3.0 + 2.0  # four drifted shapes

        def run():
            reg = ModelRegistry()
            model = RandomForestRegressor(n_estimators=3, max_depth=3,
                                          random_state=0).fit(ref, ref[:, 0])
            v1 = reg.register("m", model, promote=True)
            reg.register("m", model.truncated(2))
            reg.promote("m", 2)
            clock = [0.0]
            plane = MonitoringPlane(reg, clock=lambda: clock[0], window=32,
                                    min_window=16, eval_every=8, cooldown_s=5.0)
            plane.watch("m", reference=ref)
            plane.add_rule(PsiThresholdRule(threshold=0.5, action="rollback"))
            for i, c in enumerate(choices):
                clock[0] = float(i)
                plane.on_request("m", shifted[c], "predict")
            return (
                [(e.at, e.rule, e.action, e.value) for e in plane.events],
                plane.status()["m"],
                reg.production_version("m"),
            )

        assert run() == run()


# ---------------------------------------------------------------------- #
# soak: monitored serving stays bit-identical under churn
# ---------------------------------------------------------------------- #
class TestMonitoredSoak:
    def test_bit_identity_under_promote_rollback_churn(self):
        rng = np.random.default_rng(11)
        X = rng.normal(0, 1, (300, 5))
        y = 2 * X[:, 0] + X[:, 1] * X[:, 2] + 0.05 * rng.normal(0, 1, 300)
        m1 = RandomForestRegressor(n_estimators=15, max_depth=6,
                                   random_state=0).fit(X, y)
        m2 = RandomForestRegressor(n_estimators=15, max_depth=6,
                                   random_state=1).fit(X, y)
        rows = rng.normal(0, 1, (240, 5))

        def serve_stream(monitored: bool) -> dict[int, float]:
            """Replay the same churn schedule; map row index -> answer."""
            reg = ModelRegistry()
            v1 = reg.register("m", m1, promote=True)
            v2 = reg.register("m", m2)
            plane = None
            results: dict[int, float] = {}
            lock = threading.Lock()
            with ServingGateway(reg, max_batch=16) as gw:
                if monitored:
                    plane = MonitoringPlane(reg, window=64, min_window=32,
                                            eval_every=16, cooldown_s=1e9)
                    plane.watch("m", reference=X)
                    # alert-only: the policy must OBSERVE the churn, never
                    # steer it (the churn schedule is the test's to control)
                    plane.add_rule(PsiThresholdRule(threshold=1e9,
                                                    action="alert"))
                    plane.attach(gw)
                errors: list[Exception] = []

                # deterministic interleaving: three fixed row shards, and
                # a barrier on each side of every stage change
                barrier = threading.Barrier(4)
                shards = np.array_split(np.arange(len(rows)), 3)

                def pump(idx: np.ndarray) -> None:
                    try:
                        for stage in range(4):
                            part = idx[stage::4]
                            for i in part:
                                # versioned answers: record with the index so
                                # the two runs compare row-for-row
                                results_i = gw.predict("m", rows[i], timeout=10.0)
                                with lock:
                                    results[int(i)] = results_i
                            barrier.wait(timeout=30.0)
                            if stage < 3:
                                # main's stage change happens-before the
                                # next stage's first submit
                                barrier.wait(timeout=30.0)
                    except Exception as exc:  # pragma: no cover - fails the test
                        errors.append(exc)

                threads = [threading.Thread(target=pump, args=(s,)) for s in shards]
                for t in threads:
                    t.start()
                # churn between barrier stages: the same schedule each run
                for stage, action in enumerate(("promote", "rollback", "promote")):
                    barrier.wait(timeout=30.0)
                    if action == "promote":
                        reg.promote("m", v2)
                    else:
                        reg.rollback("m")
                    barrier.wait(timeout=30.0)  # release the next stage
                barrier.wait(timeout=30.0)
                for t in threads:
                    t.join(timeout=30.0)
                assert not errors, errors
                if monitored:
                    assert gw.tap_errors == 0
                    assert plane.status()["m"]["n_observed"] == len(rows)
            return results

        # barriers pin which version serves each stage, so the two runs are
        # comparable row-for-row despite threading
        plain = serve_stream(monitored=False)
        monitored = serve_stream(monitored=True)
        assert plain.keys() == monitored.keys()
        mismatches = [i for i in plain if plain[i] != monitored[i]]
        assert mismatches == []
