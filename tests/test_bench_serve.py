"""Pins ``paired_overhead``, the helper behind the serving planes' ≤5 %
overhead gates in ``benchmarks/bench_serve.py``, with fake replays timed
on a fake clock."""

import gc
import importlib.util
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_serve", Path(__file__).resolve().parents[1] / "benchmarks" / "bench_serve.py")
bench_serve = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_serve)

pytestmark = pytest.mark.serve

REFERENCE = np.array([0.5, 1.5, 2.5])


class FakeClock:
    def __init__(self):
        self.now = 0.0
        self.gc_enabled_in_runs: list[bool] = []

    def __call__(self) -> float:
        return self.now

    def replay(self, seconds, out=REFERENCE):
        """A replay whose n-th run takes ``seconds[n]`` on this clock."""
        durations = iter(seconds)

        def run():
            self.gc_enabled_in_runs.append(gc.isenabled())
            self.now += next(durations)
            return out

        return lambda: nullcontext(run)


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(bench_serve, "perf_counter", fake)
    return fake


def overhead(plain, treated, repeats):
    return bench_serve.paired_overhead(
        plain, treated, REFERENCE, repeats=repeats, budget_pct=5.0, label="fake")


def test_the_median_pair_is_reported(clock):
    # per-pair overheads 10, 2, 0, 1, 30 %: the median is the 2.0 s pair,
    # though the per-side medians would be 1.0 s and 1.1 s
    plain = clock.replay([1.0, 2.0, 1.0, 1.0, 1.0])
    treated = clock.replay([1.1, 2.04, 1.0, 1.01, 1.3])
    pct, t_plain, t_treated, rounds = overhead(plain, treated, repeats=5)
    assert pct == pytest.approx(2.0)
    assert (t_plain, t_treated) == (pytest.approx(2.0), pytest.approx(2.04))
    assert rounds == 1
    assert clock.gc_enabled_in_runs == [False] * 10  # GC off inside every replay
    assert gc.isenabled()


def test_a_breaching_round_then_a_passing_round_passes(clock):
    plain = clock.replay([1.0] * 6)
    treated = clock.replay([1.2] * 3 + [1.01] * 3)
    pct, _, _, rounds = overhead(plain, treated, repeats=3)
    assert rounds == 2
    assert pct == pytest.approx(1.0)


def test_three_breaching_rounds_raise_naming_the_budget(clock):
    # exactly three rounds of replays: a fourth round would run dry
    plain = clock.replay([1.0] * 9)
    treated = clock.replay([1.06] * 9)
    with pytest.raises(RuntimeError,
                       match=r"fake overhead 6\.00% exceeds the 5\.0% budget \(3 rounds\)"):
        overhead(plain, treated, repeats=3)


def test_a_non_identical_replay_raises_inside_the_budget(clock):
    plain = clock.replay([1.0])
    treated = clock.replay([1.0], out=np.nextafter(REFERENCE, np.inf))  # one ulp off
    with pytest.raises(RuntimeError, match="fake: treated replay is not bit-identical"):
        overhead(plain, treated, repeats=5)
