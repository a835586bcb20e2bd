"""Microbenchmarks for the tree-ensemble perf kernels (packed vs. looped).

Times the two hot paths the perf layer replaced:

* **forest predict** — 200-tree packed-arena evaluation vs. the per-tree
  ``tree.predict`` loop on 20k rows (target: ≥ 3× and bit-identical), and
* **GBM fit** — histogram-subtraction vs. direct-histogram training at
  depth ≥ 8 (target: ≥ 1.3×, same tree structures).

Each run appends one entry to ``benchmarks/results/BENCH_kernels.json`` so
future PRs can track kernel regressions as a trajectory, and writes the
usual human-readable table next to it.  Runs standalone
(``python benchmarks/bench_perf_kernels.py``) or via an explicit pytest
path (``pytest benchmarks/bench_perf_kernels.py``).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.cli import record_trajectory_entry
from repro.ml.binning import QuantileBinner
from repro.ml.forest import RandomForestRegressor
from repro.ml.gbm import GradientBoostingRegressor

RESULTS_DIR = Path(__file__).parent / "results"

FOREST_TREES = 200
FOREST_TRAIN = 4_000
PREDICT_ROWS = 20_000
GBM_ROWS = 20_000
GBM_DEPTH = 8
GBM_TREES = 20
N_FEATURES = 20


def _timed(fn, reps=3):
    best = np.inf
    out = None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _synth(n, d, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, d))
    y = (
        np.sin(2 * X[:, 0])
        + 0.5 * X[:, 1] ** 2
        + X[:, 2] * X[:, 3]
        + 0.1 * rng.normal(0, 1, n)
    )
    return X, y


def bench_forest_predict() -> dict:
    """Packed arena vs. per-tree loop on a 200-tree forest, 20k rows."""
    X, y = _synth(FOREST_TRAIN, N_FEATURES, seed=0)
    forest = RandomForestRegressor(
        n_estimators=FOREST_TREES, max_depth=12, random_state=0
    ).fit(X, y)
    Xt, _ = _synth(PREDICT_ROWS, N_FEATURES, seed=99)
    codes = forest.binner_.transform(np.asarray(Xt, dtype=float))

    t_loop, mat_loop = _timed(lambda: np.stack([t.predict(codes) for t in forest.trees_]))
    pack = forest._ensure_pack()
    t_pack, mat_pack = _timed(lambda: pack.predict_matrix(codes))
    assert np.array_equal(mat_loop, mat_pack), "packed forest is not bit-identical"

    return {
        "n_trees": FOREST_TREES,
        "n_rows": PREDICT_ROWS,
        "arena_nodes": pack.n_nodes,
        "arena_depth": pack.max_depth,
        "looped_s": round(t_loop, 4),
        "packed_s": round(t_pack, 4),
        "speedup": round(t_loop / t_pack, 2),
    }


def bench_gbm_fit() -> dict:
    """Histogram subtraction vs. direct histograms, depth-8 GBM on 20k rows."""
    X, y = _synth(GBM_ROWS, N_FEATURES, seed=1)
    # freeze + prime the identity-keyed binning cache (the sweep-path
    # contract) so both variants time only tree growth
    X.setflags(write=False)
    QuantileBinner(64).fit_transform(X)
    times = {False: np.inf, True: np.inf}
    models = {}
    for _rep in range(2):  # best-of-2, interleaved to even out machine noise
        for sub in (False, True):
            m = GradientBoostingRegressor(
                n_estimators=GBM_TREES,
                max_depth=GBM_DEPTH,
                min_child_weight=3.0,
                loss="squared",
                hist_subtraction=sub,
            )
            t0 = time.perf_counter()
            m.fit(X, y)
            times[sub] = min(times[sub], time.perf_counter() - t0)
            models[sub] = m
    for t_sub, t_ref in zip(models[True].trees_, models[False].trees_):
        assert np.array_equal(t_sub.nodes_.feature, t_ref.nodes_.feature)

    return {
        "n_rows": GBM_ROWS,
        "max_depth": GBM_DEPTH,
        "n_estimators": GBM_TREES,
        "full_hist_s": round(times[False], 4),
        "subtraction_s": round(times[True], 4),
        "speedup": round(times[False] / times[True], 2),
    }


def run() -> dict:
    entry = {
        "forest_predict": bench_forest_predict(),
        "gbm_fit": bench_gbm_fit(),
    }
    record_trajectory_entry(entry, RESULTS_DIR, filename="BENCH_kernels.json")

    fp, gf = entry["forest_predict"], entry["gbm_fit"]
    table = "\n".join(
        [
            "PERF KERNELS (packed vs. looped / subtraction vs. full)",
            f"forest predict {fp['n_trees']} trees x {fp['n_rows']} rows: "
            f"{fp['looped_s']:.3f}s -> {fp['packed_s']:.3f}s ({fp['speedup']:.2f}x)",
            f"gbm fit depth {gf['max_depth']} x {gf['n_estimators']} trees: "
            f"{gf['full_hist_s']:.3f}s -> {gf['subtraction_s']:.3f}s ({gf['speedup']:.2f}x)",
        ]
    )
    print("\n" + table)
    (RESULTS_DIR / "perf_kernels.txt").write_text(table + "\n")
    return entry


def test_perf_kernels():
    entry = run()
    assert entry["forest_predict"]["speedup"] >= 3.0
    assert entry["gbm_fit"]["speedup"] >= 1.3


if __name__ == "__main__":
    print(json.dumps(run(), indent=2))
