"""Equivalence suite for the packed-forest engine and the training kernels.

The perf layer's contract is that none of it changes any number:

* :class:`~repro.ml.predictor.PackedForest` must reproduce the per-tree
  prediction loop **bit-for-bit** (``np.array_equal`` on float64),
* histogram subtraction must grow the same trees as the direct histogram
  path, and
* the binning cache and parallel tree training must be invisible.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.binning import SMALL_BLOCK_ROWS, QuantileBinner
from repro.ml.forest import RandomForestRegressor
from repro.ml.gbm import GradientBoostingRegressor
from repro.ml.predictor import PackedForest
from repro.ml.tree import BinnedTree


def _data(n=1500, d=8, seed=7):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, d))
    y = (
        np.sin(2 * X[:, 0])
        + 0.5 * X[:, 1] ** 2
        + X[:, 2] * X[:, 3]
        + 0.05 * rng.normal(0, 1, n)
    )
    return X, y


@pytest.fixture(scope="module")
def data():
    return _data()


@pytest.fixture(scope="module")
def gbm(data):
    X, y = data
    return GradientBoostingRegressor(n_estimators=30, max_depth=5, loss="squared").fit(X, y)


@pytest.fixture(scope="module")
def forest(data):
    X, y = data
    return RandomForestRegressor(n_estimators=40, max_depth=10, random_state=3).fit(X, y)


class TestPackedForestEquivalence:
    def test_gbm_predict_bitwise(self, data, gbm):
        X, _ = data
        Xt = np.random.default_rng(1).normal(0, 1, (400, X.shape[1]))
        codes = gbm.binner_.transform(np.asarray(Xt, dtype=float))
        ref = np.full(Xt.shape[0], gbm.base_score_)
        for tree in gbm.trees_:
            ref += gbm.learning_rate * tree.predict(codes)
        assert np.array_equal(gbm.predict(Xt), ref)

    def test_gbm_staged_predict_bitwise(self, data, gbm):
        X, _ = data
        Xt = X[:300]
        codes = gbm.binner_.transform(np.asarray(Xt, dtype=float))
        staged = gbm.staged_predict(Xt)
        pred = np.full(Xt.shape[0], gbm.base_score_)
        ref = np.empty((len(gbm.trees_), Xt.shape[0]))
        for i, tree in enumerate(gbm.trees_):
            pred = pred + gbm.learning_rate * tree.predict(codes)
            ref[i] = pred
        assert np.array_equal(staged, ref)
        assert np.array_equal(staged[-1], gbm.predict(Xt))

    def test_forest_matrix_bitwise(self, data, forest):
        X, _ = data
        Xt = np.random.default_rng(2).normal(0, 1, (350, X.shape[1]))
        codes = forest.binner_.transform(np.asarray(Xt, dtype=float))
        ref = np.stack([tree.predict(codes) for tree in forest.trees_])
        assert np.array_equal(forest._tree_matrix(Xt), ref)

    def test_forest_predict_dist_bitwise(self, data, forest):
        X, _ = data
        Xt = X[:250]
        codes = forest.binner_.transform(np.asarray(Xt, dtype=float))
        ref = np.stack([tree.predict(codes) for tree in forest.trees_])
        mean, var = forest.predict_dist(Xt)
        assert np.array_equal(mean, ref.mean(axis=0))
        assert np.array_equal(var, ref.var(axis=0))
        assert np.array_equal(forest.predict(Xt), ref.mean(axis=0))

    def test_pack_matrix_matches_tree_loop(self, data):
        """Direct PackedForest vs BinnedTree.predict, incl. stumps."""
        X, y = data
        codes = QuantileBinner(32).fit_transform(X)
        trees = [
            BinnedTree(max_depth=depth, min_child_weight=2.0).fit(codes, -y)
            for depth in (0, 1, 4, 9)
        ]
        pack = PackedForest.from_trees(trees)
        mat = pack.predict_matrix(codes)
        for i, tree in enumerate(trees):
            assert np.array_equal(mat[i], tree.predict(codes))

    def test_predict_matrix_many_bitwise(self, data, forest):
        """Batch-of-batches: split results equal per-block arena calls."""
        X, _ = data
        codes = forest.binner_.transform(np.asarray(X, dtype=float))
        pack = forest._ensure_pack()
        bounds = [0, 1, 4, 100, 101, 230]
        blocks = [codes[s:e] for s, e in zip(bounds[:-1], bounds[1:])]
        many = pack.predict_matrix_many(blocks)
        assert len(many) == len(blocks)
        for block, mat in zip(blocks, many):
            assert np.array_equal(mat, pack.predict_matrix(block))
        assert pack.predict_matrix_many([]) == []

    def test_predict_many_bitwise(self, data, gbm, forest):
        """Estimator-level batch-of-batches equals per-block predicts."""
        X, _ = data
        blocks = [X[:1], X[1:4], X[4:60], X[60:61]]
        for out, block in zip(gbm.predict_many(blocks), blocks):
            assert np.array_equal(out, gbm.predict(block))
        for out, block in zip(forest.predict_many(blocks), blocks):
            assert np.array_equal(out, forest.predict(block))
        for (m, v), block in zip(forest.predict_dist_many(blocks), blocks):
            ref_m, ref_v = forest.predict_dist(block)
            assert np.array_equal(m, ref_m)
            assert np.array_equal(v, ref_v)

    def test_empty_pack(self):
        pack = PackedForest.from_trees([])
        assert pack.n_trees == 0 and pack.max_depth == 0
        assert pack.predict_matrix(np.zeros((5, 3), dtype=np.uint8)).shape == (0, 5)

    def test_unfitted_tree_rejected(self):
        with pytest.raises(RuntimeError):
            PackedForest.from_trees([BinnedTree()])


def _loop_codes(binner, X):
    """Reference binning: one ``searchsorted`` per column."""
    X = np.asarray(X, dtype=float)
    return np.stack(
        [np.searchsorted(e, X[:, f], side="left") for f, e in enumerate(binner.edges_)],
        axis=1,
    ).astype(np.uint8)


def _awkward_rows(model, n, seed):
    """``n`` query rows with NaN, ±inf, ±0.0, values equal to an edge and
    values beyond the top edge spread across the columns."""
    rng = np.random.default_rng(seed)
    edges = model.binner_.edges_
    Q = rng.normal(0, 1, (n, len(edges)))
    for i in range(n):
        f = i % len(edges)
        Q[i, f] = (np.nan, np.inf, -np.inf, -0.0, edges[f][len(edges[f]) // 2],
                   edges[f][-1], edges[f][-1] + 1.0)[i % 7]
        Q[i, (f + 3) % len(edges)] = (np.nan, 1e300, -0.0)[i % 3]
    return Q


@pytest.mark.parametrize("n", [1, 8, SMALL_BLOCK_ROWS - 1, SMALL_BLOCK_ROWS, SMALL_BLOCK_ROWS + 1])
class TestServingSizeBitIdentity:
    """Flush-sized calls (the small-block binning and accumulation paths)
    equal the per-tree loop over reference-binned codes, bit for bit."""

    def test_gbm(self, gbm, n):
        gbm._ensure_pack()  # the registry's pre-warm
        Q = _awkward_rows(gbm, n, seed=n)
        codes = _loop_codes(gbm.binner_, Q)
        ref = np.full(n, gbm.base_score_)
        for tree in gbm.trees_:
            ref += gbm.learning_rate * tree.predict(codes)
        assert np.array_equal(gbm.predict(Q), ref)
        rows = [Q[i : i + 1] for i in range(n)]
        for out, row in zip(gbm.predict_many(rows), rows):
            assert np.array_equal(out, gbm.predict(row))

    def test_forest(self, forest, n):
        forest._ensure_pack()
        Q = _awkward_rows(forest, n, seed=100 + n)
        mat = np.stack([t.predict(_loop_codes(forest.binner_, Q)) for t in forest.trees_])
        assert np.array_equal(forest.predict(Q), mat.mean(axis=0))
        mean, var = forest.predict_dist(Q)
        assert np.array_equal(mean, mat.mean(axis=0))
        assert np.array_equal(var, mat.var(axis=0))
        rows = [Q[i : i + 1] for i in range(n)]
        for out, row in zip(forest.predict_many(rows), rows):
            assert np.array_equal(out, forest.predict(row))
            row_mat = np.stack([t.predict(_loop_codes(forest.binner_, row)) for t in forest.trees_])
            assert np.array_equal(out, row_mat.mean(axis=0))
        for (m, v), row in zip(forest.predict_dist_many(rows), rows):
            ref_m, ref_v = forest.predict_dist(row)
            assert np.array_equal(m, ref_m) and np.array_equal(v, ref_v)


class TestPackedLayoutDtypes:
    def test_tree_nodes_small_dtypes(self, data):
        X, y = data
        codes = QuantileBinner(64).fit_transform(X)
        nd = BinnedTree(max_depth=6, min_child_weight=2.0).fit(codes, -y).nodes_
        assert nd.threshold.dtype == np.uint8
        assert nd.feature.dtype == np.int32
        assert nd.left.dtype == np.int32
        assert nd.right.dtype == np.int32
        assert nd.value.dtype == np.float64
        internal = nd.feature >= 0
        assert np.array_equal(nd.right[internal], nd.left[internal] + 1)

    def test_arena_small_dtypes(self, forest):
        pack = forest._ensure_pack()
        assert pack.threshold.dtype == np.uint8
        assert pack.feature.dtype == np.int32
        assert pack.left.dtype == np.int32
        assert pack.roots.dtype == np.int32
        assert pack.value.dtype == np.float64
        # leaves self-loop with an always-false test (codes are < 255)
        leaf = pack.left == np.arange(pack.n_nodes, dtype=np.int32)
        assert np.all(pack.threshold[leaf] == 255)

    def test_arena_depth_is_actual_depth(self, data):
        X, y = data
        codes = QuantileBinner(32).fit_transform(X)
        tree = BinnedTree(max_depth=12, min_child_weight=200.0).fit(codes, -y)
        pack = PackedForest.from_trees([tree])
        assert pack.max_depth == tree.nodes_.depth
        assert pack.max_depth < 12  # min_child_weight stops growth early


class TestArenaInvariantProperties:
    """Property-based sweep of the layout invariants the arena relies on.

    Randomized fitted ensembles (hyperparameters drawn by hypothesis) must
    always satisfy: adjacent children (``right == left + 1``), self-looping
    leaves with an always-false test (``left = self``, ``threshold = 255``),
    and binned codes strictly below 255 — the three facts that make the
    branch-free depth loop correct.
    """

    @staticmethod
    def _random_model(kind, seed, depth, n_trees, mcw):
        rng = np.random.default_rng(seed)
        X = rng.normal(0, 1, (180, 4))
        y = np.sin(X[:, 0]) + X[:, 1] * X[:, 2] + 0.1 * rng.normal(0, 1, 180)
        if kind == "gbm":
            model = GradientBoostingRegressor(
                n_estimators=n_trees, max_depth=depth, min_child_weight=mcw,
                subsample=0.8, colsample_bytree=0.8, loss="squared",
                random_state=seed,
            )
        else:
            model = RandomForestRegressor(
                n_estimators=n_trees, max_depth=depth, min_child_weight=mcw,
                random_state=seed,
            )
        return model.fit(X, y), X

    @settings(deadline=None, max_examples=12)
    @given(
        kind=st.sampled_from(["gbm", "forest"]),
        seed=st.integers(0, 2**16),
        depth=st.integers(0, 8),
        n_trees=st.integers(1, 8),
        mcw=st.floats(1.0, 40.0),
    )
    def test_arena_invariants_hold_for_random_ensembles(self, kind, seed, depth, n_trees, mcw):
        model, X = self._random_model(kind, seed, depth, n_trees, mcw)
        # per-tree layout: children are always appended adjacently
        for tree in model.trees_:
            nd = tree.nodes_
            internal = nd.feature >= 0
            assert np.array_equal(nd.right[internal], nd.left[internal] + 1)
            assert np.all(nd.left[internal] > np.flatnonzero(internal))  # parents precede children
        # binned codes stay < 255 so the uint8-255 leaf sentinel is unreachable
        codes = model.binner_.transform(np.asarray(X, dtype=float))
        assert codes.max(initial=0) < 255
        # arena rewrite: leaves self-loop with the always-false split test
        pack = model._ensure_pack()
        idx = np.arange(pack.n_nodes, dtype=np.int32)
        leaf = pack.left == idx
        assert np.all(pack.threshold[leaf] == 255)
        assert np.all(pack.feature[leaf] == 0)
        assert leaf.sum() == sum(t.nodes_.n_leaves for t in model.trees_)
        # internal arena nodes point strictly forward, inside the arena
        assert np.all(pack.left[~leaf] > idx[~leaf])
        assert np.all(pack.left < pack.n_nodes)
        assert np.array_equal(np.sort(pack.roots), pack.roots)
        # and the packed matrix still matches the per-tree loop bit-for-bit
        mat = pack.predict_matrix(codes)
        for i, tree in enumerate(model.trees_):
            assert np.array_equal(mat[i], tree.predict(codes))

    @settings(deadline=None, max_examples=8)
    @given(seed=st.integers(0, 2**16), n_keep=st.integers(0, 10))
    def test_pack_invalidated_on_truncation(self, seed, n_keep):
        """Dropping trees must invalidate the lazy pack, not serve stale trees."""
        model, X = self._random_model("gbm", seed, depth=3, n_trees=10, mcw=2.0)
        model.predict(X[:20])  # builds the 10-tree pack
        model.trees_ = model.trees_[:n_keep]  # early-stop style truncation
        codes = model.binner_.transform(np.asarray(X[:40], dtype=float))
        ref = np.full(40, model.base_score_)
        for tree in model.trees_:
            ref += model.learning_rate * tree.predict(codes)
        assert np.array_equal(model.predict(X[:40]), ref)
        assert model._pack.n_trees == n_keep

    @settings(deadline=None, max_examples=6)
    @given(seed=st.integers(0, 2**16))
    def test_pack_invalidated_on_refit(self, seed):
        """A refit on different data must rebuild the arena from scratch."""
        model, X = self._random_model("gbm", seed, depth=3, n_trees=5, mcw=2.0)
        model.predict(X[:10])
        stale_pack = model._pack
        rng = np.random.default_rng(seed + 1)
        X2 = rng.normal(0, 1, (150, 4))
        y2 = X2[:, 0] ** 2 + 0.1 * rng.normal(0, 1, 150)
        model.fit(X2, y2)
        pred = model.predict(X2[:30])
        assert model._pack is not stale_pack
        fresh = GradientBoostingRegressor(
            n_estimators=5, max_depth=3, min_child_weight=2.0,
            subsample=0.8, colsample_bytree=0.8, loss="squared",
            random_state=seed,
        ).fit(X2, y2)
        assert np.array_equal(pred, fresh.predict(X2[:30]))


class TestHistogramSubtraction:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("unit_hess", [True, False])
    def test_tree_structure_identity(self, seed, unit_hess):
        """Subtraction-derived histograms grow the same trees as direct ones."""
        rng = np.random.default_rng(seed)
        X = rng.normal(0, 1, (1200, 8))
        y = np.sin(X[:, 0]) + X[:, 1] * X[:, 2] + 0.5 * X[:, 3] + rng.normal(0, 0.1, 1200)
        codes = QuantileBinner(32).fit_transform(X)
        hess = None if unit_hess else np.abs(y) + 0.5
        kw = dict(max_depth=9, min_child_weight=5.0)
        t_sub = BinnedTree(hist_subtraction=True, **kw).fit(codes, -y, hess)
        t_ref = BinnedTree(hist_subtraction=False, **kw).fit(codes, -y, hess)
        assert np.array_equal(t_sub.nodes_.feature, t_ref.nodes_.feature)
        assert np.array_equal(t_sub.nodes_.threshold, t_ref.nodes_.threshold)
        assert np.array_equal(t_sub.nodes_.left, t_ref.nodes_.left)
        assert np.array_equal(t_sub.nodes_.right, t_ref.nodes_.right)
        np.testing.assert_allclose(t_sub.nodes_.value, t_ref.nodes_.value, rtol=1e-8, atol=1e-12)

    @pytest.mark.parametrize("loss", ["squared", "huber", "quantile"])
    def test_gbm_losses_equivalent(self, data, loss):
        """Full-model check across losses: same structures, ~same predictions."""
        X, y = data
        kw = dict(n_estimators=12, max_depth=8, min_child_weight=5.0, loss=loss)
        m_sub = GradientBoostingRegressor(hist_subtraction=True, **kw).fit(X, y)
        m_ref = GradientBoostingRegressor(hist_subtraction=False, **kw).fit(X, y)
        for t_sub, t_ref in zip(m_sub.trees_, m_ref.trees_):
            assert np.array_equal(t_sub.nodes_.feature, t_ref.nodes_.feature)
            assert np.array_equal(t_sub.nodes_.threshold, t_ref.nodes_.threshold)
        np.testing.assert_allclose(m_sub.predict(X[:200]), m_ref.predict(X[:200]), rtol=1e-9)


class TestEarlyStoppingCurves:
    def test_curves_truncated_with_trees(self, data):
        X, y = data
        m = GradientBoostingRegressor(
            n_estimators=200, max_depth=3, learning_rate=0.5,
            early_stopping_rounds=5, loss="squared",
        )
        m.fit(X[:800], y[:800], eval_set=(X[800:], y[800:]))
        assert len(m.trees_) < 200
        assert len(m.train_curve_) == len(m.trees_)
        assert len(m.eval_curve_) == len(m.trees_)
        # the retained eval curve ends at its minimum (the rolled-back best)
        assert m.eval_curve_[-1] == min(m.eval_curve_)


def _frozen(X):
    X = np.asarray(X, dtype=float)
    X.setflags(write=False)
    return X


class TestBinningCache:
    def test_fit_transform_cached_on_frozen_identity(self):
        X = _frozen(np.random.default_rng(0).normal(0, 1, (300, 4)))
        c1 = QuantileBinner(32).fit_transform(X)
        c2 = QuantileBinner(32).fit_transform(X)
        assert c1 is c2  # same array object: binned once
        assert not c1.flags.writeable

    def test_writable_arrays_never_cached(self):
        """Mutable inputs must be re-binned: in-place edits (e.g. permutation
        importance shuffling a column) must be visible to the next predict."""
        X = np.random.default_rng(4).normal(0, 1, (300, 4))
        binner = QuantileBinner(32)
        c1 = binner.fit_transform(X)
        assert c1.flags.writeable  # fresh, caller-owned
        X[:, 2] = X[::-1, 2].copy()
        c2 = binner.fit(X).transform(X)
        assert c2 is not c1
        assert not np.array_equal(c2[:, 2], c1[:, 2])

    def test_readonly_view_of_writable_base_not_cached(self):
        """writeable=False on a view is not immutability: the base can still
        change underneath, so such arrays must bypass the cache."""
        X = np.random.default_rng(5).normal(0, 1, (200, 3))
        v = X.view()
        v.setflags(write=False)
        c1 = QuantileBinner(16).fit_transform(v)
        X[:, 0] = -X[:, 0]
        c2 = QuantileBinner(16).fit_transform(v)
        assert c2 is not c1
        assert not np.array_equal(c1[:, 0], c2[:, 0])

    def test_permutation_importance_works_on_frozen_arrays(self):
        """The documented sweep opt-in (frozen X) must not break mutating
        consumers: permutation importance shuffles a private copy."""
        from repro.ml.importance import permutation_importance

        X = _frozen(np.random.default_rng(6).normal(0, 1, (400, 4)))
        y = X[:, 0] + 0.05 * np.random.default_rng(7).normal(0, 1, 400)
        m = GradientBoostingRegressor(n_estimators=25, max_depth=3, loss="squared").fit(X, y)
        imp = permutation_importance(m, X, y, n_repeats=2)
        assert imp[0] > max(imp[1:].max(), 0.0)
        assert not X.flags.writeable  # caller memory untouched

    def test_cache_keyed_on_bins_and_identity(self):
        X = _frozen(np.random.default_rng(1).normal(0, 1, (300, 4)))
        c32 = QuantileBinner(32).fit_transform(X)
        c16 = QuantileBinner(16).fit_transform(X)
        assert c16 is not c32
        X_copy = _frozen(X.copy())
        c_copy = QuantileBinner(32).fit_transform(X_copy)
        assert c_copy is not c32
        assert np.array_equal(c_copy, c32)  # equal content, recomputed

    def test_eval_transform_shares_edges(self):
        X = _frozen(np.random.default_rng(2).normal(0, 1, (300, 4)))
        Xe = _frozen(np.random.default_rng(3).normal(0, 1, (100, 4)))
        b1 = QuantileBinner(32).fit(X)
        b2 = QuantileBinner(32).fit(X)
        assert b1.edges_ is b2.edges_  # edge cache hit
        assert b1.transform(Xe) is b2.transform(Xe)  # code cache hit


class TestForestParallelTraining:
    def test_n_jobs_invariant(self, data):
        X, y = data
        kw = dict(n_estimators=20, max_depth=8, random_state=5)
        f1 = RandomForestRegressor(n_jobs=1, **kw).fit(X, y)
        f2 = RandomForestRegressor(n_jobs=4, **kw).fit(X, y)
        assert np.array_equal(f1.predict(X[:100]), f2.predict(X[:100]))
        assert f1.oob_mae_ == f2.oob_mae_
        assert np.array_equal(
            np.asarray(f1.oob_prediction_), np.asarray(f2.oob_prediction_), equal_nan=True
        )

    def test_oob_matches_per_tree_reference(self, data):
        """Vectorized OOB equals the old per-tree accumulation (allclose)."""
        X, y = data
        f = RandomForestRegressor(n_estimators=15, max_depth=8, random_state=2).fit(X, y)
        n = X.shape[0]
        codes = f.binner_.transform(np.asarray(X, dtype=float))
        # re-derive each tree's bootstrap rows from its spawned seed stream
        seeds = np.random.SeedSequence(f.random_state).spawn(f.n_estimators)
        oob_sum = np.zeros(n)
        oob_count = np.zeros(n)
        d = X.shape[1]
        n_feats = max(1, int(round(f.max_features * d)))
        for seed, tree in zip(seeds, f.trees_):
            rng = np.random.default_rng(seed)
            if n_feats < d:
                rng.choice(d, n_feats, replace=False)
            rows = rng.integers(0, n, n)
            in_bag = np.zeros(n, dtype=bool)
            in_bag[rows] = True
            out = ~in_bag
            oob_sum[out] += tree.predict(codes[out])
            oob_count[out] += 1
        seen = oob_count > 0
        ref = oob_sum[seen] / oob_count[seen]
        np.testing.assert_allclose(np.asarray(f.oob_prediction_)[seen], ref, rtol=1e-12)
