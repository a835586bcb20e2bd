"""Random-forest regression on binned trees (bagging substrate).

The I/O-modeling literature the paper surveys leans on tree ensembles
beyond boosting — random forests appear as baselines in Tuncer et al. and
in the regression studies of Xie et al.  This implementation reuses the
histogram :class:`~repro.ml.tree.BinnedTree` kernel: a plain regression
tree is the Newton tree fitted to ``grad = -y`` with unit hessians, whose
leaf value ``−G/(H+λ)`` is then the (λ-shrunk) leaf mean of ``y``.

Beyond point predictions the forest exposes

* out-of-bag (OOB) error — a free generalization estimate used by the
  model-zoo ablation bench, and
* per-sample tree-variance — a cheap disagreement signal contrasted with
  deep-ensemble epistemic uncertainty in the OoD-detector ablation.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.ml.base import BaseEstimator, clone
from repro.ml.binning import QuantileBinner
from repro.ml.predictor import CHUNK_PAIRS, PackedForest, concat_apply_split, ensure_pack
from repro.ml.tree import BinnedTree
from repro.parallel.pool import parallel_map
from repro.rng import generator_from

__all__ = ["RandomForestRegressor"]


def _fit_one_tree(
    seed: np.random.SeedSequence,
    codes: np.ndarray,
    y: np.ndarray,
    n_feats: int,
    bootstrap: bool,
    tree_params: dict,
) -> tuple[BinnedTree, np.ndarray | None, np.ndarray | None]:
    """Train one forest member from its own spawned seed stream.

    Module-level (not a closure) so the parallel path can ship it to
    worker processes; with the thread backend ``codes``/``y`` are shared.
    Returns the tree, its feature mask, and its in-bag membership packed
    to bits (n/8 bytes instead of an n-length index array) for the OOB
    pass.
    """
    rng = generator_from(seed)
    n, d = codes.shape
    mask = None
    if n_feats < d:
        mask = np.zeros(d, dtype=bool)
        mask[rng.choice(d, n_feats, replace=False)] = True
    if bootstrap:
        rows = rng.integers(0, n, n)
        in_bag = np.zeros(n, dtype=bool)
        in_bag[rows] = True
        bag_bits = np.packbits(in_bag)
    else:
        rows = np.arange(n)
        bag_bits = None
    tree = BinnedTree(**tree_params)
    # Newton tree on grad=-y, unit hessians ⇒ leaves are shrunk means
    tree.fit(codes[rows], -y[rows], None, mask)
    return tree, mask, bag_bits


def _tree_mean(mat: np.ndarray) -> np.ndarray:
    """``mat.mean(axis=0)`` bit for bit — NumPy's mean is exactly this
    ``add.reduce`` divided by the count — without ``mean``'s Python-level
    overhead, which ``predict_many`` pays once per request block."""
    return np.add.reduce(mat, axis=0) / mat.shape[0]


class RandomForestRegressor(BaseEstimator):
    """Bagged binned regression trees with per-tree feature subsampling.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth:
        Depth cap per tree (forests want deep trees; default 14).
    min_child_weight:
        Minimum samples per leaf (hessians are unit, so this is a count).
    max_features:
        Fraction of features drawn per tree, in (0, 1].  Forest convention
        is per-*split* sampling; per-tree sampling keeps the histogram
        kernel intact and decorrelates trees nearly as well at our
        dimensionality (d ≈ 50–130).
    bootstrap:
        Draw each tree's rows with replacement (classic bagging).  When
        false every tree sees all rows and only feature sampling
        decorrelates them.
    reg_lambda:
        Leaf-mean shrinkage (0 reproduces exact leaf means).
    n_bins:
        Histogram resolution shared by all trees.
    n_jobs:
        Worker count for tree training via :func:`repro.parallel.pool
        .parallel_map` (thread backend — the histogram kernels are NumPy
        bound).  Every tree draws from its own ``SeedSequence``-spawned
        stream, so results are identical for any ``n_jobs``.

    Prediction packs all trees into a :class:`~repro.ml.predictor
    .PackedForest` (built lazily at first use) and evaluates the whole
    ensemble in one vectorized pass; the per-tree matrix is bit-identical
    to looping ``tree.predict``.
    """

    def __init__(
        self,
        n_estimators: int = 200,
        max_depth: int = 14,
        min_child_weight: float = 3.0,
        max_features: float = 0.6,
        bootstrap: bool = True,
        reg_lambda: float = 0.0,
        n_bins: int = 64,
        n_jobs: int | None = 1,
        random_state: int = 0,
    ):
        if not 0.0 < max_features <= 1.0:
            raise ValueError("max_features must be in (0, 1]")
        self.n_estimators = int(n_estimators)
        self.max_depth = int(max_depth)
        self.min_child_weight = float(min_child_weight)
        self.max_features = float(max_features)
        self.bootstrap = bool(bootstrap)
        self.reg_lambda = float(reg_lambda)
        self.n_bins = int(n_bins)
        self.n_jobs = n_jobs
        self.random_state = int(random_state)

        self.binner_: QuantileBinner | None = None
        self.trees_: list[BinnedTree] = []
        self.feature_masks_: list[np.ndarray] = []
        self.oob_prediction_: np.ndarray | None = None
        self.oob_mae_: float | None = None
        self._pack: PackedForest | None = None

    def _ensure_pack(self) -> PackedForest:
        self._pack = ensure_pack(self._pack, self.trees_)
        if self.binner_ is not None:
            self.binner_.prepare()  # small-block lookup, frozen with the arena
        return self._pack

    # ------------------------------------------------------------------ #
    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y row counts differ")
        n, d = X.shape
        if n < 2:
            raise ValueError("need at least 2 samples")

        self.binner_ = QuantileBinner(self.n_bins)
        codes = self.binner_.fit_transform(X)  # identity-cached across sweeps
        n_feats = max(1, int(round(self.max_features * d)))
        self._pack = None

        # one independent child stream per tree: results do not depend on
        # training order, so any n_jobs produces identical forests
        seeds = np.random.SeedSequence(self.random_state).spawn(self.n_estimators)
        fit_one = partial(
            _fit_one_tree,
            codes=codes,
            y=y,
            n_feats=n_feats,
            bootstrap=self.bootstrap,
            tree_params=dict(
                max_depth=self.max_depth,
                min_child_weight=self.min_child_weight,
                reg_lambda=self.reg_lambda,
                n_bins=self.n_bins,
            ),
        )
        results = parallel_map(fit_one, seeds, workers=self.n_jobs, backend="thread")

        self.trees_ = [tree for tree, _, _ in results]
        self.feature_masks_ = [
            mask if mask is not None else np.ones(d, dtype=bool) for _, mask, _ in results
        ]

        self.oob_prediction_ = None
        self.oob_mae_ = None
        if self.bootstrap and self.trees_:
            # vectorized OOB pass, done once at the end: the packed matrix
            # gives every (tree, sample) prediction, and the bit-packed
            # in-bag masks unpack per sample block — peak memory stays
            # O(T·n/8 + T·block) instead of a full (T, n) float matrix
            T = len(self.trees_)
            pack = self._ensure_pack()
            bag_bits = np.stack([bits for _, _, bits in results])       # (T, ⌈n/8⌉)
            oob_sum = np.zeros(n)
            oob_count = np.zeros(n, dtype=np.int64)
            block = max(8, (CHUNK_PAIRS // T) & ~7)                     # byte-aligned
            for s in range(0, n, block):
                e = min(n, s + block)
                mat_b = pack.predict_matrix(codes[s:e])
                in_bag_b = np.unpackbits(
                    bag_bits[:, s // 8 : (e + 7) // 8], axis=1, count=e - s
                ).astype(bool)
                oob_b = ~in_bag_b
                oob_count[s:e] = oob_b.sum(axis=0)
                oob_sum[s:e] = np.sum(mat_b, axis=0, where=oob_b)
            seen = oob_count > 0
            if np.any(seen):
                oob = np.full(n, np.nan)
                oob[seen] = oob_sum[seen] / oob_count[seen]
                self.oob_prediction_ = oob
                self.oob_mae_ = float(np.mean(np.abs(oob[seen] - y[seen])))
        return self

    # ------------------------------------------------------------------ #
    def _tree_matrix(self, X: np.ndarray) -> np.ndarray:
        """(n_trees, n_samples) per-tree predictions (packed evaluation)."""
        if self.binner_ is None or not self.trees_:
            raise RuntimeError("predict called before fit")
        pack = self._ensure_pack()
        return pack.predict_matrix(self.binner_.transform(np.asarray(X, dtype=float)))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return _tree_mean(self._tree_matrix(X))

    def predict_dist(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(mean, across-tree variance) — tree disagreement as a UQ signal."""
        mat = self._tree_matrix(X)
        return _tree_mean(mat), mat.var(axis=0)

    def _tree_matrix_many(self, blocks: list[np.ndarray]) -> list[np.ndarray]:
        """Per-block (n_trees, m) matrices from one transform + arena pass."""
        return concat_apply_split(blocks, self._tree_matrix, axis=1)

    def predict_many(self, blocks: list[np.ndarray]) -> list[np.ndarray]:
        """Batch-of-batches: many small requests, one packed-arena pass.

        Transform, routing, and the across-tree reductions are all
        per-sample/per-column, so every returned vector is bit-identical
        to ``predict(block)`` — the contract the serving micro-batcher
        relies on.
        """
        return [_tree_mean(m) for m in self._tree_matrix_many(blocks)]

    def predict_dist_many(
        self, blocks: list[np.ndarray]
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Batched :meth:`predict_dist`, one arena pass for all blocks."""
        return [(_tree_mean(m), m.var(axis=0)) for m in self._tree_matrix_many(blocks)]

    def truncated(self, n_trees: int) -> "RandomForestRegressor":
        """A view keeping only the first ``n_trees`` members.

        Shares the binner and tree objects and *reuses* the packed arena
        (roots sliced, node arrays shared).  At least one tree must remain
        — a forest mean over zero trees is undefined (unlike a GBM, which
        falls back to its base score).  OOB statistics are not carried
        over — they describe the full ensemble, not the prefix.
        """
        if self.binner_ is None:
            raise RuntimeError("truncated called before fit")
        n_trees = int(n_trees)
        if not 1 <= n_trees <= len(self.trees_):
            raise ValueError(f"n_trees must be in [1, {len(self.trees_)}], got {n_trees}")
        out = clone(self, n_estimators=n_trees)
        out.binner_ = self.binner_
        out.trees_ = self.trees_[:n_trees]
        out.feature_masks_ = self.feature_masks_[:n_trees]
        out._pack = self._ensure_pack().truncated(n_trees)
        return out

    def feature_importances(self, n_features: int | None = None) -> np.ndarray:
        """Split-count importance, normalized to sum to one."""
        if not self.trees_:
            raise RuntimeError("feature_importances called before fit")
        if n_features is None:
            n_features = len(self.binner_.edges_) if self.binner_ else 0
        counts = np.zeros(int(n_features))
        for tree in self.trees_:
            nd = tree.nodes_
            internal = nd.feature[nd.feature >= 0]
            counts += np.bincount(internal, minlength=int(n_features))
        total = counts.sum()
        return counts / total if total > 0 else counts
