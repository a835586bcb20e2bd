"""Gradient boosting regressor — the XGBoost algorithm in pure NumPy.

Second-order boosting on squared loss with the histogram optimization:
features are quantile-binned once, each tree fits Newton steps to the
current residual gradients, and rows/columns can be subsampled per tree.
The four hyperparameters the paper sweeps exhaustively (§VI.B) map to
``n_estimators``, ``max_depth``, ``colsample_bytree``, ``subsample``.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, clone
from repro.ml.binning import SMALL_BLOCK_ROWS, QuantileBinner
from repro.ml.predictor import CHUNK_PAIRS, PackedForest, concat_apply_split, ensure_pack
from repro.ml.tree import BinnedTree
from repro.parallel.pool import parallel_map
from repro.rng import generator_from

__all__ = ["GradientBoostingRegressor"]


class GradientBoostingRegressor(BaseEstimator):
    """Histogram GBM with XGBoost-style regularized Newton boosting.

    Parameters
    ----------
    n_estimators, max_depth, learning_rate, reg_lambda, min_child_weight:
        Standard boosting controls.
    subsample, colsample_bytree:
        Per-tree row/column sampling fractions in (0, 1].
    n_bins:
        Histogram resolution (quantile bins, ≤ 255).
    loss:
        ``"squared"``, ``"huber"`` or ``"quantile"``.  The paper's objective
        (Eq. 6) is a mean *absolute* log ratio; Huber gradients resist the
        heavy error tails that service degradations put in the target (§V
        notes medians are used precisely because of those tails).  The
        pinball (``quantile``) loss fits a conditional quantile instead of
        the center — two quantile models bracket a per-job prediction
        interval, the model-side analogue of the §IX noise bands.
    huber_delta:
        Transition point of the Huber loss, in dex.
    quantile_alpha:
        Target quantile in (0, 1) for ``loss="quantile"`` (0.5 = median).
    early_stopping_rounds:
        If set and an eval set is supplied to :meth:`fit`, stop when eval
        MAE has not improved for that many rounds.
    hist_subtraction:
        Use the LightGBM-style sibling-histogram subtraction inside each
        tree fit (see :mod:`repro.ml.tree`); ``False`` restores the direct
        per-child histogram path (same trees up to float tie-breaking).

    Prediction goes through a :class:`~repro.ml.predictor.PackedForest`
    built lazily at the first :meth:`predict`/:meth:`staged_predict` call;
    outputs are bit-identical to the per-tree loop.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int = 6,
        learning_rate: float = 0.1,
        reg_lambda: float = 1.0,
        min_child_weight: float = 5.0,
        subsample: float = 1.0,
        colsample_bytree: float = 1.0,
        n_bins: int = 64,
        loss: str = "huber",
        huber_delta: float = 0.10,
        quantile_alpha: float = 0.5,
        early_stopping_rounds: int | None = None,
        hist_subtraction: bool = True,
        random_state: int = 0,
    ):
        if loss not in ("squared", "huber", "quantile"):
            raise ValueError("loss must be 'squared', 'huber' or 'quantile'")
        if not 0.0 < quantile_alpha < 1.0:
            raise ValueError("quantile_alpha must be in (0, 1)")
        self.n_estimators = int(n_estimators)
        self.max_depth = int(max_depth)
        self.learning_rate = float(learning_rate)
        self.reg_lambda = float(reg_lambda)
        self.min_child_weight = float(min_child_weight)
        self.subsample = float(subsample)
        self.colsample_bytree = float(colsample_bytree)
        self.n_bins = int(n_bins)
        self.loss = loss
        self.huber_delta = float(huber_delta)
        self.quantile_alpha = float(quantile_alpha)
        self.early_stopping_rounds = early_stopping_rounds
        self.hist_subtraction = bool(hist_subtraction)
        self.random_state = int(random_state)

        self.binner_: QuantileBinner | None = None
        self.trees_: list[BinnedTree] = []
        self.base_score_: float = 0.0
        self.train_curve_: list[float] = []
        self.eval_curve_: list[float] = []
        self._pack: PackedForest | None = None

    def _ensure_pack(self) -> PackedForest:
        """Build (or rebuild after truncation) the flat prediction arena,
        and the binner's small-block lookup with it."""
        self._pack = ensure_pack(self._pack, self.trees_)
        if self.binner_ is not None:
            self.binner_.prepare()
        return self._pack

    # ------------------------------------------------------------------ #
    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        eval_set: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> "GradientBoostingRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y row counts differ")
        if not 0.0 < self.subsample <= 1.0 or not 0.0 < self.colsample_bytree <= 1.0:
            raise ValueError("subsample and colsample_bytree must be in (0, 1]")
        rng = generator_from(self.random_state)

        self.binner_ = QuantileBinner(self.n_bins)
        codes = self.binner_.fit_transform(X)  # identity-cached across sweeps
        n, d = codes.shape
        self._pack = None

        if self.loss == "huber":
            self.base_score_ = float(np.median(y))
        elif self.loss == "quantile":
            self.base_score_ = float(np.quantile(y, self.quantile_alpha))
        else:
            self.base_score_ = float(np.mean(y))
        pred = np.full(n, self.base_score_)
        self.trees_ = []
        self.train_curve_ = []
        self.eval_curve_ = []

        if eval_set is not None:
            Xe, ye = eval_set
            codes_eval = self.binner_.transform(np.asarray(Xe, dtype=float))
            pred_eval = np.full(codes_eval.shape[0], self.base_score_)
            best_eval = np.inf
            best_round = 0

        n_cols = max(1, int(round(self.colsample_bytree * d)))
        n_rows = max(2, int(round(self.subsample * n)))

        for it in range(self.n_estimators):
            resid = pred - y
            if self.loss == "huber":
                # d/dpred of the Huber loss; hessians kept at 1 (upper bound)
                grad = np.clip(resid, -self.huber_delta, self.huber_delta)
            elif self.loss == "quantile":
                # pinball: d/dpred = 1-α above the target quantile, -α below;
                # scaled by huber_delta so step sizes match the other losses
                grad = np.where(resid > 0, 1.0 - self.quantile_alpha, -self.quantile_alpha)
                grad = grad * self.huber_delta * 2.0
            else:
                grad = resid  # d/dpred of 1/2 (pred-y)^2 ; unit hessians

            feature_mask = None
            if n_cols < d:
                feature_mask = np.zeros(d, dtype=bool)
                feature_mask[rng.choice(d, n_cols, replace=False)] = True

            tree = BinnedTree(
                max_depth=self.max_depth,
                min_child_weight=self.min_child_weight,
                reg_lambda=self.reg_lambda,
                n_bins=self.n_bins,
                hist_subtraction=self.hist_subtraction,
            )
            if n_rows < n:
                rows = rng.choice(n, n_rows, replace=False)
                tree.fit(codes[rows], grad[rows], None, feature_mask)
            else:
                tree.fit(codes, grad, None, feature_mask)

            update = tree.predict(codes)
            pred = pred + self.learning_rate * update
            self.trees_.append(tree)
            self.train_curve_.append(float(np.mean(np.abs(pred - y))))

            if eval_set is not None:
                pred_eval = pred_eval + self.learning_rate * tree.predict(codes_eval)
                eval_mae = float(np.mean(np.abs(pred_eval - ye)))
                self.eval_curve_.append(eval_mae)
                if self.early_stopping_rounds is not None:
                    if eval_mae < best_eval - 1e-9:
                        best_eval = eval_mae
                        best_round = it
                    elif it - best_round >= self.early_stopping_rounds:
                        # roll back to the best round: trees AND both curves,
                        # so len(trees_) == len(train_curve_) == len(eval_curve_)
                        self.trees_ = self.trees_[: best_round + 1]
                        self.train_curve_ = self.train_curve_[: best_round + 1]
                        self.eval_curve_ = self.eval_curve_[: best_round + 1]
                        break
        return self

    # ------------------------------------------------------------------ #
    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.binner_ is None:
            raise RuntimeError("predict called before fit")
        pack = self._ensure_pack()
        codes = self.binner_.transform(np.asarray(X, dtype=float))
        n = codes.shape[0]
        pred = np.empty(n, dtype=np.float64)
        # chunk so the transient (n_trees, block) matrix stays small
        block = max(1, CHUNK_PAIRS // max(1, len(self.trees_)))
        for s in range(0, n, block):
            e = min(n, s + block)
            pred[s:e] = self._accumulate(pack.predict_matrix(codes[s:e]))
        return pred

    def _accumulate(self, mat: np.ndarray) -> np.ndarray:
        """``base + lr·mat[0] + lr·mat[1] + …``, added one tree at a time.

        Small blocks take one ``add.accumulate`` over ``[base; lr·mat]``:
        accumulate adds strictly in sequence down axis 0 (never pairwise,
        unlike ``sum``), so its last row equals the per-tree loop bit for
        bit at a fixed cost of a few calls instead of ``2·n_trees``.  Its
        strided walk loses above :data:`~repro.ml.binning.SMALL_BLOCK_ROWS`
        rows (150 trees: 35 µs against 156 µs at 64 rows, 747 µs against
        418 µs at 1024), so larger blocks keep the loop.
        """
        n = mat.shape[1]
        if n <= SMALL_BLOCK_ROWS:
            acc = np.empty((mat.shape[0] + 1, n))
            acc[0] = self.base_score_
            np.multiply(mat, self.learning_rate, out=acc[1:])
            return np.add.accumulate(acc, axis=0, out=acc)[-1]
        p = np.full(n, self.base_score_)
        for row in mat:
            p += self.learning_rate * row
        return p

    def predict_many(self, blocks: list[np.ndarray]) -> list[np.ndarray]:
        """Batch-of-batches: predict many small requests in one arena pass.

        The serving micro-batcher hands the coalesced requests here.  All
        blocks are concatenated and scored with a single :meth:`predict`
        (one binning transform, one arena walk, one accumulation loop);
        since transform, routing, and accumulation are all per-sample
        operations, each returned slice is bit-identical to
        ``predict(block)`` on its own — paying the Python/NumPy dispatch
        cost once instead of once per request.
        """
        if self.binner_ is None:
            raise RuntimeError("predict_many called before fit")
        return concat_apply_split(blocks, self.predict)

    def truncated(self, n_trees: int) -> "GradientBoostingRegressor":
        """A view of this model keeping only the first ``n_trees`` rounds.

        Shares the fitted binner and tree objects; the packed arena is
        *reused* (roots sliced via :meth:`PackedForest.truncated`, node
        arrays shared) rather than rebuilt, so registry versions that are
        stage-truncated variants of one parent cost no extra pack memory.
        """
        if self.binner_ is None:
            raise RuntimeError("truncated called before fit")
        n_trees = int(n_trees)
        if not 0 <= n_trees <= len(self.trees_):
            raise ValueError(f"n_trees must be in [0, {len(self.trees_)}], got {n_trees}")
        out = clone(self, n_estimators=n_trees)
        out.binner_ = self.binner_
        out.trees_ = self.trees_[:n_trees]
        out.base_score_ = self.base_score_
        out.train_curve_ = self.train_curve_[:n_trees]
        out.eval_curve_ = self.eval_curve_[:n_trees]
        out._pack = self._ensure_pack().truncated(n_trees)
        return out

    def staged_scores(
        self,
        eval_sets: list[tuple[np.ndarray, np.ndarray]],
        n_jobs: int | None = 1,
        block: int = 8192,
    ) -> list[np.ndarray]:
        """MAE after every boosting round on each eval set, thread-parallel.

        Scoring decomposes over fixed row blocks (size ``block``, independent
        of ``n_jobs``): each block walks the packed arena once, accumulates
        the staged predictions, and returns per-round absolute-error *sums*.
        Blocks run through :func:`~repro.parallel.pool.parallel_map` with the
        thread backend and recombine in block order, so the returned curves
        are identical for every ``n_jobs`` — the same invariance contract as
        forest tree training.
        """
        if self.binner_ is None:
            raise RuntimeError("staged_scores called before fit")
        pack = self._ensure_pack()
        T = len(self.trees_)
        codes_y: list[tuple[np.ndarray, np.ndarray]] = []
        items: list[tuple[int, int, int]] = []
        for si, (Xe, ye) in enumerate(eval_sets):
            codes = self.binner_.transform(np.asarray(Xe, dtype=float))
            ye = np.asarray(ye, dtype=np.float64)
            if codes.shape[0] != ye.shape[0]:
                raise ValueError("eval set X and y row counts differ")
            if ye.shape[0] == 0:
                raise ValueError(f"eval set {si} is empty — its MAE curve is undefined")
            codes_y.append((codes, ye))
            items.extend((si, s, min(codes.shape[0], s + block)) for s in range(0, codes.shape[0], block))

        def _score_block(item: tuple[int, int, int]) -> tuple[int, np.ndarray]:
            si, s, e = item
            codes, ye = codes_y[si]
            mat = pack.predict_matrix(codes[s:e])
            pred = np.full(e - s, self.base_score_)
            sums = np.empty(T)
            for i in range(T):
                pred = pred + self.learning_rate * mat[i]
                sums[i] = np.sum(np.abs(pred - ye[s:e]))
            return si, sums

        parts = parallel_map(_score_block, items, workers=n_jobs, backend="thread")
        curves = [np.zeros(T) for _ in eval_sets]
        for si, sums in parts:  # fixed block order ⇒ n_jobs-invariant float sums
            curves[si] += sums
        return [c / cy[1].shape[0] for c, cy in zip(curves, codes_y)]

    def staged_predict(self, X: np.ndarray) -> np.ndarray:
        """(n_trees, n_samples) predictions after each boosting round."""
        if self.binner_ is None:
            raise RuntimeError("staged_predict called before fit")
        codes = self.binner_.transform(np.asarray(X, dtype=float))
        out = self._ensure_pack().predict_matrix(codes)
        pred = np.full(codes.shape[0], self.base_score_)
        for i in range(out.shape[0]):
            pred = pred + self.learning_rate * out[i]
            out[i] = pred
        return out

    def feature_importances(self, n_features: int | None = None) -> np.ndarray:
        """Split-count importance per feature (normalized to sum 1)."""
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
