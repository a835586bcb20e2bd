"""Tests for quantile pre-binning."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from repro.ml.binning import SMALL_BLOCK_ROWS, QuantileBinner


class TestQuantileBinner:
    def test_codes_within_range(self):
        rng = np.random.default_rng(0)
        X = rng.normal(0, 1, (300, 3))
        codes = QuantileBinner(16).fit_transform(X)
        assert codes.dtype == np.uint8
        assert codes.max() < 16

    def test_monotone_within_feature(self):
        X = np.sort(np.random.default_rng(1).normal(0, 1, (200, 1)), axis=0)
        codes = QuantileBinner(32).fit_transform(X)
        assert np.all(np.diff(codes[:, 0].astype(int)) >= 0)

    def test_out_of_range_clipped_gracefully(self):
        X = np.arange(100.0)[:, None]
        binner = QuantileBinner(8).fit(X)
        lo = binner.transform(np.array([[-1e9]]))
        hi = binner.transform(np.array([[1e9]]))
        assert lo[0, 0] == 0
        assert hi[0, 0] == binner.actual_bins - 1

    def test_constant_feature_single_bin(self):
        X = np.ones((50, 1))
        binner = QuantileBinner(8).fit(X)
        codes = binner.transform(X)
        assert np.unique(codes).size == 1

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            QuantileBinner().transform(np.zeros((2, 2)))

    def test_feature_mismatch_raises(self):
        binner = QuantileBinner(8).fit(np.zeros((10, 2)))
        with pytest.raises(ValueError):
            binner.transform(np.zeros((10, 3)))

    @pytest.mark.parametrize("bad", [1, 256, 0])
    def test_invalid_bin_count_raises(self, bad):
        with pytest.raises(ValueError):
            QuantileBinner(bad)

    @given(arrays(np.float64, (50, 2), elements=st.floats(-1e6, 1e6)))
    def test_order_preserving_property(self, X):
        codes = QuantileBinner(16).fit_transform(X)
        for f in range(X.shape[1]):
            order = np.argsort(X[:, f], kind="stable")
            assert np.all(np.diff(codes[order, f].astype(int)) >= 0)


def loop_codes(binner: QuantileBinner, X: np.ndarray) -> np.ndarray:
    """The reference binning: one ``searchsorted`` per column."""
    X = np.asarray(X, dtype=float)
    codes = np.empty(X.shape, dtype=np.uint8)
    for f, edges in enumerate(binner.edges_):
        codes[:, f] = np.searchsorted(edges, X[:, f], side="left")
    return codes


def awkward_fit_matrix(n: int = 400, seed: int = 0) -> np.ndarray:
    """Columns whose edges include 0.0, NaN, a single edge, and ties."""
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, 6))
    X[rng.random(n) < 0.6, 1] = 0.0        # an edge at exactly 0.0
    X[rng.random(n) < 0.3, 2] = np.inf     # a NaN top edge (inf - inf)
    X[rng.random(n) < 0.3, 3] = np.nan     # every edge NaN
    X[:, 4] = 7.0                          # one edge
    X[:, 5] = rng.integers(0, 4, n)        # ties
    return X


def special_queries(binner: QuantileBinner, n: int, seed: int = 1) -> np.ndarray:
    """``n`` rows cycling NaN, ±inf, ±0.0, exact edges and out-of-range
    values through every column."""
    rng = np.random.default_rng(seed)
    d = len(binner.edges_)
    Q = rng.normal(0, 1, (n, d))
    for i in range(n):
        for f in range(d):
            edges = binner.edges_[f]
            finite = edges[np.isfinite(edges)]
            top = finite[-1] if finite.size else 0.0
            specials = (np.nan, np.inf, -np.inf, -0.0, 0.0, edges[len(edges) // 2],
                        edges[0], edges[-1], top + 1.0, top * 4 + 1e9, -1e300)
            if (i + f) % 3:
                Q[i, f] = specials[(i * d + f) % len(specials)]
    return Q


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestSmallBlockPath:
    """Blocks up to ``SMALL_BLOCK_ROWS`` rows bin by one padded compare;
    every code must equal the per-column ``searchsorted`` loop's."""

    SIZES = (1, 8, SMALL_BLOCK_ROWS - 1, SMALL_BLOCK_ROWS, SMALL_BLOCK_ROWS + 1)

    @pytest.mark.parametrize("n", SIZES)
    def test_codes_equal_the_loop_on_awkward_values(self, n):
        binner = QuantileBinner(32).fit(awkward_fit_matrix())
        binner.prepare()
        Q = special_queries(binner, n)
        assert np.array_equal(binner.transform(Q), loop_codes(binner, Q))

    @pytest.mark.parametrize("n", SIZES)
    def test_frozen_queries_are_cached_identically(self, n):
        binner = QuantileBinner(16).fit(awkward_fit_matrix(seed=3))
        binner.prepare()
        Q = special_queries(binner, n, seed=4)
        Q.setflags(write=False)
        first = binner.transform(Q)
        assert binner.transform(Q) is first  # code-cache hit
        assert np.array_equal(first, loop_codes(binner, Q))

    def test_refit_never_scores_with_a_stale_lookup(self):
        rng = np.random.default_rng(5)
        binner = QuantileBinner(16).fit(rng.normal(0, 1, (300, 3)))
        binner.prepare()
        binner.fit(rng.normal(10, 1, (300, 3)))  # new edges, no prepare
        Q = rng.normal(10, 1, (4, 3))
        assert np.array_equal(binner.transform(Q), loop_codes(binner, Q))
        binner.prepare()
        assert np.array_equal(binner.transform(Q), loop_codes(binner, Q))

    def test_infinite_edges(self):
        binner = QuantileBinner(8)
        binner.edges_ = [np.array([-np.inf, -0.0, 1.0, np.inf])]
        binner.prepare()
        Q = np.array([[-np.inf], [-1.0], [-0.0], [0.0], [1.0], [2.0], [np.inf], [np.nan]])
        assert np.array_equal(binner.transform(Q), loop_codes(binner, Q))

    def test_prepare_is_idempotent_and_keyed_on_edges(self):
        binner = QuantileBinner(8).fit(awkward_fit_matrix())
        binner.prepare()
        lookup = binner._lookup
        binner.prepare()
        assert binner._lookup is lookup and lookup[0] is binner.edges_

    @given(arrays(np.float64, st.tuples(st.integers(1, SMALL_BLOCK_ROWS + 1), st.just(3)),
                  elements=st.floats(allow_nan=True, allow_infinity=True)))
    def test_any_float_bins_like_the_loop(self, Q):
        binner = QuantileBinner(16).fit(awkward_fit_matrix()[:, 1:4])
        binner.prepare()
        assert np.array_equal(binner.transform(Q), loop_codes(binner, Q))


class TestCacheStalenessRegression:
    """The LRU opt-in is immutability; a writeable array must NEVER hit.

    Regression for the wrong way to opt in: keeping the array writeable,
    binning it (no cache entry may be created), mutating it in place, and
    binning again — the second pass must see the mutation.  Sweep drivers
    opt in correctly by freezing a private copy once (``hpo._make_objective``,
    ``agebo.run``, ``model_selection.cross_val_error``).
    """

    def test_writable_array_mutated_after_binning_no_stale_hit(self):
        rng = np.random.default_rng(0)
        X = rng.normal(0, 1, (400, 3))  # writeable: the wrong way to opt in
        binner = QuantileBinner(32)
        codes_before = binner.fit(X).transform(X).copy()
        X[:, 1] = rng.normal(5, 0.1, 400)  # in-place mutation (permutation-importance style)
        # same binner, same array object: a stale code-cache hit would
        # return codes_before — the mutated column must be re-discretized
        codes_after = binner.transform(X)
        assert not np.array_equal(codes_after[:, 1], codes_before[:, 1])
        assert np.all(codes_after[:, 1] >= codes_before[:, 1].max())  # shifted above old edges
        # refitting must also see the new quantiles, not cached edges
        refit = QuantileBinner(32).fit(X)
        assert not np.array_equal(refit.edges_[1], binner.edges_[1])

    def test_agebo_freezes_private_copies(self):
        """``agebo.run`` must freeze its matrices the ``hpo`` way — caller
        arrays stay writeable, search-internal fits see immutable data."""
        from repro.ml.agebo import AgingEvolutionSearch

        rng = np.random.default_rng(1)
        X = rng.normal(0, 1, (60, 4))
        y = X[:, 0] + 0.1 * rng.normal(0, 1, 60)
        seen_writeable = []

        class Probe(AgingEvolutionSearch):
            def _evaluate(self, config, X_train, y_train, X_val, y_val, member_seed):
                seen_writeable.append(X_train.flags.writeable or X_val.flags.writeable)
                return float(member_seed)  # skip the MLP fit: we only probe the arrays

        Probe(population=3, generations=2, epochs=1, seed=0).run(X[:40], y[:40], X[40:], y[40:])
        assert seen_writeable and not any(seen_writeable)
        assert X.flags.writeable  # caller memory untouched

    def test_cross_val_error_guards_fold_slices(self):
        """Fold slices handed to estimators are read-only (no estimator can
        mutate the caller's X through them) but deliberately NOT
        cache-eligible — throwaway per-fold identities must not churn the
        small module-level binning LRU."""
        from repro.ml.binning import _is_frozen
        from repro.ml.model_selection import cross_val_error

        rng = np.random.default_rng(2)
        X = rng.normal(0, 1, (80, 3))
        y = X[:, 0]
        seen = []

        class Probe:
            def fit(self, Xf, yf):
                seen.append((Xf.flags.writeable, _is_frozen(Xf)))
                self.mean = float(np.mean(yf))
                return self

            def predict(self, Xf):
                seen.append((Xf.flags.writeable, _is_frozen(Xf)))
                return np.full(Xf.shape[0], self.mean)

        cross_val_error(Probe, X, y, k=4)
        assert len(seen) == 8
        assert not any(w for w, _ in seen)       # read-only for the estimator
        assert not any(f for _, f in seen)       # but never enters the LRU
        assert X.flags.writeable
