"""Quantile pre-binning for histogram gradient boosting.

Features are discretized once into at most 255 integer codes via quantile
edges (LightGBM/XGBoost-hist style).  Split search then runs on integer
codes with ``bincount`` kernels — the optimization that makes a pure-NumPy
GBM fast enough for the paper's sweeps.

Sweep-path caching
------------------
The paper's model sweeps (``hpo``/``agebo``/``model_selection``) fit
thousands of estimators on the *same* training matrix, and every fit used
to re-quantile and re-discretize it from scratch.  Two small module-level
LRU caches remove that redundancy:

* the **edge cache** maps ``(id(X), n_bins)`` → fitted quantile edges, and
* the **code cache** maps ``(id(X), id(edges))`` → the uint8 code matrix.

Keys are array *identities*: a weak reference to ``X`` is stored and
verified on lookup, so a recycled ``id`` after garbage collection can never
alias a stale entry, and the cache itself keeps no array alive.  Only
arrays marked **read-only** (``X.flags.writeable is False``) participate:
NumPy then guarantees the cached codes can never go stale through in-place
mutation (e.g. ``permutation_importance`` shuffling one column of the same
array object between predicts).  Sweep drivers opt in by freezing their
private copy once — see ``hpo._make_objective`` — after which thousands of
configs bin the shared matrix a single time.  Cached code matrices are
returned read-only and shared.  Binning is deterministic, hence cache hits
are byte-identical to recomputation.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict

import numpy as np

__all__ = ["SMALL_BLOCK_ROWS", "QuantileBinner", "frozen_copy"]

#: Largest block binned by the padded-edge compare instead of the
#: per-column loop.  The compare does ``n·d·max_edges`` work in five NumPy
#: calls, the loop ``n·d·log(edges)`` work in ``2·d`` calls.  On the e2e
#: benchmark's 87-column features (edges per column: max 63, mean 35) the
#: compare took 13 µs against 167 µs at 1 row and 357 against 471 µs at 64
#: rows; the two tied at 128 rows and the loop won from 256 rows on
#: (1.1 ms against 1.4 ms).  Serving flushes of single-row requests fall
#: below the crossover, large ``predict`` calls above it.
SMALL_BLOCK_ROWS = 64


def frozen_copy(X: np.ndarray) -> np.ndarray:
    """A private, contiguous, read-only float64 copy of ``X``.

    The sweep-driver opt-in gesture in one place: the returned array owns
    its memory and is immutable, so binding it repeatedly (``hpo``'s
    per-config closures, ``agebo``'s generations) makes every fit hit the
    identity-keyed caches below, and staleness is impossible.
    """
    X = np.array(X, dtype=np.float64, order="C")
    X.setflags(write=False)
    return X

_CACHE_MAX = 8
_cache_lock = threading.Lock()
#: (id(X), n_bins) -> (weakref(X), shape, edges)
_edge_cache: OrderedDict = OrderedDict()
#: (id(X), id(edges)) -> (weakref(X), shape, edges, codes)
_code_cache: OrderedDict = OrderedDict()


def _is_frozen(X: np.ndarray) -> bool:
    """True when ``X`` is immutable all the way down.

    ``writeable=False`` on a view is not enough — a read-only view of a
    writable base can still change under the cache.  Walk the base chain and
    require every ndarray link to be read-only, ending in owned memory.
    """
    a = X
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return a is None


def _cache_get(cache: OrderedDict, key: tuple, X: np.ndarray):
    """Return the cached entry if its weakly-referenced array is ``X``."""
    with _cache_lock:
        entry = cache.get(key)
        if entry is None:
            return None
        if entry[0]() is not X or entry[1] != X.shape:
            del cache[key]
            return None
        cache.move_to_end(key)
        return entry


def _cache_put(cache: OrderedDict, key: tuple, X: np.ndarray, payload: tuple) -> None:
    """Insert ``(weakref(X), X.shape, *payload)``, purging the entry when
    ``X`` dies so the cache never pins edges/codes past the array's life."""

    def _purge(ref: weakref.ref) -> None:
        with _cache_lock:
            entry = cache.get(key)
            if entry is not None and entry[0] is ref:  # not a reused-id newcomer
                del cache[key]

    with _cache_lock:
        cache[key] = (weakref.ref(X, _purge), X.shape, *payload)
        cache.move_to_end(key)
        while len(cache) > _CACHE_MAX:
            cache.popitem(last=False)


class QuantileBinner:
    """Per-feature quantile discretizer producing uint8 codes.

    ``transform`` maps values to the index of the first edge they do not
    exceed; values above the top edge land in the last bin, so test-time
    out-of-range values degrade gracefully.
    """

    #: ``(edges_, padded (max_edges, d) table, per-column NaN codes)`` once
    #: :meth:`prepare` ran; a class default so older pickles load without it
    _lookup: tuple | None = None

    def __init__(self, n_bins: int = 64):
        if not 2 <= n_bins <= 255:
            raise ValueError("n_bins must be in [2, 255]")
        self.n_bins = int(n_bins)
        self.edges_: list[np.ndarray] | None = None

    def fit(self, X: np.ndarray) -> "QuantileBinner":
        X = np.asarray(X, dtype=float)
        cacheable = _is_frozen(X)  # immutable arrays cannot go stale
        if cacheable:
            hit = _cache_get(_edge_cache, (id(X), self.n_bins), X)
            if hit is not None:
                self.edges_ = hit[2]
                return self
        qs = np.linspace(0.0, 1.0, self.n_bins + 1)[1:-1]
        d = X.shape[1]
        if d and X.shape[0]:
            quantiles = np.quantile(X, qs, axis=0)  # (len(qs), d), one pass
            edges = [np.unique(quantiles[:, f]) for f in range(d)]
        else:
            edges = [np.unique(np.quantile(X[:, f], qs)) for f in range(d)]
        self.edges_ = edges
        if cacheable:
            _cache_put(_edge_cache, (id(X), self.n_bins), X, (edges,))
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.edges_ is None:
            raise RuntimeError("QuantileBinner.transform called before fit")
        X = np.asarray(X, dtype=float)
        if X.shape[1] != len(self.edges_):
            raise ValueError(
                f"feature count mismatch: fitted {len(self.edges_)}, got {X.shape[1]}"
            )
        cacheable = _is_frozen(X)
        if cacheable:
            hit = _cache_get(_code_cache, (id(X), id(self.edges_)), X)
            if hit is not None and hit[2] is self.edges_:
                return hit[3]
        lookup = self._lookup
        if X.shape[0] <= SMALL_BLOCK_ROWS and lookup is not None and lookup[0] is self.edges_:
            _, padded, nan_codes = lookup
            # count of edges strictly below x == searchsorted(side="left");
            # +inf padding is never below anything, and NaN compares below
            # nothing, so NaN takes the code searchsorted gives it
            codes = (X[:, None, :] > padded).sum(axis=1, dtype=np.uint8)
            codes = np.where(np.isnan(X), nan_codes, codes)
        else:
            codes = np.empty(X.shape, dtype=np.uint8)
            for f, edges in enumerate(self.edges_):
                codes[:, f] = np.searchsorted(edges, X[:, f], side="left")
        if cacheable:
            # shared across cache hits → hand out read-only
            codes.setflags(write=False)
            _cache_put(_code_cache, (id(X), id(self.edges_)), X, (self.edges_, codes))
        return codes

    def prepare(self) -> None:
        """Build the small-block lookup for the fitted edges; idempotent.

        Called from the estimators' pack pre-warm, never lazily from
        ``transform``: a registered model's lookup exists before
        ``register`` freezes it, so concurrent flushes only read it.  The
        lookup is keyed on the ``edges_`` object, so a refit can never
        score with a stale table.
        """
        edges = self.edges_
        if edges is None or (self._lookup is not None and self._lookup[0] is edges):
            return
        padded = np.full((max((len(e) for e in edges), default=0), len(edges)), np.inf)
        for f, e in enumerate(edges):
            padded[: len(e), f] = e
        nan_codes = np.array([np.searchsorted(e, np.nan) for e in edges], dtype=np.uint8)
        self._lookup = (edges, padded, nan_codes)

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)

    @property
    def actual_bins(self) -> int:
        """Largest code + 1 across features (≤ ``n_bins``)."""
        if self.edges_ is None:
            raise RuntimeError("binner not fitted")
        return max(len(e) for e in self.edges_) + 1
