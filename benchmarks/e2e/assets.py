"""Models, request pools, reference predictions and seeded traffic.

Four served names cover the paper's two platforms times two model kinds.
Each platform simulates ``n_jobs`` jobs (``preset(p, n_jobs, seed=0)``)
and renders the 87-column POSIX feature set; the first ``n_train`` jobs
train one gradient-boosted model (``*-xgb``) and one random forest
(``*-rf``), and the held-out remainder, deduplicated, is the request
pool.

References are computed once, outside any timed window, exactly as the
served values must come out:

* ``predict`` / ``dist`` — ``model.predict(row[None])`` and
  ``model.predict_dist(row[None])`` per pool row: what a single-row
  request must return.  (A forest's single-row mean reduces in a
  different order than a multi-row one, so a single-row reference can
  differ from a pool-wide predict in the last bit.)
* ``block`` — ``model.predict(pool)``: what any row of a multi-row block
  must return.  :func:`build` checks that claim on random blocks.
* ``v2`` — the same single-row references for ``model.truncated(half)``,
  the version the ``storm`` workload flips production to and back.

Everything here is a pure function of the repository's sources, so it
is built once per checkout and cached under ``.bench_build/e2e/``, keyed
on a hash of every source file that could change a model or a
reference.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
CACHE_DIR = ROOT / ".bench_build" / "e2e"

# Zipf rank order: the first name is the hottest.  shard_for_name puts
# theta-xgb and cori-rf on shard 0, theta-rf and cori-xgb on shard 1.
NAMES = ("theta-xgb", "theta-rf", "cori-xgb", "cori-rf")
PLATFORMS = ("theta", "cori")
ZIPF_S = 1.1
DIST_SHARE = 0.1  # share of forest requests that ask for predict_dist


def platform_of(name: str) -> str:
    return name.split("-")[0]


def is_forest(name: str) -> bool:
    return name.endswith("-rf")


@dataclass(frozen=True)
class Size:
    n_jobs: int
    n_train: int
    pool: int
    gbm_trees: int
    gbm_depth: int
    rf_trees: int
    rf_depth: int


FULL = Size(n_jobs=20000, n_train=2000, pool=8192,
            gbm_trees=150, gbm_depth=6, rf_trees=100, rf_depth=10)
# the smoke test's size: every code path, a fraction of the work
TINY = Size(n_jobs=6000, n_train=400, pool=2048,
            gbm_trees=20, gbm_depth=4, rf_trees=10, rf_depth=6)


@dataclass
class Assets:
    size: Size
    model_bytes: dict[str, bytes]           # name -> pickled fitted model (v1)
    pools: dict[str, np.ndarray]            # platform -> (pool, 87) request rows
    refs: dict[str, dict[str, np.ndarray]]  # name -> {"predict","block"[,"dist"]}
    refs_v2: dict[str, dict[str, np.ndarray]]
    build_s: float

    def models(self) -> dict:
        """Fresh, unfrozen model objects (each call unpickles anew)."""
        return {name: pickle.loads(b) for name, b in self.model_bytes.items()}

    def row(self, name: str, idx: int) -> np.ndarray:
        return self.pools[platform_of(name)][idx]


def _source_key(size: Size) -> str:
    """Hash of every source that determines the assets, plus the size."""
    h = hashlib.sha256(repr(sorted(asdict(size).items())).encode())
    files = sorted(SRC.rglob("*.py")) + [Path(__file__).resolve()]
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _single_refs(model, pool: np.ndarray, forest: bool) -> dict[str, np.ndarray]:
    refs = {"predict": np.array([model.predict(r[None, :])[0] for r in pool])}
    if forest:
        refs["dist"] = np.array(
            [[m[0], v[0]] for m, v in (model.predict_dist(r[None, :]) for r in pool)])
    return refs


def build(size: Size) -> Assets:
    from repro.config import preset
    from repro.data import build_dataset, feature_matrix
    from repro.ml.forest import RandomForestRegressor
    from repro.ml.gbm import GradientBoostingRegressor

    t0 = time.perf_counter()
    model_bytes: dict[str, bytes] = {}
    pools: dict[str, np.ndarray] = {}
    refs: dict[str, dict[str, np.ndarray]] = {}
    refs_v2: dict[str, dict[str, np.ndarray]] = {}
    check_rng = np.random.default_rng(0)
    for platform in PLATFORMS:
        ds = build_dataset(preset(platform, n_jobs=size.n_jobs, seed=0))
        X, _ = feature_matrix(ds, "posix")
        X_train, y_train = X[: size.n_train], ds.y[: size.n_train]
        held = X[size.n_train:]
        # duplicate jobs are common in I/O telemetry; a duplicated row
        # would hit the prediction cache on workloads meant to bypass it
        _, first = np.unique(held, axis=0, return_index=True)
        held = held[np.sort(first)]
        if held.shape[0] < size.pool:
            raise RuntimeError(
                f"{platform}: only {held.shape[0]} distinct held-out jobs, "
                f"need {size.pool}")
        pool = np.ascontiguousarray(held[: size.pool])
        pools[platform] = pool
        fitted = {
            f"{platform}-xgb": GradientBoostingRegressor(
                n_estimators=size.gbm_trees, max_depth=size.gbm_depth
            ).fit(X_train, y_train),
            f"{platform}-rf": RandomForestRegressor(
                n_estimators=size.rf_trees, max_depth=size.rf_depth
            ).fit(X_train, y_train),
        }
        for name, model in fitted.items():
            model_bytes[name] = pickle.dumps(model)
            forest = is_forest(name)
            refs[name] = _single_refs(model, pool, forest)
            refs[name]["block"] = model.predict(pool)
            for _ in range(2):
                rows = np.sort(check_rng.choice(size.pool, 64, replace=False))
                if not np.array_equal(model.predict(pool[rows]), refs[name]["block"][rows]):
                    raise RuntimeError(f"{name}: block predictions depend on block shape")
            half = (size.rf_trees if forest else size.gbm_trees) // 2
            refs_v2[name] = _single_refs(model.truncated(half), pool, forest)
    return Assets(size, model_bytes, pools, refs, refs_v2,
                  build_s=time.perf_counter() - t0)


def load(size: Size) -> tuple[Path, Assets, bool]:
    """The cached assets for ``size`` (built first if missing).

    Returns ``(path, assets, built)``; ``built`` says whether this call
    trained the models."""
    path = CACHE_DIR / f"assets-{_source_key(size)}.pkl"
    if path.exists():
        with path.open("rb") as fh:
            return path, pickle.load(fh), False
    assets = build(size)
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    with tmp.open("wb") as fh:
        pickle.dump(assets, fh, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)
    return path, assets, True


def read(path: Path) -> Assets:
    with Path(path).open("rb") as fh:
        return pickle.load(fh)


# ---------------------------------------------------------------------- #
# seeded traffic
# ---------------------------------------------------------------------- #
# pool row 0 is reserved for the set-up probes, so no traffic row is
# already cached when a workload starts
PROBE_ROW = 0


class Traffic:
    """Seeded request generator.

    Names are drawn Zipf(1.1) over :data:`NAMES`.  Each name walks a
    seeded permutation of its platform's pool cyclically, so a row
    recurs for a name only after ``pool - 1`` requests to that name:
    beyond the per-name cache (4096 entries) at full size, so single-row
    traffic never hits the cache.  A tenth of forest requests are
    ``predict_dist``.
    """

    def __init__(self, pool_size: int, seed: int):
        self.rng = np.random.default_rng(seed)
        w = 1.0 / np.arange(1, len(NAMES) + 1) ** ZIPF_S
        self.p = w / w.sum()
        self.pool_size = pool_size
        self._walks = {
            name: 1 + self.rng.permutation(pool_size - 1) for name in NAMES
        }
        self._pos = dict.fromkeys(NAMES, 0)

    def names(self, n: int) -> list[str]:
        return [NAMES[i] for i in self.rng.choice(len(NAMES), size=n, p=self.p)]

    def next_row(self, name: str) -> int:
        walk = self._walks[name]
        pos = self._pos[name]
        self._pos[name] = (pos + 1) % walk.shape[0]
        return int(walk[pos])

    def requests(self, n: int, dist_share: float = DIST_SHARE) -> list[tuple[str, int, str]]:
        """``n`` single-row requests as ``(name, pool row, kind)``."""
        names = self.names(n)
        dist = self.rng.random(n) < dist_share
        return [
            (name, self.next_row(name),
             "predict_dist" if d and is_forest(name) else "predict")
            for name, d in zip(names, dist)
        ]

    def poisson(self, rate: float, seconds: float) -> np.ndarray:
        """Send offsets (s) of a Poisson process at ``rate`` over ``seconds``."""
        n = int(rate * seconds * 1.2) + 16
        t = np.cumsum(self.rng.exponential(1.0 / rate, n))
        while t[-1] < seconds:  # astronomically rare; keep the contract exact
            t = np.concatenate([t, t[-1] + np.cumsum(self.rng.exponential(1.0 / rate, n))])
        return t[t < seconds]

    def block(self, m: int) -> tuple[str, np.ndarray]:
        """One block request: a Zipf name and ``m`` distinct pool rows."""
        name = self.names(1)[0]
        rows = 1 + self.rng.choice(self.pool_size - 1, size=m, replace=False)
        return name, rows
