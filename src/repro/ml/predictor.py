"""Packed-forest prediction engine: all trees × all samples in one pass.

Per-tree prediction loops (``for tree in trees_: tree.predict(codes)``) pay
the Python/NumPy dispatch overhead ``n_trees × depth`` times and re-walk the
full sample set at every level even after most rows have settled into
leaves.  :class:`PackedForest` removes both costs by concatenating every
fitted tree's :class:`~repro.ml.tree.TreeNodes` into one flat *arena* and
evaluating the whole ensemble with a single vectorized depth loop.

Flat-arena layout
-----------------
All per-node arrays are concatenated tree-after-tree; node ``i`` of tree
``t`` lives at arena index ``offsets[t] + i`` and ``roots[t] == offsets[t]``.
Three tricks make the inner loop branch-free:

* **Adjacent children.**  The tree builder always appends a split's children
  consecutively, so ``right == left + 1`` and the next node is simply
  ``left[cur] + (code > threshold[cur])`` — no ``right`` array, no
  ``np.where``.
* **Self-looping leaves.**  Leaves are rewritten to ``left = own index`` and
  ``threshold = 255``; since codes are uint8 (≤ 255) a settled row compares
  ``code > 255 == False`` and stays put, so no per-level "is leaf" masking
  is needed.  Leaf ``feature`` is rewritten to 0 so the code gather stays in
  bounds.
* **Flat code gather.**  Codes are transposed once to ``(d, n)`` and indexed
  as ``codes_flat[feature * n + sample]``, one fused gather per level over
  an ``(n_trees, n)`` state.  The current nodes' features are gathered and
  scaled by ``n`` per level, never pre-scaled across the whole arena, so no
  per-call work grows with the arena size (a one-row call would otherwise
  pay for every node).

The loop runs exactly ``max_depth`` (the deepest *actual* depth across the
pack) iterations over an ``(n_trees × n_samples)`` state vector, chunked
over samples to bound peak memory.  Leaf values are gathered from the same
float64 arrays the per-tree path reads, so the resulting prediction matrix
is **bit-for-bit identical** to stacking ``tree.predict`` outputs — the
equivalence suite in ``tests/test_predictor_equivalence.py`` asserts this
with ``np.array_equal``.

Arena dtypes are the small ones the satellite layout standardizes on:
uint8 thresholds, int32 features/children, float64 values.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from repro.ml.tree import TreeNodes

__all__ = ["PackedForest", "concat_apply_split", "ensure_pack"]


def concat_apply_split(
    blocks: Sequence[np.ndarray], fn, axis: int = 0
) -> list[np.ndarray]:
    """Concatenate row blocks, apply ``fn`` once, split the result back.

    The batch-of-batches skeleton shared by every ``*_many`` entry point:
    one call to the scalar path amortizes its dispatch cost over all
    blocks, and because those paths are per-sample, each split slice is
    bit-identical to ``fn(block)`` alone.  ``axis`` selects the sample
    axis of ``fn``'s result (1 for per-tree matrices).
    """
    blocks = [np.asarray(b) for b in blocks]
    if not blocks:
        return []
    stacked = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=0)
    out = fn(stacked)
    lead = (slice(None),) * axis
    ends = itertools.accumulate(b.shape[0] for b in blocks)
    # plain slicing: the same views np.split returns, without its
    # per-piece Python overhead (a third of a 1024-block GBM call)
    return [out[lead + (slice(e - b.shape[0], e),)] for b, e in zip(blocks, ends)]


def ensure_pack(pack: "PackedForest | None", trees: Sequence) -> "PackedForest":
    """Reuse ``pack`` while it still matches ``trees``; rebuild otherwise.

    The single invalidation rule shared by every estimator with a lazy
    pack: a pack is stale when it is absent or its tree count differs
    (fits reset the pack to ``None``; truncation changes the count).
    """
    if pack is None or pack.n_trees != len(trees):
        pack = PackedForest.from_trees(trees)
    return pack

#: target number of (tree, sample) state entries processed per chunk —
#: the single memory-bounding budget shared by predict_matrix and the
#: estimator call sites that chunk around it (gbm.predict, forest OOB)
CHUNK_PAIRS = 1 << 23


class PackedForest:
    """Flat-arena ensemble evaluator over binned uint8 codes.

    Build with :meth:`from_trees` from fitted :class:`~repro.ml.tree.BinnedTree`
    objects (or raw :class:`TreeNodes`).  The per-tree prediction matrix is
    bit-identical to looping ``tree.predict`` — estimators can therefore swap
    it into their hot paths without changing any downstream number.
    """

    def __init__(
        self,
        feature: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        value: np.ndarray,
        roots: np.ndarray,
        max_depth: int,
    ):
        self.feature = feature      # int32, leaf entries rewritten to 0
        self.threshold = threshold  # uint8, leaf entries rewritten to 255
        self.left = left            # int32 arena index, leaves self-loop
        self.value = value          # float64 Newton leaf values
        self.roots = roots          # int32 arena index of each tree's root
        self.max_depth = int(max_depth)

    # ------------------------------------------------------------------ #
    @property
    def n_trees(self) -> int:
        return int(self.roots.shape[0])

    @property
    def n_nodes(self) -> int:
        return int(self.feature.shape[0])

    # ------------------------------------------------------------------ #
    @classmethod
    def from_trees(cls, trees: Sequence) -> "PackedForest":
        """Concatenate fitted trees into one arena (offset-indexed)."""
        nodes: list[TreeNodes] = []
        for t in trees:
            nd = t.nodes_ if hasattr(t, "nodes_") else t
            if nd is None:
                raise RuntimeError("PackedForest.from_trees got an unfitted tree")
            nodes.append(nd)
        if not nodes:
            empty_i32 = np.empty(0, dtype=np.int32)
            return cls(
                feature=empty_i32,
                threshold=np.empty(0, dtype=np.uint8),
                left=empty_i32.copy(),
                value=np.empty(0, dtype=np.float64),
                roots=empty_i32.copy(),
                max_depth=0,
            )

        sizes = np.array([nd.n_nodes for nd in nodes], dtype=np.int64)
        roots = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int32)
        total = int(sizes.sum())

        feature = np.concatenate([nd.feature for nd in nodes]).astype(np.int32, copy=False)
        threshold = np.concatenate([nd.threshold for nd in nodes]).astype(np.uint8, copy=False)
        offsets = np.repeat(roots.astype(np.int64), sizes)
        left = (np.concatenate([nd.left for nd in nodes]) + offsets).astype(np.int32)
        right = (np.concatenate([nd.right for nd in nodes]) + offsets).astype(np.int32)
        value = np.concatenate([nd.value for nd in nodes]).astype(np.float64, copy=False)

        internal = feature >= 0
        if not np.array_equal(right[internal], left[internal] + 1):
            raise ValueError(
                "PackedForest requires adjacent children (right == left + 1); "
                "got trees from a builder that violates the TreeNodes layout"
            )

        # actual (not capped) max depth via a vectorized frontier walk
        depth = 0
        cur = roots.astype(np.int64)
        while cur.size:
            nxt = cur[internal[cur]]
            if nxt.size == 0:
                break
            lefts = left[nxt].astype(np.int64)
            cur = np.concatenate([lefts, lefts + 1])
            depth += 1

        # rewrite leaves: self-loop with an always-false split test
        idx = np.arange(total, dtype=np.int32)
        leaf = ~internal
        feature[leaf] = 0
        threshold[leaf] = np.uint8(255)
        left[leaf] = idx[leaf]

        return cls(
            feature=feature,
            threshold=threshold,
            left=left,
            value=value,
            roots=roots,
            max_depth=depth,
        )

    # ------------------------------------------------------------------ #
    def _eval_block(self, codes_flat: np.ndarray, n: int, d: int, out: np.ndarray) -> None:
        """Evaluate every tree on one sample block.

        ``codes_flat`` is the ravelled ``(d, n)`` transposed code block and
        ``out`` the ``(n_trees, n)`` destination slice.  Each level gathers
        the current nodes' features and scales them by the block length,
        then adds the sample index; int32 index math is used whenever the
        flat code array fits (it halves the memory traffic of the hot
        gathers).
        """
        idx_dtype = np.int32 if d * n < 2**31 else np.int64
        sample = np.arange(n, dtype=idx_dtype)
        # (n_trees, 1) at the roots, broadcast to (n_trees, n) by level one
        cur = self.roots[:, None]
        feature, left, thr = self.feature, self.left, self.threshold
        for _ in range(self.max_depth):
            code = codes_flat.take(np.multiply(feature.take(cur), n, dtype=idx_dtype) + sample)
            cur = left.take(cur) + (code > thr.take(cur))
        out[...] = self.value.take(cur)

    def predict_matrix(self, codes: np.ndarray) -> np.ndarray:
        """(n_trees, n_samples) per-tree predictions on binned codes."""
        codes = np.asarray(codes)
        n = codes.shape[0]
        T = self.n_trees
        out = np.empty((T, n), dtype=np.float64)
        if T == 0 or n == 0:
            return out
        block = max(1, CHUNK_PAIRS // T)
        for s in range(0, n, block):
            e = min(n, s + block)
            codes_flat = np.ascontiguousarray(codes[s:e].T).reshape(-1)
            self._eval_block(codes_flat, e - s, codes.shape[1], out[:, s:e])
        return out

    def predict_matrix_many(self, code_blocks: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Evaluate many small code blocks in one arena pass (batch-of-batches).

        The serving micro-batcher coalesces single-row requests into a call
        like this one: all blocks are concatenated, walked with a single
        :meth:`predict_matrix` pass, and split back per block.  Each sample
        is routed independently, so every returned slice is bit-identical to
        calling :meth:`predict_matrix` on its block alone.
        """
        return concat_apply_split(code_blocks, self.predict_matrix, axis=1)

    def truncated(self, n_trees: int) -> "PackedForest":
        """A pack over the first ``n_trees`` trees, sharing the arena arrays.

        Trees never reference nodes outside their own arena range, so a
        prefix ensemble only needs its ``roots`` sliced — node arrays are
        shared, not copied, which is what makes staged registry rollouts of
        truncated variants free.  ``max_depth`` is kept at the full pack's
        value: extra depth iterations leave settled rows on their
        self-looping leaves, so results stay bit-identical.
        """
        n_trees = int(n_trees)
        if not 0 <= n_trees <= self.n_trees:
            raise ValueError(f"n_trees must be in [0, {self.n_trees}], got {n_trees}")
        return PackedForest(
            feature=self.feature,
            threshold=self.threshold,
            left=self.left,
            value=self.value,
            roots=self.roots[:n_trees],
            max_depth=self.max_depth,
        )
