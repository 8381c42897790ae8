"""Hierarchical-softmax word2vec (the alternative to negative sampling).

word2vec offers two output objectives; the paper's implementations use
negative sampling (§IV-A.2), but hierarchical softmax is part of the
word2vec framework it builds on and gives the library a second,
structurally different objective for ablation: O(log V) binary decisions
along a Huffman path instead of K sampled negatives.

The loss for a (center c, context o) pair is

    L = -sum_i log sigmoid( (1 - 2 b_i) * v_c . u_{n_i} )

where ``n_i`` are the inner tree nodes on o's root-to-leaf path and
``b_i`` the branch bits.  Frequent nodes get short codes (cheap updates),
which on power-law walk corpora concentrates work exactly like hub rows
do under negative sampling.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.errors import EmbeddingError
from repro.nn.layers import sigmoid
from repro.rng import SeedLike, make_rng
from repro.embedding.negative import NegativeSampler
from repro.embedding.skipgram import SkipGramModel
from repro.embedding.trainer import SgnsConfig


class HuffmanTree:
    """Huffman coding of node ids weighted by corpus frequency.

    Exposes per-leaf padded path/code matrices so batched training can
    gather them without Python loops:

    - ``paths``: ``(V, max_code_length)`` inner-node ids, padded with 0;
    - ``codes``: same shape, branch bits, padded with 0;
    - ``code_lengths``: true path length per leaf.
    """

    def __init__(self, counts: np.ndarray) -> None:
        counts = np.ascontiguousarray(counts, dtype=np.int64)
        if counts.ndim != 1 or len(counts) == 0:
            raise EmbeddingError("counts must be a non-empty 1-D array")
        if counts.min() < 0:
            raise EmbeddingError("counts must be non-negative")
        self.num_leaves = len(counts)
        # Zero-count leaves still need codes (they may appear as centers
        # of inference-time queries); give them weight 1.
        weights = np.maximum(counts, 1)

        num_inner = max(1, self.num_leaves - 1)
        parent = np.zeros(self.num_leaves + num_inner, dtype=np.int64)
        branch = np.zeros(self.num_leaves + num_inner, dtype=np.int8)

        heap: list[tuple[int, int]] = [
            (int(w), i) for i, w in enumerate(weights)
        ]
        heapq.heapify(heap)
        next_inner = self.num_leaves
        while len(heap) > 1:
            w0, n0 = heapq.heappop(heap)
            w1, n1 = heapq.heappop(heap)
            parent[n0] = next_inner
            parent[n1] = next_inner
            branch[n0] = 0
            branch[n1] = 1
            heapq.heappush(heap, (w0 + w1, next_inner))
            next_inner += 1
        self._root = heap[0][1] if heap else 0
        self._num_inner_used = next_inner - self.num_leaves

        # Walk each leaf up to the root, then reverse to root-to-leaf.
        raw_paths: list[list[int]] = []
        raw_codes: list[list[int]] = []
        for leaf in range(self.num_leaves):
            path: list[int] = []
            code: list[int] = []
            node = leaf
            while node != self._root and self._num_inner_used > 0:
                path.append(int(parent[node]) - self.num_leaves)
                code.append(int(branch[node]))
                node = int(parent[node])
            path.reverse()
            code.reverse()
            raw_paths.append(path)
            raw_codes.append(code)

        self.code_lengths = np.array([len(p) for p in raw_paths],
                                     dtype=np.int64)
        self.max_code_length = max(1, int(self.code_lengths.max()))
        self.paths = np.zeros((self.num_leaves, self.max_code_length),
                              dtype=np.int64)
        self.codes = np.zeros((self.num_leaves, self.max_code_length),
                              dtype=np.int8)
        for leaf, (path, code) in enumerate(zip(raw_paths, raw_codes)):
            self.paths[leaf, : len(path)] = path
            self.codes[leaf, : len(code)] = code

    @property
    def num_inner(self) -> int:
        """Number of inner (non-leaf) tree nodes."""
        return max(1, self._num_inner_used)

    def mean_code_length(self, counts: np.ndarray) -> float:
        """Frequency-weighted mean code length (the expected work/pair)."""
        counts = np.asarray(counts, dtype=np.float64)
        total = counts.sum()
        if total == 0:
            return float(self.code_lengths.mean())
        return float(np.dot(self.code_lengths, counts) / total)


class HierarchicalSoftmaxModel:
    """Skip-gram with a hierarchical-softmax output layer."""

    def __init__(self, counts: np.ndarray, dim: int,
                 seed: SeedLike = None) -> None:
        if dim < 1:
            raise EmbeddingError(f"dim must be >= 1, got {dim}")
        rng = make_rng(seed)
        self.tree = HuffmanTree(counts)
        num_nodes = self.tree.num_leaves
        self.w_in = (rng.random((num_nodes, dim)) - 0.5) / dim
        self.w_inner = np.zeros((self.tree.num_inner, dim), dtype=np.float64)

    @property
    def num_nodes(self) -> int:
        """Number of nodes (vocabulary size)."""
        return self.w_in.shape[0]

    @property
    def dim(self) -> int:
        """Embedding dimensionality."""
        return self.w_in.shape[1]

    # ------------------------------------------------------------------
    def batch_gradients(
        self, centers: np.ndarray, contexts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
        """Gradients for a batch of pairs against the current weights.

        Returns ``(grad_center, grad_inner, paths, mask, mean_loss)``:
        ``grad_inner`` has shape ``(B, L, d)`` aligned with ``paths``
        ``(B, L)``; padded path positions carry zero gradient via
        ``mask``.
        """
        tree = self.tree
        paths = tree.paths[contexts]                    # (B, L)
        codes = tree.codes[contexts].astype(np.float64)  # (B, L)
        lengths = tree.code_lengths[contexts]
        mask = (
            np.arange(tree.max_code_length)[None, :] < lengths[:, None]
        ).astype(np.float64)

        v_c = self.w_in[centers]                        # (B, d)
        u_n = self.w_inner[paths]                       # (B, L, d)
        scores = np.einsum("bd,bld->bl", v_c, u_n)      # (B, L)
        # Target for sigmoid(score) is 1 when the branch bit is 0.
        sig = sigmoid(scores)
        err = (sig - (1.0 - codes)) * mask              # dL/dscore

        grad_center = np.einsum("bl,bld->bd", err, u_n)
        grad_inner = err[:, :, None] * v_c[:, None, :]

        with np.errstate(divide="ignore"):
            probs = np.where(codes > 0.5, 1.0 - sig, sig)
            loss = -(np.log(np.maximum(probs, 1e-12)) * mask).sum(axis=1)
        return grad_center, grad_inner, paths, mask, float(loss.mean())

    def train_batch(
        self,
        centers: np.ndarray,
        contexts: np.ndarray,
        lr: float,
        config: SgnsConfig,
        rng: np.random.Generator,
        sampler: NegativeSampler | None = None,
    ) -> tuple[float, int]:
        """One stale-snapshot step over a batch of pairs.

        The same contract as :meth:`SkipGramModel.train_batch`; the tree
        path replaces sampled negatives, so ``rng`` and ``sampler`` go
        unused and no negatives are drawn.
        """
        gc, gi, paths, mask, loss = self.batch_gradients(centers, contexts)
        self.apply_batch(
            centers, gc, gi, paths, mask, lr,
            update=config.update_mode, cap=config.update_cap,
        )
        return loss, 0

    def pair_fp_ops(self, config: SgnsConfig) -> int:
        """Multiply-adds per pair: one ``4d`` row per (padded) path node."""
        return self.tree.max_code_length * 4 * config.dim

    def apply_batch(
        self,
        centers: np.ndarray,
        grad_center: np.ndarray,
        grad_inner: np.ndarray,
        paths: np.ndarray,
        mask: np.ndarray,
        lr: float,
        update: str = "capped",
        cap: int = 128,
    ) -> None:
        """Scatter updates with the same combining modes as SGNS."""
        SkipGramModel._scatter(self.w_in, centers, grad_center, lr,
                               update, cap)
        flat_rows = paths.reshape(-1)
        flat_grads = grad_inner.reshape(len(flat_rows), -1)
        keep = mask.reshape(-1) > 0
        SkipGramModel._scatter(
            self.w_inner, flat_rows[keep], flat_grads[keep], lr, update, cap
        )

    # ------------------------------------------------------------------
    def pair_loss(self, center: int, context: int) -> float:
        """Loss of one pair (for gradient-check tests)."""
        *_, loss = self.batch_gradients(
            np.array([center]), np.array([context])
        )
        return loss

    def context_probability(self, center: int, context: int) -> float:
        """Exact P(context | center) under the hierarchical softmax."""
        tree = self.tree
        length = int(tree.code_lengths[context])
        prob = 1.0
        v_c = self.w_in[center]
        for i in range(length):
            inner = tree.paths[context, i]
            score = float(np.dot(v_c, self.w_inner[inner]))
            p = 1.0 / (1.0 + np.exp(-score))
            prob *= p if tree.codes[context, i] == 0 else (1.0 - p)
        return prob
