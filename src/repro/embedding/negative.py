"""Negative sampling for SGNS.

word2vec draws "negative" context nodes from the smoothed unigram
distribution ``P(w) proportional to count(w)^0.75``.  We implement the
draw with Walker's alias method: O(1) per sample, and a build that takes
O(nonzero weights) interpreter steps plus O(V) vectorised work, because
a trainer rebuilds the table on every call and an online refresh trains
a vocabulary that is mostly zero-count nodes.
"""

from __future__ import annotations

import numpy as np

from repro.errors import EmbeddingError
from repro.rng import SeedLike, make_rng
from repro.embedding.vocab import Vocabulary


class AliasTable:
    """Walker alias method for O(1) categorical sampling.

    Build from any finite non-negative weight vector; ``sample(n, rng)``
    draws ``n`` iid indices with probability proportional to the weights.
    """

    def __init__(self, weights: np.ndarray) -> None:
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        if weights.ndim != 1 or len(weights) == 0:
            raise EmbeddingError("weights must be a non-empty 1-D array")
        if not np.isfinite(weights).all():
            raise EmbeddingError("weights must be finite (no NaN or inf)")
        if weights.min() < 0:
            raise EmbeddingError("weights must be non-negative")
        total = weights.sum()
        if not np.isfinite(total):
            raise EmbeddingError("weights must have a finite sum")
        if total <= 0:
            raise EmbeddingError("weights must not all be zero")
        n = len(weights)
        prob = weights * (n / total)
        self.prob = np.ones(n, dtype=np.float64)
        self.alias = np.arange(n, dtype=np.int64)

        # Vose's method with its stacks kept implicit: ``small`` and
        # ``large`` are ascending and popped from the end, and a large
        # that drops below 1 is pushed and popped next, so each stack is
        # its sorted prefix plus at most one node on top.  Leftovers keep
        # prob 1.0 and their own index.
        small = np.flatnonzero(prob < 1.0)
        large = np.flatnonzero(prob >= 1.0)
        # Zero-probability smalls come in runs between the nonzero ones
        # (at positions ``nz_pos`` of ``small``).  A zero's deficit is
        # exactly 1.0, and ``v - 1.0`` is exact for 1 <= v < 2**53 (v
        # never exceeds about n), so a large of value ``v`` absorbs
        # ``take = min(run, floor(v))`` zeros in one step and is left
        # with exactly ``v - take``, as the one-at-a-time loop leaves it.
        nz_pos = np.flatnonzero(prob[small] != 0.0)
        nz_val = prob[small[nz_pos]].tolist()
        nz_pos = nz_pos.tolist()
        large_val = prob[large].tolist()
        large = large.tolist()
        # Each pop from ``small`` (a zero run, or one nonzero) in order.
        chunk_len: list[int] = []
        chunk_alias: list[int] = []
        # Each large that dropped below 1: (node, residual, alias).
        res_idx: list[int] = []
        res_prob: list[float] = []
        res_alias: list[int] = []
        top = len(small)          # small[:top] are still on the stack
        k = len(nz_pos) - 1       # nz_pos[k] is the highest below top
        li = len(large)           # large[:li] are still on the stack
        pending = -1              # a former large below 1, popped next
        pending_v = 0.0
        cur = -1                  # the large on top, with value v
        v = 0.0
        while pending >= 0 or top > 0:
            if cur < 0:
                if li == 0:
                    break
                li -= 1
                cur = large[li]
                v = large_val[li]
            if pending >= 0:
                res_idx.append(pending)
                res_prob.append(pending_v)
                res_alias.append(cur)
                v = v - (1.0 - pending_v)
                pending = -1
            elif k >= 0 and nz_pos[k] == top - 1:
                chunk_len.append(1)
                chunk_alias.append(cur)
                v = v - (1.0 - nz_val[k])
                k -= 1
                top -= 1
            else:
                run = top - 1 - (nz_pos[k] if k >= 0 else -1)
                take = min(run, int(v))
                chunk_len.append(take)
                chunk_alias.append(cur)
                v = v - take
                top -= take
            if v < 1.0:
                pending = cur
                pending_v = v
                cur = -1
        popped = small[top:][::-1]
        self.prob[popped] = prob[popped]
        self.alias[popped] = np.repeat(chunk_alias, chunk_len)
        self.prob[res_idx] = res_prob
        self.alias[res_idx] = res_alias

    def __len__(self) -> int:
        return len(self.prob)

    def sample(self, size: int, rng_or_seed: SeedLike = None) -> np.ndarray:
        """Draw ``size`` iid indices from the weighted distribution."""
        rng = make_rng(rng_or_seed)
        slots = rng.integers(0, len(self.prob), size=size)
        accept = rng.random(size) < self.prob[slots]
        return np.where(accept, slots, self.alias[slots])

    def probabilities(self) -> np.ndarray:
        """Reconstruct the exact distribution the table samples from.

        Each slot contributes ``prob/n`` to itself and ``(1-prob)/n`` to
        its alias; used by property tests to verify the construction.
        """
        n = len(self.prob)
        out = np.zeros(n, dtype=np.float64)
        np.add.at(out, np.arange(n), self.prob / n)
        np.add.at(out, self.alias, (1.0 - self.prob) / n)
        return out


class NegativeSampler:
    """Draws negative context nodes from the unigram^0.75 distribution."""

    def __init__(self, vocab: Vocabulary, power: float = 0.75) -> None:
        weights = vocab.unigram_weights(power)
        if weights.sum() <= 0:
            raise EmbeddingError(
                "corpus is empty: no node has positive frequency to sample"
            )
        self.table = AliasTable(weights)

    def sample(self, size: int, rng_or_seed: SeedLike = None) -> np.ndarray:
        """Draw ``size`` negative node ids (iid, may repeat)."""
        return self.table.sample(size, rng_or_seed)

    def sample_matrix(
        self, rows: int, cols: int, rng_or_seed: SeedLike = None
    ) -> np.ndarray:
        """Draw a ``(rows, cols)`` matrix of negatives (one row per pair)."""
        return self.sample(rows * cols, rng_or_seed).reshape(rows, cols)
