"""Vocabulary over graph nodes.

In the graph-learning setting the "words" are node ids, which are already
dense integers, so the vocabulary's job reduces to occurrence counting
(for the unigram^0.75 negative-sampling distribution) and optional
frequent-node subsampling (word2vec's ``t = 1e-3`` heuristic, which on
hub-dominated graphs keeps super-hubs from swamping the corpus).
"""

from __future__ import annotations

import numpy as np

from repro.errors import EmbeddingError
from repro.walk.corpus import WalkCorpus


class Vocabulary:
    """Node occurrence statistics over a walk corpus."""

    def __init__(self, counts: np.ndarray) -> None:
        self.counts = np.ascontiguousarray(counts, dtype=np.int64)
        if self.counts.ndim != 1:
            raise EmbeddingError("counts must be 1-D (one entry per node id)")
        if len(self.counts) and self.counts.min() < 0:
            raise EmbeddingError("counts must be non-negative")
        self.total = int(self.counts.sum())

    @classmethod
    def from_corpus(cls, corpus: WalkCorpus, num_nodes: int) -> "Vocabulary":
        """Count every node occurrence in the corpus."""
        return cls(corpus.node_frequencies(num_nodes))

    @property
    def num_nodes(self) -> int:
        """Number of nodes (vocabulary size)."""
        return len(self.counts)

    def frequency(self, node: int) -> float:
        """Relative corpus frequency of ``node``."""
        if self.total == 0:
            return 0.0
        return float(self.counts[node]) / self.total

    def unigram_weights(self, power: float = 0.75) -> np.ndarray:
        """The smoothed unigram distribution ``count^power`` (unnormalized).

        ``power=0.75`` is the word2vec negative-sampling smoothing; nodes
        absent from the corpus get weight 0 and are never drawn as
        negatives.
        """
        return self.counts.astype(np.float64) ** power

    def keep_probabilities(self, threshold: float = 1e-3) -> np.ndarray:
        """word2vec subsampling keep-probability per node.

        ``P_keep(w) = min(1, sqrt(t / f(w)) + t / f(w))`` where ``f`` is
        relative frequency.  Nodes rarer than the threshold are always
        kept.
        """
        if self.total == 0:
            return np.ones_like(self.counts, dtype=np.float64)
        freq = self.counts / self.total
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = threshold / np.where(freq > 0, freq, 1.0)
            keep = np.sqrt(ratio) + ratio
        return np.minimum(1.0, np.where(freq > 0, keep, 1.0))
