"""Node embedding results and the one-call training front door.

:class:`NodeEmbeddings` wraps the trained input matrix of the SGNS model
— the ``f : V -> R^d`` of Definition III.3 — with the lookups downstream
tasks need: per-node vectors, concatenated edge features (§IV-B: the
embedding of edge (u, v) is ``[f(u), f(v)]``), similarity queries, and
persistence.
"""

from __future__ import annotations

import os

import numpy as np

from repro.errors import EmbeddingError
from repro.rng import SeedLike
from repro.embedding.batched import BatchedSgnsTrainer
from repro.embedding.trainer import SgnsConfig, TrainerStats
from repro.walk.corpus import WalkCorpus


class NodeEmbeddings:
    """A ``(num_nodes, dim)`` embedding matrix with task-facing lookups."""

    def __init__(self, matrix: np.ndarray) -> None:
        self.matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        if self.matrix.ndim != 2:
            raise EmbeddingError("embedding matrix must be 2-D")

    @property
    def num_nodes(self) -> int:
        """Number of nodes (vocabulary size)."""
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        """Embedding dimensionality."""
        return self.matrix.shape[1]

    def __repr__(self) -> str:
        return f"NodeEmbeddings(num_nodes={self.num_nodes}, dim={self.dim})"

    # ------------------------------------------------------------------
    def vector(self, node: int) -> np.ndarray:
        """Embedding of one node (a view; copy before mutating)."""
        return self.matrix[node]

    def vectors(self, nodes: np.ndarray) -> np.ndarray:
        """Embeddings of many nodes, shape ``(len(nodes), dim)``."""
        return self.matrix[np.asarray(nodes, dtype=np.int64)]

    def edge_features(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Concatenated edge features ``[f(u), f(v)]`` (shape ``(n, 2d)``).

        This is the paper's edge representation for link prediction
        (§IV-B, following node2vec-style operators).
        """
        return np.concatenate([self.vectors(src), self.vectors(dst)], axis=1)

    # ------------------------------------------------------------------
    def cosine_similarity(self, a: int, b: int) -> float:
        """Cosine similarity between two node embeddings (0 if degenerate)."""
        va, vb = self.matrix[a], self.matrix[b]
        denom = np.linalg.norm(va) * np.linalg.norm(vb)
        if denom == 0:
            return 0.0
        return float(np.dot(va, vb) / denom)

    def most_similar(self, node: int, k: int = 5) -> list[tuple[int, float]]:
        """Top-``k`` nodes by cosine similarity (excluding ``node``)."""
        norms = np.linalg.norm(self.matrix, axis=1)
        target = self.matrix[node]
        tnorm = np.linalg.norm(target)
        with np.errstate(divide="ignore", invalid="ignore"):
            sims = (self.matrix @ target) / (norms * tnorm)
        sims = np.nan_to_num(sims, nan=-np.inf)
        sims[node] = -np.inf
        top = np.argsort(sims)[::-1][:k]
        return [(int(i), float(sims[i])) for i in top]

    # ------------------------------------------------------------------
    def save(self, path: str | os.PathLike) -> None:
        """Save to ``.npz``."""
        np.savez_compressed(path, matrix=self.matrix)

    @classmethod
    def load(cls, path: str | os.PathLike) -> "NodeEmbeddings":
        """Load from ``.npz`` written by :meth:`save`."""
        with np.load(path) as data:
            if "matrix" not in data.files:
                raise EmbeddingError(f"{path}: no 'matrix' array in bundle")
            return cls(data["matrix"])


def train_embeddings(
    corpus: WalkCorpus,
    num_nodes: int,
    config: SgnsConfig | None = None,
    batch_sentences: int = 1024,
    seed: SeedLike = None,
    objective: str = "negative-sampling",
) -> tuple[NodeEmbeddings, TrainerStats]:
    """Train node embeddings from a walk corpus (pipeline phase RW-P2).

    ``batch_sentences`` is the sentences per stale-snapshot update (the
    default 1024 is well inside Fig. 5's no-accuracy-loss regime; 1 is
    sentence-at-a-time).  ``objective`` is ``negative-sampling`` (the
    paper's) or ``hierarchical-softmax`` (word2vec's alternative output
    layer).  Returns the embeddings and the trainer's work statistics.
    """
    config = config or SgnsConfig()
    trainer = BatchedSgnsTrainer(config, batch_sentences, objective)
    model = trainer.train(corpus, num_nodes, seed=seed)
    assert trainer.last_stats is not None
    return NodeEmbeddings(model.w_in), trainer.last_stats
