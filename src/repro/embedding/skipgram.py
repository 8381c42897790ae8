"""Skip-gram with negative sampling: model parameters and gradients.

The SGNS objective for a (center, context) pair with negatives
``n_1..n_K`` is

    L = -log sigma(v_c . u_o) - sum_k log sigma(-v_c . u_{n_k})

where ``v`` rows live in the input matrix (the embeddings the pipeline
keeps) and ``u`` rows in the output matrix.
:meth:`SkipGramModel.train_batch` is the model's whole share of a
training step; sentence batching, the learning-rate schedule and the
bookkeeping live in the one training loop,
:class:`repro.embedding.BatchedSgnsTrainer`, whose batch size decides
only *when* parameter updates become visible.
"""

from __future__ import annotations

import numpy as np

from repro.errors import EmbeddingError
from repro.rng import SeedLike, make_rng
from repro.embedding.negative import NegativeSampler
from repro.embedding.trainer import UPDATE_MODES, SgnsConfig


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sentence_pairs(
    tokens: np.ndarray,
    lengths: np.ndarray,
    window: int,
    rng: np.random.Generator,
    dynamic_window: bool = True,
    keep: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Emit (center, context) pairs from a batch of walks at once.

    ``tokens`` is the batch's sentences laid end to end and ``lengths``
    their lengths.  Mirrors word2vec: for each center position, the
    effective window shrinks to a uniform random ``b in [1, window]``
    (``dynamic_window``), which implicitly weights near contexts higher,
    and is clipped at the center's own sentence bounds.  A sentence of
    < 2 nodes yields no pairs and draws nothing.

    ``keep`` (per-node keep probabilities, see
    :meth:`Vocabulary.keep_probabilities`) subsamples frequent nodes
    first: one keep draw per token of the batch, then the span draws
    for the surviving sentences.

    Each draw is one call over the whole batch, which returns the
    concatenation of per-sentence draws and leaves the generator in the
    same state; so a one-sentence batch and, without ``keep``, a batch
    of any size emit exactly the pairs of their sentences taken one at
    a time.  Pair order is sentence, then center, then context.
    """
    tokens = np.ascontiguousarray(tokens, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    sentence_of = np.repeat(np.arange(len(lengths)), lengths)
    if keep is not None:
        kept = rng.random(len(tokens)) < keep[tokens]
        tokens = tokens[kept]
        sentence_of = sentence_of[kept]
        lengths = np.bincount(sentence_of, minlength=len(lengths))
    long = lengths >= 2
    if not long.all():
        tokens = tokens[long[sentence_of]]
        lengths = lengths[long]
    n = len(tokens)
    if dynamic_window:
        spans = rng.integers(1, window + 1, size=n)
    else:
        spans = np.full(n, window, dtype=np.int64)
    ends = np.cumsum(lengths)
    # Vectorized construction of the (center, context) stream in the
    # exact order of the natural double loop: centers ascend, and each
    # center's contexts ascend over [lo, hi) skipping the center itself.
    idx = np.arange(n, dtype=np.int64)
    lo = np.maximum(np.repeat(ends - lengths, lengths), idx - spans)
    hi = np.minimum(np.repeat(ends, lengths), idx + spans + 1)
    counts = hi - lo - 1  # the center position is excluded
    total = int(counts.sum())
    if total == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    center_idx = np.repeat(idx, counts)
    offsets = np.zeros(n, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    within = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
    context_idx = np.repeat(lo, counts) + within
    context_idx += context_idx >= center_idx  # hop over the center
    return (tokens[center_idx], tokens[context_idx])


def generate_pairs(
    sentence: np.ndarray,
    window: int,
    rng: np.random.Generator,
    dynamic_window: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Emit (center, context) pairs from one walk.

    The one-sentence case of :func:`sentence_pairs`; a sentence of < 2
    nodes yields no pairs and draws nothing.
    """
    return sentence_pairs(sentence, [len(sentence)], window, rng,
                          dynamic_window)


class SkipGramModel:
    """SGNS parameter matrices with batched loss/gradient evaluation."""

    def __init__(self, num_nodes: int, dim: int, seed: SeedLike = None) -> None:
        if num_nodes < 1:
            raise EmbeddingError(f"num_nodes must be >= 1, got {num_nodes}")
        if dim < 1:
            raise EmbeddingError(f"dim must be >= 1, got {dim}")
        rng = make_rng(seed)
        # word2vec initialization: small uniform input vectors, zero output.
        self.w_in = (rng.random((num_nodes, dim)) - 0.5) / dim
        self.w_out = np.zeros((num_nodes, dim), dtype=np.float64)

    @property
    def num_nodes(self) -> int:
        """Number of nodes (vocabulary size)."""
        return self.w_in.shape[0]

    @property
    def dim(self) -> int:
        """Embedding dimensionality."""
        return self.w_in.shape[1]

    def grow(self, new_num_nodes: int, seed: SeedLike = None) -> None:
        """Extend the vocabulary to ``new_num_nodes`` rows in place.

        New input rows get the standard word2vec small-uniform init and
        new output rows zeros; existing rows are untouched.  Used by the
        incremental pipeline when appended edges introduce unseen nodes.
        """
        if new_num_nodes < self.num_nodes:
            raise EmbeddingError(
                f"cannot shrink vocabulary from {self.num_nodes} to "
                f"{new_num_nodes}"
            )
        if new_num_nodes == self.num_nodes:
            return
        rng = make_rng(seed)
        extra = new_num_nodes - self.num_nodes
        new_in = (rng.random((extra, self.dim)) - 0.5) / self.dim
        self.w_in = np.vstack([self.w_in, new_in])
        self.w_out = np.vstack(
            [self.w_out, np.zeros((extra, self.dim), dtype=np.float64)]
        )

    # ------------------------------------------------------------------
    def batch_gradients(
        self,
        centers: np.ndarray,
        contexts: np.ndarray,
        negatives: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """Evaluate gradients for a batch of pairs against *current* weights.

        ``centers``/``contexts`` have shape ``(B,)``; ``negatives`` has
        shape ``(B, K)``.  Returns ``(grad_center, grad_context,
        grad_negatives, mean_loss)`` where gradient shapes match the
        corresponding embedding gathers.  All pairs read the same weight
        snapshot — applying these with a scatter-add is exactly the stale
        "concurrent model update" the paper's batched GPU kernel performs.
        """
        v_c = self.w_in[centers]           # (B, d)
        u_o = self.w_out[contexts]         # (B, d)
        u_n = self.w_out[negatives]        # (B, K, d)

        pos_score = np.einsum("bd,bd->b", v_c, u_o)
        neg_score = np.einsum("bd,bkd->bk", v_c, u_n)

        pos_sig = sigmoid(pos_score)           # want -> 1
        neg_sig = sigmoid(neg_score)           # want -> 0

        # dL/dscore: (sigma - target)
        pos_err = (pos_sig - 1.0)[:, None]      # (B, 1)
        neg_err = neg_sig[:, :, None]           # (B, K, 1)

        grad_context = pos_err * v_c                       # (B, d)
        grad_negatives = neg_err * v_c[:, None, :]         # (B, K, d)
        grad_center = pos_err * u_o + np.einsum("bk,bkd->bd", neg_sig, u_n)

        with np.errstate(divide="ignore"):
            loss = -np.log(np.maximum(pos_sig, 1e-12)) - np.sum(
                np.log(np.maximum(1.0 - neg_sig, 1e-12)), axis=1
            )
        return grad_center, grad_context, grad_negatives, float(loss.mean())

    def train_batch(
        self,
        centers: np.ndarray,
        contexts: np.ndarray,
        lr: float,
        config: SgnsConfig,
        rng: np.random.Generator,
        sampler: NegativeSampler,
    ) -> tuple[float, int]:
        """One stale-snapshot step over a batch of pairs.

        Draws the negatives — one set of K shared by the whole batch
        under ``config.shared_negatives``, else K per pair — evaluates
        every pair against the current weights and applies one scatter.
        Returns ``(mean pair loss, negatives drawn)``.
        """
        k = config.negatives
        if config.shared_negatives:
            negatives = np.broadcast_to(
                sampler.sample(k, rng), (len(centers), k)
            ).copy()
            drawn = k
        else:
            negatives = sampler.sample_matrix(len(centers), k, rng)
            drawn = len(centers) * k
        gc, go, gn, loss = self.batch_gradients(centers, contexts, negatives)
        self.apply_batch(
            centers, contexts, negatives, gc, go, gn, lr,
            update=config.update_mode, cap=config.update_cap,
        )
        return loss, drawn

    def pair_fp_ops(self, config: SgnsConfig) -> int:
        """Multiply-adds per pair: ``(1 + K)`` rows of ``4d`` each."""
        return (1 + config.negatives) * 4 * config.dim

    def apply_batch(
        self,
        centers: np.ndarray,
        contexts: np.ndarray,
        negatives: np.ndarray,
        grad_center: np.ndarray,
        grad_context: np.ndarray,
        grad_negatives: np.ndarray,
        lr: float,
        update: str = "capped",
        cap: int = 128,
    ) -> None:
        """Apply the batch's gradients with one scatter per matrix.

        Modes control how gradients landing on the same embedding row
        combine — the knob that decides how faithful the batch is to
        hogwild's sequential-apply semantics on power-law graphs, where a
        hub row appears in thousands of pairs per batch:

        - ``"sum"`` — plain accumulation: exact for distinct rows but
          compounds on hubs and can diverge on power-law graphs (shown by
          the ``bench_ablation_w2v_update`` experiment);
        - ``"mean"`` — each row moves one pair-sized step per batch:
          unconditionally stable but starves hub rows of progress;
        - ``"sqrt"`` — divides by ``sqrt(count)``: sublinear hub steps;
        - ``"capped"`` (default) — full sum up to ``cap`` contributions
          per row, then scaled down proportionally (equivalently
          ``mean * min(count, cap)``).  This mirrors what racy concurrent
          GPU updates achieve in practice — cold rows get exact hogwild
          progress, hot rows saturate — and it is the mode that matches
          the paper's "batching costs no accuracy" result on both
          community graphs and hub-heavy interaction graphs.
        """
        self._scatter(self.w_in, centers, grad_center, lr, update, cap)
        flat_neg = negatives.reshape(-1)
        out_rows = np.concatenate([contexts, flat_neg])
        out_grads = np.concatenate(
            [grad_context, grad_negatives.reshape(len(flat_neg), -1)], axis=0
        )
        self._scatter(self.w_out, out_rows, out_grads, lr, update, cap)

    @staticmethod
    def _scatter(
        matrix: np.ndarray,
        rows: np.ndarray,
        grads: np.ndarray,
        lr: float,
        update: str,
        cap: int,
    ) -> None:
        if update not in UPDATE_MODES:
            raise EmbeddingError(
                f"update must be one of {UPDATE_MODES}; got {update!r}"
            )
        if not len(rows):
            return  # bincount of no weights would be an int array
        # ``np.unique(rows, return_inverse=True)`` and its counts, read
        # off one histogram over the matrix rows.
        hist = np.bincount(rows, minlength=matrix.shape[0])
        present = hist > 0
        uniq = np.flatnonzero(present)
        inverse = (np.cumsum(present) - 1)[rows]
        counts = hist[uniq]
        # ``np.add.at(acc, inverse, grads)`` as one weighted bincount:
        # each bin sums its contributions into zero in input order, as
        # ``add.at`` does, so the sums are the same bytes.
        d = matrix.shape[1]
        acc = np.bincount(
            (inverse[:, None] * d + np.arange(d)).ravel(),
            weights=grads.ravel(), minlength=len(uniq) * d,
        ).reshape(len(uniq), d)
        if update == "mean":
            acc /= counts[:, None]
        elif update == "sqrt":
            acc /= np.sqrt(counts)[:, None]
        elif update == "capped":
            acc /= np.maximum(1.0, counts / cap)[:, None]
        matrix[uniq] -= lr * acc

    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Persist both matrices (resume incremental training later)."""
        np.savez_compressed(path, w_in=self.w_in, w_out=self.w_out)

    @classmethod
    def load(cls, path) -> "SkipGramModel":
        """Load a model saved by :meth:`save`."""
        with np.load(path) as data:
            missing = {"w_in", "w_out"} - set(data.files)
            if missing:
                raise EmbeddingError(
                    f"{path}: missing arrays {sorted(missing)}"
                )
            model = cls.__new__(cls)
            model.w_in = np.ascontiguousarray(data["w_in"],
                                              dtype=np.float64)
            model.w_out = np.ascontiguousarray(data["w_out"],
                                               dtype=np.float64)
            if model.w_in.shape != model.w_out.shape:
                raise EmbeddingError(
                    f"{path}: w_in {model.w_in.shape} and w_out "
                    f"{model.w_out.shape} shapes differ"
                )
            return model

    # ------------------------------------------------------------------
    def pair_loss(self, center: int, context: int, negatives: np.ndarray) -> float:
        """Loss of a single pair (used by gradient-check tests)."""
        _, _, _, loss = self.batch_gradients(
            np.array([center]), np.array([context]),
            np.asarray(negatives, dtype=np.int64)[None, :],
        )
        return loss
