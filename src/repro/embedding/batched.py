"""The word2vec training loop (the paper's batched GPU design, §V-B).

The paper's key observation: temporal-walk "sentences" are short (Fig. 4),
so a sentence-at-a-time GPU word2vec launches huge numbers of tiny
kernels and starves the device.  Their fix batches many sentences per
kernel and lets all pairs in a batch read a *stale* snapshot of the
embedding matrices, relying on update sparsity to preserve accuracy; a
16k-sentence batch gave a 124.2x speedup with no accuracy loss (Fig. 5).

:class:`BatchedSgnsTrainer` is the exact numpy analogue and the library's
only training loop: it batches sentences, decays the learning rate and
keeps the stats, while the model owns one stale-snapshot step
(``train_batch``: gradients against one weight snapshot, then a single
scatter).  Pair building is batched too, for the same launch-overhead
reason one level up: each batch's subsampling and (center, context)
pairs come from one vectorized
:func:`~repro.embedding.skipgram.sentence_pairs` call over sentences
read straight from the walk matrix, not one call per sentence.
``batch_sentences=1`` is the sentence-at-a-time baseline, so the Fig. 5
sweep is a single code path; ``objective`` picks negative sampling
(:class:`SkipGramModel`) or hierarchical softmax
(:class:`HierarchicalSoftmaxModel`).
"""

from __future__ import annotations

import numbers
import time

import numpy as np

from repro.errors import EmbeddingError
from repro.observability import get_recorder
from repro.rng import SeedLike, make_rng
from repro.embedding.hsoftmax import HierarchicalSoftmaxModel
from repro.embedding.negative import NegativeSampler
from repro.embedding.skipgram import SkipGramModel, sentence_pairs
from repro.embedding.trainer import (
    SgnsConfig,
    TrainerStats,
    publish_trainer_stats,
)
from repro.embedding.vocab import Vocabulary
from repro.walk.corpus import WalkCorpus

OBJECTIVES = ("negative-sampling", "hierarchical-softmax")

Model = SkipGramModel | HierarchicalSoftmaxModel


class BatchedSgnsTrainer:
    """word2vec with one stale-snapshot update per batch of sentences."""

    def __init__(
        self,
        config: SgnsConfig,
        batch_sentences: int = 1024,
        objective: str = "negative-sampling",
    ) -> None:
        if (isinstance(batch_sentences, bool)
                or not isinstance(batch_sentences, numbers.Integral)
                or batch_sentences < 1):
            raise EmbeddingError(
                f"batch_sentences must be an int >= 1, got {batch_sentences!r}"
            )
        if objective not in OBJECTIVES:
            raise EmbeddingError(
                f"unknown objective {objective!r}; options: "
                "'negative-sampling', 'hierarchical-softmax'"
            )
        self.config = config
        self.batch_sentences = int(batch_sentences)
        self.objective = objective
        self.last_stats: TrainerStats | None = None

    def new_model(self, vocab: Vocabulary, rng: np.random.Generator) -> Model:
        """A freshly initialised model for this trainer's objective."""
        if self.objective == "hierarchical-softmax":
            return HierarchicalSoftmaxModel(vocab.counts, self.config.dim,
                                            seed=rng)
        return SkipGramModel(vocab.num_nodes, self.config.dim, seed=rng)

    def train(
        self,
        corpus: WalkCorpus,
        num_nodes: int,
        seed: SeedLike = None,
        model: Model | None = None,
    ) -> Model:
        """Train over the corpus; returns the (possibly new) model."""
        rng = make_rng(seed)
        vocab = Vocabulary.from_corpus(corpus, num_nodes)
        if model is None:
            model = self.new_model(vocab, rng)
        stats = self.fit(corpus, vocab, model, rng)
        self.last_stats = stats
        publish_trainer_stats(stats)
        return model

    def fit(
        self,
        corpus: WalkCorpus,
        vocab: Vocabulary,
        model: Model,
        rng: np.random.Generator,
    ) -> TrainerStats:
        """Train ``model`` in place over ``corpus``; returns the stats.

        The sentences are the walks of >= 2 nodes, read straight from
        the corpus matrix.  ``vocab`` supplies the negative-sampling and
        subsampling distributions.  The stats are returned, not
        published; :meth:`train` publishes them.
        """
        cfg = self.config
        sampler = (NegativeSampler(vocab)
                   if self.objective == "negative-sampling" else None)
        keep = (
            vocab.keep_probabilities(cfg.subsample_threshold)
            if cfg.subsample_threshold is not None
            else None
        )
        # Every sentence laid end to end: sentences i..j-1 are
        # tokens[bounds[i]:bounds[j]].
        is_sentence = corpus.lengths >= 2
        lengths = corpus.lengths[is_sentence]
        rows = corpus.matrix[is_sentence]
        tokens = rows[np.arange(rows.shape[1]) < lengths[:, None]]
        bounds = np.concatenate(([0], np.cumsum(lengths)))
        num_sentences = len(lengths)
        pair_fp_ops = model.pair_fp_ops(cfg)
        size = self.batch_sentences
        total_batches = cfg.epochs * max(1, -(-num_sentences // size))
        rec = get_recorder()
        track = rec.enabled
        stats = TrainerStats()
        loss_sum = 0.0
        batch_index = 0
        start = time.perf_counter()
        for epoch in range(cfg.epochs):
            with rec.span("sgns_epoch", epoch=epoch, trainer="batched"):
                for base in range(0, num_sentences, size):
                    stop = min(base + size, num_sentences)
                    centers, contexts = sentence_pairs(
                        tokens[bounds[base]:bounds[stop]],
                        lengths[base:stop], cfg.window, rng,
                        cfg.dynamic_window, keep,
                    )
                    # Every visited batch advances the schedule, so the
                    # decay reaches its floor however much subsampling
                    # drops.
                    lr = self._lr(batch_index, total_batches)
                    batch_index += 1
                    stats.sentences += stop - base
                    if not len(centers):
                        continue
                    if track:
                        rec.observe("sgns.lr", lr)
                    # All pairs read one snapshot; the model's single
                    # scatter is the stale concurrent update of §V-B.
                    loss, drawn = model.train_batch(
                        centers, contexts, lr, cfg, rng, sampler
                    )
                    stats.pairs_trained += len(centers)
                    stats.updates += 1
                    stats.fp_ops += len(centers) * pair_fp_ops
                    stats.negatives_drawn += drawn
                    # Pair-weighted: mean_loss is per pair at any batch
                    # size.
                    loss_sum += loss * len(centers)
                    stats.losses.append(loss)
        stats.wall_seconds = time.perf_counter() - start
        stats.mean_loss = loss_sum / max(1, stats.pairs_trained)
        return stats

    def _lr(self, batch_index: int, total_batches: int) -> float:
        """Linear decay over the whole schedule, floored."""
        cfg = self.config
        frac = batch_index / total_batches
        return max(cfg.min_learning_rate,
                   cfg.learning_rate * (1.0 - min(1.0, frac)))
