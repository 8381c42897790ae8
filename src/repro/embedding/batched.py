"""The word2vec training loop (the paper's batched GPU design, §V-B).

The paper's key observation: temporal-walk "sentences" are short (Fig. 4),
so a sentence-at-a-time GPU word2vec launches huge numbers of tiny
kernels and starves the device.  Their fix batches many sentences per
kernel and lets all pairs in a batch read a *stale* snapshot of the
embedding matrices, relying on update sparsity to preserve accuracy; a
16k-sentence batch gave a 124.2x speedup with no accuracy loss (Fig. 5).

:class:`BatchedSgnsTrainer` is the exact numpy analogue and the library's
only training loop: it batches sentences, subsamples, generates pairs,
decays the learning rate and keeps the stats, while the model owns one
stale-snapshot step (``train_batch``: gradients against one weight
snapshot, then a single scatter).  ``batch_sentences=1`` is the
sentence-at-a-time baseline, so the Fig. 5 sweep is a single code path;
``objective`` picks negative sampling (:class:`SkipGramModel`) or
hierarchical softmax (:class:`HierarchicalSoftmaxModel`).
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
from repro.embedding.skipgram import SkipGramModel, generate_pairs
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
        sentences = list(corpus.sentences(min_length=2))
        stats = self.fit(sentences, vocab, model, rng)
        self.last_stats = stats
        publish_trainer_stats(stats)
        return model

    def fit(
        self,
        sentences: list[np.ndarray],
        vocab: Vocabulary,
        model: Model,
        rng: np.random.Generator,
    ) -> TrainerStats:
        """Train ``model`` in place over ``sentences``; returns the stats.

        ``vocab`` supplies the negative-sampling and subsampling
        distributions.  The stats are returned, not published;
        :meth:`train` publishes them.
        """
        cfg = self.config
        sampler = (NegativeSampler(vocab)
                   if self.objective == "negative-sampling" else None)
        keep = (
            vocab.keep_probabilities(cfg.subsample_threshold)
            if cfg.subsample_threshold is not None
            else None
        )
        pair_fp_ops = model.pair_fp_ops(cfg)
        size = self.batch_sentences
        total_batches = cfg.epochs * max(1, -(-len(sentences) // size))
        rec = get_recorder()
        track = rec.enabled
        stats = TrainerStats()
        loss_sum = 0.0
        batch_index = 0
        start = time.perf_counter()
        for epoch in range(cfg.epochs):
            with rec.span("sgns_epoch", epoch=epoch, trainer="batched"):
                for base in range(0, len(sentences), size):
                    batch = sentences[base: base + size]
                    centers_parts: list[np.ndarray] = []
                    contexts_parts: list[np.ndarray] = []
                    for sentence in batch:
                        if keep is not None:
                            sentence = vocab.subsample_sentence(
                                sentence, keep, rng
                            )
                            if len(sentence) < 2:
                                continue
                        c, o = generate_pairs(
                            sentence, cfg.window, rng, cfg.dynamic_window
                        )
                        if len(c):
                            centers_parts.append(c)
                            contexts_parts.append(o)
                    # Every visited batch advances the schedule, so the
                    # decay reaches its floor however much subsampling
                    # drops.
                    lr = self._lr(batch_index, total_batches)
                    batch_index += 1
                    stats.sentences += len(batch)
                    if not centers_parts:
                        continue
                    if track:
                        rec.observe("sgns.lr", lr)
                    centers = np.concatenate(centers_parts)
                    contexts = np.concatenate(contexts_parts)
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
