"""Data-parallel SGNS with periodic parameter averaging.

The paper's batched GPU word2vec (§V-B) lets all pairs in a batch read
a *stale* snapshot of the embedding matrices and relies on update
sparsity for accuracy.  :class:`ParallelSgnsTrainer` takes the same
idea one level up: sentences are sharded round-robin across worker
processes, every worker trains its shard against a private snapshot of
the model for one epoch (its updates are stale with respect to the
other workers'), and the parent averages the returned parameter
matrices between epochs.  This is the classic parameter-averaging SGD
layout; with SGNS's sparse touches, one-epoch staleness degrades
accuracy about as little as the in-batch staleness the paper measures.

Each worker runs :class:`BatchedSgnsTrainer`'s own loop over its shard,
so both objectives and every config knob behave as in a serial run.
``workers=1`` is the serial trainer unchanged (bit-identical results);
``workers=N`` is deterministic for fixed ``N`` — worker seeds come from
``SeedSequence.spawn`` on the root seed and shard results are combined
in worker order.
"""

from __future__ import annotations

import copy
import time

import numpy as np

from repro.errors import EmbeddingError
from repro.faults import FaultPlan
from repro.observability import get_recorder, use_recorder
from repro.rng import SeedLike, make_rng
from repro.embedding.batched import BatchedSgnsTrainer, Model
from repro.embedding.trainer import (
    SgnsConfig,
    TrainerStats,
    publish_trainer_stats,
)
from repro.embedding.vocab import Vocabulary
from repro.parallel.supervisor import (
    ShardReport,
    SupervisorConfig,
    _mp_context,
    run_supervised,
)
from repro.walk.corpus import WalkCorpus


def _train_shard(
    trainer: BatchedSgnsTrainer,
    sentences: list[np.ndarray],
    counts: np.ndarray,
    model: Model,
    seed_seq: np.random.SeedSequence,
    lr_window: tuple[float, float],
) -> tuple[Model, TrainerStats]:
    """Worker body: one epoch of the shared training loop over one shard.

    ``counts`` are the *global* corpus node frequencies, so every
    worker negative-samples from the same unigram^0.75 distribution
    and applies the same subsampling keep-probabilities as a serial
    run would.  ``lr_window`` is this epoch's slice of the global
    learning-rate schedule.  The model is copied, so the in-process
    fallback leaves the caller's snapshot untouched, and the shard
    records nothing: the parent publishes the merged run once.
    """
    model = copy.deepcopy(model)
    with use_recorder(None):
        stats = trainer.fit(
            sentences, Vocabulary(counts), model,
            np.random.default_rng(seed_seq), epochs=1, lr_window=lr_window,
        )
    return model, stats


class ParallelSgnsTrainer:
    """Sentence-sharded word2vec across processes, averaging each epoch.

    Wraps one :class:`BatchedSgnsTrainer` (same ``train`` signature,
    same :class:`TrainerStats` contract: ``mean_loss`` per-pair; work
    counters summed over workers; ``losses`` holds every worker's
    per-update trace in worker order, epoch by epoch).
    """

    def __init__(
        self,
        config: SgnsConfig,
        workers: int,
        batch_sentences: int = 1024,
        supervisor: SupervisorConfig | None = None,
        fault_plan: FaultPlan | None = None,
        objective: str = "negative-sampling",
    ) -> None:
        if workers < 1:
            raise EmbeddingError(f"workers must be >= 1, got {workers}")
        self.trainer = BatchedSgnsTrainer(config, batch_sentences, objective)
        self.config = config
        self.workers = workers
        self.supervisor = supervisor
        self.fault_plan = fault_plan
        self.last_stats: TrainerStats | None = None
        self.last_shard_reports: list[ShardReport] = []

    # ------------------------------------------------------------------
    def train(
        self,
        corpus: WalkCorpus,
        num_nodes: int,
        seed: SeedLike = None,
        model: Model | None = None,
    ) -> Model:
        """Train over the corpus; returns the (possibly new) model."""
        if self.workers == 1:
            result = self.trainer.train(corpus, num_nodes, seed=seed,
                                        model=model)
            self.last_stats = self.trainer.last_stats
            return result

        cfg = self.config
        rng = make_rng(seed)
        vocab = Vocabulary.from_corpus(corpus, num_nodes)
        if model is None:
            model = self.trainer.new_model(vocab, rng)

        stats = TrainerStats()
        start = time.perf_counter()
        sentences = list(corpus.sentences(min_length=2))
        # Round-robin sharding balances shard token counts even when
        # walk lengths are skewed (consecutive walks share a start
        # node, so contiguous shards would be imbalanced).
        shards = [sentences[w::self.workers] for w in range(self.workers)]
        shards = [s for s in shards if s]
        seed_seqs = rng.bit_generator.seed_seq.spawn(
            max(1, len(shards)) * cfg.epochs
        )

        ctx = _mp_context()
        rec = get_recorder()
        loss_sum = 0.0
        self.last_shard_reports = []
        for epoch in range(cfg.epochs):
            window = (epoch / cfg.epochs, (epoch + 1) / cfg.epochs)
            jobs = [
                (self.trainer, shard, vocab.counts, model,
                 seed_seqs[epoch * len(shards) + w], window)
                for w, shard in enumerate(shards)
            ]
            # Supervised execution: a crashed/hung/corrupted worker is
            # retried with the same seed material, and an incurable
            # shard runs in-process (``_train_shard`` is pure, so the
            # fallback is bit-identical to the worker path).
            with rec.span("sgns_epoch", epoch=epoch, trainer="parallel",
                          workers=len(shards)):
                results, reports = run_supervised(
                    _train_shard,
                    jobs,
                    workers=len(shards),
                    supervisor=self.supervisor,
                    serial_fn=_train_shard,
                    site="sgns",
                    fault_plan=self.fault_plan,
                    mp_context=ctx,
                )
            self.last_shard_reports.extend(reports)
            # Parameter averaging: every worker's epoch is stale
            # with respect to the others; the mean is the sync
            # point (the §V-B stale-read trick across processes).
            for name in model.PARAMETERS:
                setattr(model, name, np.mean(
                    [getattr(shard_model, name) for shard_model, _ in results],
                    axis=0,
                ))
            for _, shard_stats in results:
                stats.pairs_trained += shard_stats.pairs_trained
                stats.sentences += shard_stats.sentences
                stats.updates += shard_stats.updates
                stats.fp_ops += shard_stats.fp_ops
                stats.negatives_drawn += shard_stats.negatives_drawn
                loss_sum += shard_stats.mean_loss * shard_stats.pairs_trained
                stats.losses.extend(shard_stats.losses)

        stats.wall_seconds = time.perf_counter() - start
        stats.mean_loss = loss_sum / max(1, stats.pairs_trained)
        self.last_stats = stats
        publish_trainer_stats(stats)
        return model
