"""Unit tests for the SGNS trainer at batch size 1 and at larger batches."""

import numpy as np
import pytest

from repro.errors import EmbeddingError
from repro.embedding import BatchedSgnsTrainer, SgnsConfig, train_embeddings


class TestSgnsConfig:
    def test_defaults_match_paper(self):
        cfg = SgnsConfig()
        assert cfg.dim == 8  # Fig. 8d's saturation point

    @pytest.mark.parametrize("field,value", [
        ("dim", 0), ("window", 0), ("negatives", 0), ("epochs", 0),
        ("learning_rate", 0.0), ("min_learning_rate", -1),
        ("subsample_threshold", -1), ("subsample_threshold", 0.0),
        ("update_mode", "bogus"), ("update_cap", 0),
        ("dynamic_window", "yes"), ("shared_negatives", 1),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(EmbeddingError):
            SgnsConfig(**{field: value})


def _sentence_at_a_time(config: SgnsConfig) -> BatchedSgnsTrainer:
    return BatchedSgnsTrainer(config, batch_sentences=1)


class TestSequentialTrainer:
    """The trainer at ``batch_sentences=1``: one update per sentence."""

    def test_loss_decreases(self, email_corpus, email_graph):
        trainer = _sentence_at_a_time(SgnsConfig(dim=8, epochs=2))
        trainer.train(email_corpus, email_graph.num_nodes, seed=1)
        stats = trainer.last_stats
        first = np.mean(stats.losses[:20])
        last = np.mean(stats.losses[-20:])
        assert last < first

    def test_stats_counters(self, email_corpus, email_graph):
        trainer = _sentence_at_a_time(SgnsConfig(dim=4, epochs=1))
        trainer.train(email_corpus, email_graph.num_nodes, seed=1)
        stats = trainer.last_stats
        assert stats.pairs_trained > 0
        assert stats.updates == stats.sentences  # one update per sentence
        assert stats.fp_ops > 0
        assert stats.wall_seconds > 0

    def test_deterministic_by_seed(self, email_corpus, email_graph):
        a = _sentence_at_a_time(SgnsConfig(dim=4, epochs=1)).train(
            email_corpus, email_graph.num_nodes, seed=2
        )
        b = _sentence_at_a_time(SgnsConfig(dim=4, epochs=1)).train(
            email_corpus, email_graph.num_nodes, seed=2
        )
        assert np.allclose(a.w_in, b.w_in)

    def test_subsampling_reduces_pairs(self, email_corpus, email_graph):
        plain = _sentence_at_a_time(SgnsConfig(dim=4, epochs=1))
        plain.train(email_corpus, email_graph.num_nodes, seed=3)
        sub = _sentence_at_a_time(
            SgnsConfig(dim=4, epochs=1, subsample_threshold=1e-4)
        )
        sub.train(email_corpus, email_graph.num_nodes, seed=3)
        assert sub.last_stats.pairs_trained < plain.last_stats.pairs_trained


class TestBatchedTrainer:
    def test_one_update_per_batch(self, email_corpus, email_graph):
        trainer = BatchedSgnsTrainer(SgnsConfig(dim=4, epochs=1),
                                     batch_sentences=128)
        trainer.train(email_corpus, email_graph.num_nodes, seed=1)
        sentences = sum(1 for _ in email_corpus.sentences(min_length=2))
        expected_batches = -(-sentences // 128)
        assert trainer.last_stats.updates <= expected_batches

    def test_loss_decreases(self, email_corpus, email_graph):
        trainer = BatchedSgnsTrainer(SgnsConfig(dim=8, epochs=3),
                                     batch_sentences=256)
        trainer.train(email_corpus, email_graph.num_nodes, seed=1)
        losses = trainer.last_stats.losses
        assert losses[-1] < losses[0]

    def test_invalid_batch_size(self):
        for bad in (0, -1, None, 2.5, True):
            with pytest.raises(EmbeddingError):
                BatchedSgnsTrainer(SgnsConfig(), batch_sentences=bad)

    def test_embeddings_bounded_on_hub_graph(self, email_corpus, email_graph):
        # The stale-batch stabilization (capped mode) must keep hub rows
        # finite where naive summation can explode.
        trainer = BatchedSgnsTrainer(SgnsConfig(dim=8, epochs=3),
                                     batch_sentences=1024)
        model = trainer.train(email_corpus, email_graph.num_nodes, seed=1)
        assert np.isfinite(model.w_in).all()
        assert np.abs(model.w_in).max() < 100.0


class TestTrainEmbeddingsFrontDoor:
    def test_batched_path(self, email_corpus, email_graph):
        emb, stats = train_embeddings(
            email_corpus, email_graph.num_nodes,
            SgnsConfig(dim=4, epochs=1), batch_sentences=256, seed=1,
        )
        assert emb.matrix.shape == (email_graph.num_nodes, 4)
        assert stats.pairs_trained > 0

    def test_sequential_path(self, email_corpus, email_graph):
        emb, stats = train_embeddings(
            email_corpus, email_graph.num_nodes,
            SgnsConfig(dim=4, epochs=1), batch_sentences=1, seed=1,
        )
        assert emb.dim == 4
        assert stats.updates == stats.sentences

    def test_cowalkers_more_similar_than_random(self, email_embeddings,
                                                email_corpus):
        # Nodes adjacent within walks should embed closer than random
        # pairs — the similarity-preservation property of Def. III.3.
        sims_near, sims_far = [], []
        rng = np.random.default_rng(0)
        n = email_embeddings.num_nodes
        for i in range(0, email_corpus.num_walks, 5):
            walk = email_corpus.walk(i)
            if len(walk) < 2:
                continue
            sims_near.append(
                email_embeddings.cosine_similarity(int(walk[0]), int(walk[1]))
            )
            sims_far.append(
                email_embeddings.cosine_similarity(
                    int(walk[0]), int(rng.integers(0, n))
                )
            )
        assert np.mean(sims_near) > np.mean(sims_far) + 0.05
