"""Unit tests for the hierarchical-softmax word2vec objective."""

import numpy as np
import pytest

from repro.embedding import BatchedSgnsTrainer, SgnsConfig, train_embeddings
from repro.embedding.hsoftmax import HierarchicalSoftmaxModel, HuffmanTree
from repro.errors import EmbeddingError


class TestHuffmanTree:
    def test_prefix_code_property(self):
        tree = HuffmanTree(np.array([5, 3, 2, 2, 1]))
        codes = []
        for leaf in range(5):
            length = int(tree.code_lengths[leaf])
            codes.append(tuple(tree.codes[leaf, :length].tolist()))
        # No code is a prefix of another (Huffman invariant).
        for i, a in enumerate(codes):
            for j, b in enumerate(codes):
                if i != j:
                    assert a != b[: len(a)]

    def test_frequent_nodes_get_short_codes(self):
        counts = np.array([1000, 1, 1, 1, 1, 1, 1, 1])
        tree = HuffmanTree(counts)
        assert tree.code_lengths[0] == tree.code_lengths.min()

    def test_expected_code_length_near_entropy(self):
        rng = np.random.default_rng(1)
        counts = rng.integers(1, 100, size=64)
        tree = HuffmanTree(counts)
        p = counts / counts.sum()
        entropy = -np.sum(p * np.log2(p))
        mean_len = tree.mean_code_length(counts)
        # Huffman is within 1 bit of the entropy.
        assert entropy <= mean_len <= entropy + 1.0

    def test_inner_ids_in_range(self):
        tree = HuffmanTree(np.array([4, 3, 2, 1]))
        for leaf in range(4):
            length = int(tree.code_lengths[leaf])
            assert np.all(tree.paths[leaf, :length] < tree.num_inner)
            assert np.all(tree.paths[leaf, :length] >= 0)

    def test_single_leaf(self):
        tree = HuffmanTree(np.array([7]))
        assert tree.num_leaves == 1
        assert tree.code_lengths[0] == 0

    def test_two_leaves(self):
        tree = HuffmanTree(np.array([3, 5]))
        assert np.all(tree.code_lengths == 1)
        # The two leaves take opposite branches of the single inner node.
        assert tree.codes[0, 0] != tree.codes[1, 0]

    def test_zero_counts_still_coded(self):
        tree = HuffmanTree(np.array([10, 0, 5]))
        assert tree.code_lengths[1] >= 1

    def test_invalid_counts(self):
        with pytest.raises(EmbeddingError):
            HuffmanTree(np.array([]))
        with pytest.raises(EmbeddingError):
            HuffmanTree(np.array([1, -1]))


class TestHierarchicalSoftmaxModel:
    def test_probabilities_sum_to_one(self):
        # Summing exact P(context|center) over all leaves must give 1:
        # the tree's branch sigmoids define a proper distribution.
        counts = np.array([4, 3, 2, 2, 1, 1])
        model = HierarchicalSoftmaxModel(counts, dim=4, seed=1)
        rng = np.random.default_rng(2)
        model.w_inner[:] = rng.normal(0, 0.5, size=model.w_inner.shape)
        total = sum(model.context_probability(0, ctx) for ctx in range(6))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_initial_loss_matches_code_length(self):
        # Zero inner weights => each branch costs ln 2.
        counts = np.array([2, 2, 2, 2])
        model = HierarchicalSoftmaxModel(counts, dim=4, seed=1)
        length = int(model.tree.code_lengths[1])
        assert model.pair_loss(0, 1) == pytest.approx(length * np.log(2.0))

    def test_gradients_match_finite_differences(self):
        counts = np.array([5, 4, 3, 2, 1])
        model = HierarchicalSoftmaxModel(counts, dim=3, seed=3)
        rng = np.random.default_rng(4)
        model.w_inner[:] = rng.normal(0, 0.3, size=model.w_inner.shape)
        centers = np.array([0, 2])
        contexts = np.array([1, 4])
        gc, gi, paths, mask, _ = model.batch_gradients(centers, contexts)

        eps = 1e-6

        def batch_loss():
            *_, loss = model.batch_gradients(centers, contexts)
            return loss * len(centers)

        for b in range(2):
            for d in range(3):
                row = centers[b]
                old = model.w_in[row, d]
                model.w_in[row, d] = old + eps
                up = batch_loss()
                model.w_in[row, d] = old - eps
                down = batch_loss()
                model.w_in[row, d] = old
                numeric = (up - down) / (2 * eps)
                assert gc[b, d] == pytest.approx(numeric, rel=1e-4, abs=1e-7)

        # One inner-row gradient entry.
        inner = int(paths[0, 0])
        old = model.w_inner[inner, 1]
        model.w_inner[inner, 1] = old + eps
        up = batch_loss()
        model.w_inner[inner, 1] = old - eps
        down = batch_loss()
        model.w_inner[inner, 1] = old
        numeric = (up - down) / (2 * eps)
        # Gradient contributions to this row may come from several pairs.
        contributions = 0.0
        for b in range(2):
            for l in range(paths.shape[1]):
                if mask[b, l] and paths[b, l] == inner:
                    contributions += gi[b, l, 1]
        assert contributions == pytest.approx(numeric, rel=1e-4, abs=1e-7)

    def test_training_increases_context_probability(self):
        counts = np.array([3, 3, 3, 3])
        model = HierarchicalSoftmaxModel(counts, dim=6, seed=5)
        before = model.context_probability(0, 1)
        centers = np.array([0])
        contexts = np.array([1])
        for _ in range(100):
            gc, gi, paths, mask, _ = model.batch_gradients(centers, contexts)
            model.apply_batch(centers, gc, gi, paths, mask, lr=0.2)
        assert model.context_probability(0, 1) > before + 0.2


class TestBatchedHsTrainer:
    """The one trainer under ``objective="hierarchical-softmax"``."""

    def test_loss_decreases(self, email_corpus, email_graph):
        # Batched HS converges slower than SGNS: gradients of opposing
        # branches cancel inside a batch at the root rows, so it needs
        # smaller batches (more update rounds) and a higher lr.
        trainer = BatchedSgnsTrainer(
            SgnsConfig(dim=8, epochs=5, learning_rate=0.1),
            batch_sentences=64, objective="hierarchical-softmax",
        )
        trainer.train(email_corpus, email_graph.num_nodes, seed=1)
        losses = trainer.last_stats.losses
        assert losses[-1] < losses[0] - 0.1

    def test_front_door_objective(self, email_corpus, email_graph):
        emb, stats = train_embeddings(
            email_corpus, email_graph.num_nodes,
            SgnsConfig(dim=8, epochs=2), batch_sentences=256,
            seed=2, objective="hierarchical-softmax",
        )
        assert emb.matrix.shape == (email_graph.num_nodes, 8)
        assert stats.pairs_trained > 0

    def test_unknown_objective_rejected(self, email_corpus, email_graph):
        with pytest.raises(EmbeddingError, match="unknown objective"):
            train_embeddings(email_corpus, email_graph.num_nodes,
                             objective="softmax-everything")

    def test_hs_embeddings_usable_downstream(self, email_corpus, email_graph,
                                             email_edges):
        from repro.tasks import LinkPredictionTask
        from repro.tasks.link_prediction import LinkPredictionConfig
        from repro.tasks.training import TrainSettings

        emb, _ = train_embeddings(
            email_corpus, email_graph.num_nodes,
            SgnsConfig(dim=8, epochs=5, learning_rate=0.1),
            batch_sentences=64, seed=3,
            objective="hierarchical-softmax",
        )
        result = LinkPredictionTask(LinkPredictionConfig(
            training=TrainSettings(epochs=10, learning_rate=0.05)
        )).run(emb, email_edges, seed=4)
        assert result.auc > 0.65
