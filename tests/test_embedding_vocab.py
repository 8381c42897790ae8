"""Unit tests for the node vocabulary."""

import numpy as np
import pytest

from repro.errors import EmbeddingError
from repro.embedding.skipgram import sentence_pairs
from repro.embedding.vocab import Vocabulary
from repro.walk.corpus import PAD, WalkCorpus


def corpus_with_counts() -> WalkCorpus:
    matrix = np.array([[0, 1, 1], [2, 0, PAD]])
    return WalkCorpus(matrix, np.array([3, 2]))


class TestVocabulary:
    def test_from_corpus_counts(self):
        vocab = Vocabulary.from_corpus(corpus_with_counts(), num_nodes=4)
        assert vocab.counts.tolist() == [2, 2, 1, 0]
        assert vocab.total == 5

    def test_frequency(self):
        vocab = Vocabulary.from_corpus(corpus_with_counts(), num_nodes=4)
        assert vocab.frequency(0) == pytest.approx(0.4)
        assert vocab.frequency(3) == 0.0

    def test_rejects_negative_counts(self):
        with pytest.raises(EmbeddingError):
            Vocabulary(np.array([1, -1]))

    def test_rejects_2d(self):
        with pytest.raises(EmbeddingError):
            Vocabulary(np.zeros((2, 2), dtype=int))

    def test_unigram_weights_smoothing(self):
        vocab = Vocabulary(np.array([16, 1, 0]))
        weights = vocab.unigram_weights(0.75)
        assert weights[0] == pytest.approx(8.0)   # 16^0.75
        assert weights[1] == pytest.approx(1.0)
        assert weights[2] == 0.0

    def test_keep_probabilities_bounds(self):
        vocab = Vocabulary(np.array([100000, 1, 0]))
        keep = vocab.keep_probabilities(1e-3)
        assert np.all(keep <= 1.0)
        assert np.all(keep > 0.0)
        assert keep[0] < 1.0      # very frequent node gets subsampled
        assert keep[1] == 1.0     # rare node always kept
        assert keep[2] == 1.0     # absent node untouched

    def test_subsampled_pairs_drop_frequent(self, rng):
        vocab = Vocabulary(np.array([1000000, 1]))
        keep = vocab.keep_probabilities(1e-5)
        sentence = np.array([0] * 200 + [1, 1])
        centers, _ = sentence_pairs(sentence, [len(sentence)], 1, rng,
                                    dynamic_window=False, keep=keep)
        # A window of 1 over k surviving nodes gives 2(k - 1) pairs;
        # the rare node always survives.
        assert len(centers) < 2 * 99
        assert 1 in centers

    def test_empty_corpus_total(self):
        vocab = Vocabulary(np.zeros(3, dtype=int))
        assert vocab.total == 0
        assert vocab.frequency(0) == 0.0
