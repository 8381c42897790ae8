"""Unit tests for alias sampling and the negative sampler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import EmbeddingError
from repro.embedding.negative import AliasTable, NegativeSampler
from repro.embedding.vocab import Vocabulary


class TestAliasTable:
    def test_reconstructed_probabilities_exact(self):
        weights = np.array([5.0, 1.0, 3.0, 1.0])
        table = AliasTable(weights)
        expected = weights / weights.sum()
        assert np.allclose(table.probabilities(), expected)

    def test_uniform_weights(self):
        table = AliasTable(np.ones(7))
        assert np.allclose(table.probabilities(), 1 / 7)

    def test_zero_weight_entries_never_sampled(self, rng):
        table = AliasTable(np.array([1.0, 0.0, 1.0]))
        draws = table.sample(5000, rng)
        assert 1 not in draws

    def test_empirical_distribution(self, rng):
        weights = np.array([0.7, 0.2, 0.1])
        table = AliasTable(weights)
        draws = table.sample(20000, rng)
        freqs = np.bincount(draws, minlength=3) / len(draws)
        assert np.allclose(freqs, weights, atol=0.02)

    def test_single_entry(self, rng):
        table = AliasTable(np.array([3.0]))
        assert np.all(table.sample(10, rng) == 0)

    def test_rejects_empty(self):
        with pytest.raises(EmbeddingError):
            AliasTable(np.array([]))

    def test_rejects_negative(self):
        with pytest.raises(EmbeddingError):
            AliasTable(np.array([1.0, -0.5]))

    def test_rejects_all_zero(self):
        with pytest.raises(EmbeddingError):
            AliasTable(np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        # NaN or inf used to build a silently uniform table.
        with pytest.raises(EmbeddingError, match="finite"):
            AliasTable(np.array([1.0, bad, 2.0]))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_rejects_overflowing_sum(self):
        with pytest.raises(EmbeddingError, match="finite sum"):
            AliasTable(np.array([1e308, 1e308]))

    def test_deterministic_by_seed(self):
        table = AliasTable(np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(table.sample(100, 42), table.sample(100, 42))


def _reference_alias_table(weights):
    """Vose's method one element at a time: the oracle for AliasTable."""
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    n = len(weights)
    prob = weights * (n / weights.sum())
    out_prob = np.ones(n, dtype=np.float64)
    alias = np.arange(n, dtype=np.int64)
    small = [i for i in range(n) if prob[i] < 1.0]
    large = [i for i in range(n) if prob[i] >= 1.0]
    while small and large:
        s = small.pop()
        l = large.pop()
        out_prob[s] = prob[s]
        alias[s] = l
        prob[l] = prob[l] - (1.0 - prob[s])
        if prob[l] < 1.0:
            small.append(l)
        else:
            large.append(l)
    for i in small + large:
        out_prob[i] = 1.0
        alias[i] = i
    return out_prob, alias


def _assert_matches_reference(weights):
    table = AliasTable(weights)
    prob, alias = _reference_alias_table(weights)
    assert table.prob.tobytes() == prob.tobytes()
    assert table.alias.tobytes() == alias.tobytes()


@st.composite
def sparse_weights(draw):
    """Up to a few thousand weights, 0-99.9% of them zero: real-valued,
    integer-valued (a large's value lands exactly on an integer), a few
    tied values, all equal, or one nonzero weight."""
    n = draw(st.integers(min_value=1, max_value=3000))
    kind = draw(st.sampled_from(["real", "integer", "ties", "equal",
                                 "single"]))
    zero_share = draw(st.sampled_from([0.0, 0.3, 0.9, 0.99, 0.999]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "real":
        weights = rng.pareto(1.0, n)
    elif kind == "integer":
        weights = rng.integers(0, 6, n).astype(np.float64)
    elif kind == "ties":
        weights = rng.choice([0.5, 1.0, 2.5, 3.0], n)
    else:
        weights = np.ones(n)
    if kind == "single":
        weights[:] = 0.0
        weights[rng.integers(n)] = draw(st.sampled_from([1.0, 0.3, 7.0]))
    else:
        weights[rng.random(n) < zero_share] = 0.0
    if not weights.any():
        weights[rng.integers(n)] = 1.0
    return weights


@pytest.mark.kernels
class TestAliasTableOracle:
    """The run-skipping build is the per-element Vose loop, byte for
    byte: the same slots, the same residuals, the same aliases."""

    @settings(max_examples=150, deadline=None)
    @given(sparse_weights())
    def test_equals_per_element_loop(self, weights):
        _assert_matches_reference(weights)

    @settings(max_examples=150, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(1, 40),
                      elements=st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0,
                                                3.0, 1e-3, 97.0])))
    def test_small_tables_equal_per_element_loop(self, weights):
        if not weights.any():
            weights[-1] = 1.0
        _assert_matches_reference(weights)

    def test_negative_zero_kept(self):
        weights = np.array([-0.0, 2.0, 0.0, 1.0])
        _assert_matches_reference(weights)


class TestNegativeSampler:
    def test_absent_nodes_never_drawn(self, rng):
        vocab = Vocabulary(np.array([10, 0, 5, 0]))
        sampler = NegativeSampler(vocab)
        draws = sampler.sample(5000, rng)
        assert set(np.unique(draws)) <= {0, 2}

    def test_matrix_shape(self, rng):
        vocab = Vocabulary(np.array([10, 5, 5]))
        sampler = NegativeSampler(vocab)
        matrix = sampler.sample_matrix(7, 3, rng)
        assert matrix.shape == (7, 3)

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmbeddingError, match="empty"):
            NegativeSampler(Vocabulary(np.zeros(4, dtype=int)))

    def test_smoothing_flattens_distribution(self, rng):
        counts = np.array([1000, 10])
        smoothed = NegativeSampler(Vocabulary(counts), power=0.75)
        draws = smoothed.sample(20000, rng)
        freq_rare = np.mean(draws == 1)
        raw_share = 10 / 1010
        assert freq_rare > raw_share  # 0.75 power boosts rare nodes
