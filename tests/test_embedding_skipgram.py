"""Unit tests for the SGNS model math (gradients verified numerically)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EmbeddingError
from repro.embedding.skipgram import (
    SkipGramModel,
    generate_pairs,
    sentence_pairs,
    sigmoid,
)


class TestSigmoid:
    def test_range_and_symmetry(self):
        x = np.linspace(-20, 20, 101)
        s = sigmoid(x)
        assert np.all((s > 0) & (s < 1))
        assert np.allclose(s + sigmoid(-x), 1.0)

    def test_extreme_values_finite(self):
        assert np.isfinite(sigmoid(np.array([-1e6, 1e6]))).all()


class TestGeneratePairs:
    def test_short_sentence_yields_nothing(self, rng):
        c, o = generate_pairs(np.array([5]), window=3, rng=rng)
        assert len(c) == 0 and len(o) == 0

    def test_fixed_window_pair_count(self, rng):
        sentence = np.arange(5)
        c, o = generate_pairs(sentence, window=2, rng=rng, dynamic_window=False)
        # Each position pairs with up to 2 on each side: 4+... total 14.
        assert len(c) == 14
        assert len(c) == len(o)

    def test_no_self_pairs(self, rng):
        c, o = generate_pairs(np.arange(6), window=3, rng=rng)
        assert np.all(c != o) or np.any(c != o)  # positions differ even if ids could repeat
        # With distinct ids, center never equals context.
        assert not np.any((c == o))

    def test_dynamic_window_produces_fewer_or_equal_pairs(self, rng):
        sentence = np.arange(8)
        fixed_c, _ = generate_pairs(sentence, 4, rng, dynamic_window=False)
        dyn_c, _ = generate_pairs(sentence, 4, rng, dynamic_window=True)
        assert len(dyn_c) <= len(fixed_c)

    def test_pairs_within_window(self, rng):
        sentence = np.arange(10)
        c, o = generate_pairs(sentence, 2, rng, dynamic_window=False)
        assert np.all(np.abs(c - o) <= 2)


def _reference_generate_pairs(sentence, window, rng, dynamic_window=True):
    """The pre-vectorization per-sentence double loop, kept as the
    equivalence oracle for the hot-path implementation."""
    n = len(sentence)
    if n < 2:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    centers: list[int] = []
    contexts: list[int] = []
    if dynamic_window:
        spans = rng.integers(1, window + 1, size=n)
    else:
        spans = np.full(n, window)
    for i in range(n):
        b = int(spans[i])
        lo = max(0, i - b)
        hi = min(n, i + b + 1)
        for j in range(lo, hi):
            if j != i:
                centers.append(int(sentence[i]))
                contexts.append(int(sentence[j]))
    return (np.asarray(centers, dtype=np.int64),
            np.asarray(contexts, dtype=np.int64))


class TestGeneratePairsVectorized:
    """Regression: generate_pairs was vectorized; it must stay
    bit-identical to the double loop — same pair stream order and the
    same RNG draw sequence — so every SGNS corpus is unchanged."""

    @pytest.mark.parametrize("dynamic", [True, False])
    @pytest.mark.parametrize("window", [1, 2, 5, 9])
    def test_bit_identical_to_reference(self, dynamic, window):
        master = np.random.default_rng(42)
        for n in (2, 3, 5, 8, 17, 33):
            sentence = master.integers(0, 50, size=n)
            seed = int(master.integers(0, 2**31))
            c_new, o_new = generate_pairs(
                sentence, window, np.random.default_rng(seed),
                dynamic_window=dynamic,
            )
            c_ref, o_ref = _reference_generate_pairs(
                sentence, window, np.random.default_rng(seed),
                dynamic_window=dynamic,
            )
            assert np.array_equal(c_new, c_ref)
            assert np.array_equal(o_new, o_ref)
            assert c_new.dtype == np.int64 and o_new.dtype == np.int64

    def test_rng_state_advances_identically(self):
        # Downstream draws (negative sampling) must see the same stream.
        rng_new = np.random.default_rng(7)
        rng_ref = np.random.default_rng(7)
        sentence = np.arange(20)
        generate_pairs(sentence, 4, rng_new)
        _reference_generate_pairs(sentence, 4, rng_ref)
        assert rng_new.integers(0, 10**9) == rng_ref.integers(0, 10**9)

    def test_faster_than_reference_loop(self):
        # The vectorized path must beat the Python double loop on a
        # long sentence (~30-100x in practice; assert a loose 2x so the
        # test stays robust on loaded CI machines).
        import time

        sentence = np.random.default_rng(0).integers(0, 1000, size=4000)

        def best_of(fn, repeats=3):
            times = []
            for _ in range(repeats):
                rng = np.random.default_rng(1)
                start = time.perf_counter()
                fn(sentence, 8, rng, dynamic_window=True)
                times.append(time.perf_counter() - start)
            return min(times)

        fast = best_of(generate_pairs)
        slow = best_of(_reference_generate_pairs)
        assert fast * 2 < slow


def _batch(sentences):
    """``sentence_pairs``'s input: tokens end to end, and the lengths."""
    lengths = np.array([len(s) for s in sentences], dtype=np.int64)
    return np.concatenate(sentences), lengths


def _reference_subsampled_pairs(sentences, keep, window, rng,
                                dynamic_window):
    """The per-sentence subsample-then-pairs loop: each sentence draws
    its keep mask, then (if >= 2 nodes survive) its window spans."""
    centers, contexts = [], []
    for sentence in sentences:
        sentence = sentence[rng.random(len(sentence)) < keep[sentence]]
        if len(sentence) < 2:
            continue
        c, o = _reference_generate_pairs(sentence, window, rng,
                                         dynamic_window)
        centers.append(c)
        contexts.append(o)
    empty = np.empty(0, dtype=np.int64)
    return (np.concatenate([empty] + centers),
            np.concatenate([empty] + contexts))


sentence_batches = st.lists(
    st.one_of(
        st.just(2),  # the dominant walk length on temporal graphs
        st.integers(min_value=2, max_value=12),
    ),
    min_size=1, max_size=64,
)


@pytest.mark.kernels
class TestSentencePairsOracle:
    """The batch pair builder is the per-sentence double loop run over
    every sentence of the batch in turn: same pairs, same order, and
    the generator left in the same state."""

    @settings(max_examples=80, deadline=None)
    @given(lengths=sentence_batches,
           window=st.integers(min_value=1, max_value=8),
           dynamic=st.booleans(),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_batch_equals_per_sentence_loop(self, lengths, window,
                                            dynamic, seed):
        vocab = np.random.default_rng(seed)
        sentences = [vocab.integers(0, 30, size=n) for n in lengths]
        rng_new = np.random.default_rng(seed + 1)
        rng_ref = np.random.default_rng(seed + 1)
        c_new, o_new = sentence_pairs(*_batch(sentences), window, rng_new,
                                      dynamic_window=dynamic)
        parts = [_reference_generate_pairs(s, window, rng_ref, dynamic)
                 for s in sentences]
        assert c_new.tobytes() == np.concatenate([c for c, _ in parts]
                                                 ).tobytes()
        assert o_new.tobytes() == np.concatenate([o for _, o in parts]
                                                 ).tobytes()
        assert rng_new.integers(0, 2**62) == rng_ref.integers(0, 2**62)

    @settings(max_examples=60, deadline=None)
    @given(lengths=sentence_batches,
           window=st.integers(min_value=1, max_value=8),
           dynamic=st.booleans(),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_subsampled_one_sentence_batches_keep_per_sentence_order(
            self, lengths, window, dynamic, seed):
        # At one sentence per batch the keep draw and the span draw
        # interleave per sentence, exactly as subsampling always did.
        vocab = np.random.default_rng(seed)
        sentences = [vocab.integers(0, 30, size=n) for n in lengths]
        keep = vocab.random(30)
        rng_new = np.random.default_rng(seed + 1)
        rng_ref = np.random.default_rng(seed + 1)
        parts = [sentence_pairs(s, [len(s)], window, rng_new, dynamic,
                                keep=keep) for s in sentences]
        c_ref, o_ref = _reference_subsampled_pairs(sentences, keep, window,
                                                   rng_ref, dynamic)
        assert np.concatenate([c for c, _ in parts]).tobytes() == \
            c_ref.tobytes()
        assert np.concatenate([o for _, o in parts]).tobytes() == \
            o_ref.tobytes()
        assert rng_new.integers(0, 2**62) == rng_ref.integers(0, 2**62)

    def test_subsampled_batch_draws_keep_mask_then_spans(self):
        # A larger subsampled batch draws every keep decision first,
        # then the spans of the surviving sentences.
        sentences = [np.array([0, 1, 2]), np.array([3, 4]),
                     np.array([5, 6, 7, 8])]
        keep = np.full(9, 0.7)
        rng = np.random.default_rng(3)
        kept = rng.random(9) < 0.7
        ends = np.cumsum([3, 2, 4])
        survivors = [s[m] for s, m in zip(sentences,
                                          np.split(kept, ends[:-1]))]
        expected = [_reference_generate_pairs(s, 3, rng) for s in survivors]
        c, o = sentence_pairs(*_batch(sentences), 3,
                              np.random.default_rng(3), keep=keep)
        assert np.array_equal(c, np.concatenate([e[0] for e in expected]))
        assert np.array_equal(o, np.concatenate([e[1] for e in expected]))

    def test_short_sentences_draw_nothing(self):
        sentences = [np.array([4]), np.array([1, 2, 3]),
                     np.array([], dtype=np.int64), np.array([7, 8])]
        rng_new = np.random.default_rng(5)
        rng_ref = np.random.default_rng(5)
        c, o = sentence_pairs(*_batch(sentences), 2, rng_new)
        parts = [_reference_generate_pairs(s, 2, rng_ref) for s in sentences]
        assert np.array_equal(c, np.concatenate([p[0] for p in parts]))
        assert np.array_equal(o, np.concatenate([p[1] for p in parts]))
        assert rng_new.random() == rng_ref.random()


class TestSkipGramModel:
    def test_init_shapes(self):
        model = SkipGramModel(10, 4, seed=1)
        assert model.w_in.shape == (10, 4)
        assert model.w_out.shape == (10, 4)
        assert np.all(model.w_out == 0.0)
        assert np.all(np.abs(model.w_in) <= 0.5 / 4)

    def test_invalid_dims(self):
        with pytest.raises(EmbeddingError):
            SkipGramModel(0, 4)
        with pytest.raises(EmbeddingError):
            SkipGramModel(4, 0)

    def test_initial_loss_is_log2_times_scores(self):
        # With w_out = 0 every score is 0, so the loss is (1+K) * ln 2.
        model = SkipGramModel(5, 8, seed=1)
        loss = model.pair_loss(0, 1, np.array([2, 3, 4]))
        assert loss == pytest.approx(4 * np.log(2.0), rel=1e-6)

    def test_gradients_match_finite_differences(self):
        model = SkipGramModel(6, 5, seed=2)
        rng = np.random.default_rng(3)
        model.w_out[:] = rng.normal(0, 0.3, size=model.w_out.shape)
        centers = np.array([0, 1])
        contexts = np.array([2, 3])
        negatives = np.array([[4, 5], [5, 0]])
        gc, go, gn, _ = model.batch_gradients(centers, contexts, negatives)

        eps = 1e-6

        def total_loss():
            _, _, _, loss = model.batch_gradients(centers, contexts, negatives)
            return loss * len(centers)  # batch_gradients returns the mean

        # Probe a few coordinates of each gradient block.
        for b, row in ((0, centers[0]), (1, centers[1])):
            for d in range(3):
                old = model.w_in[row, d]
                model.w_in[row, d] = old + eps
                up = total_loss()
                model.w_in[row, d] = old - eps
                down = total_loss()
                model.w_in[row, d] = old
                numeric = (up - down) / (2 * eps)
                assert gc[b, d] == pytest.approx(numeric, rel=1e-4, abs=1e-7)

        old = model.w_out[contexts[0], 1]
        model.w_out[contexts[0], 1] = old + eps
        up = total_loss()
        model.w_out[contexts[0], 1] = old - eps
        down = total_loss()
        model.w_out[contexts[0], 1] = old
        numeric = (up - down) / (2 * eps)
        assert go[0, 1] == pytest.approx(numeric, rel=1e-4, abs=1e-7)

    def test_training_pair_reduces_its_loss(self):
        model = SkipGramModel(6, 4, seed=4)
        centers = np.array([0])
        contexts = np.array([1])
        negatives = np.array([[2, 3]])
        before = model.pair_loss(0, 1, negatives[0])
        for _ in range(50):
            gc, go, gn, _ = model.batch_gradients(centers, contexts, negatives)
            model.apply_batch(centers, contexts, negatives, gc, go, gn, lr=0.1)
        after = model.pair_loss(0, 1, negatives[0])
        assert after < before


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        model = SkipGramModel(7, 4, seed=1)
        rng = np.random.default_rng(2)
        model.w_out[:] = rng.normal(size=model.w_out.shape)
        path = tmp_path / "model.npz"
        model.save(path)
        back = SkipGramModel.load(path)
        assert np.array_equal(back.w_in, model.w_in)
        assert np.array_equal(back.w_out, model.w_out)

    def test_load_missing_arrays_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, w_in=np.zeros((2, 2)))
        with pytest.raises(EmbeddingError, match="missing"):
            SkipGramModel.load(path)

    def test_load_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, w_in=np.zeros((2, 2)), w_out=np.zeros((3, 2)))
        with pytest.raises(EmbeddingError, match="shapes differ"):
            SkipGramModel.load(path)

    def test_loaded_model_continues_training(self, tmp_path):
        model = SkipGramModel(6, 4, seed=3)
        path = tmp_path / "model.npz"
        model.save(path)
        back = SkipGramModel.load(path)
        centers = np.array([0])
        contexts = np.array([1])
        negatives = np.array([[2, 3]])
        before = back.pair_loss(0, 1, negatives[0])
        for _ in range(30):
            gc, go, gn, _ = back.batch_gradients(centers, contexts, negatives)
            back.apply_batch(centers, contexts, negatives, gc, go, gn, lr=0.1)
        assert back.pair_loss(0, 1, negatives[0]) < before


class TestApplyBatchModes:
    def setup_pairs(self):
        model = SkipGramModel(5, 4, seed=5)
        rng = np.random.default_rng(6)
        model.w_out[:] = rng.normal(0, 0.2, size=model.w_out.shape)
        centers = np.array([0, 0, 0, 1])
        contexts = np.array([1, 2, 3, 2])
        negatives = np.array([[4], [4], [4], [3]])
        grads = model.batch_gradients(centers, contexts, negatives)[:3]
        return model, centers, contexts, negatives, grads

    def test_sum_accumulates_duplicates(self):
        model, c, o, n, (gc, go, gn) = self.setup_pairs()
        before = model.w_in[0].copy()
        expected = before - 1.0 * (gc[0] + gc[1] + gc[2])
        model.apply_batch(c, o, n, gc, go, gn, lr=1.0, update="sum")
        assert np.allclose(model.w_in[0], expected)

    def test_mean_averages_duplicates(self):
        model, c, o, n, (gc, go, gn) = self.setup_pairs()
        before = model.w_in[0].copy()
        expected = before - 1.0 * (gc[0] + gc[1] + gc[2]) / 3.0
        model.apply_batch(c, o, n, gc, go, gn, lr=1.0, update="mean")
        assert np.allclose(model.w_in[0], expected)

    def test_capped_full_sum_below_cap(self):
        model, c, o, n, (gc, go, gn) = self.setup_pairs()
        before = model.w_in[0].copy()
        expected = before - (gc[0] + gc[1] + gc[2])  # 3 <= cap
        model.apply_batch(c, o, n, gc, go, gn, lr=1.0, update="capped", cap=8)
        assert np.allclose(model.w_in[0], expected)

    def test_capped_scales_above_cap(self):
        model, c, o, n, (gc, go, gn) = self.setup_pairs()
        before = model.w_in[0].copy()
        expected = before - (gc[0] + gc[1] + gc[2]) * (2.0 / 3.0)
        model.apply_batch(c, o, n, gc, go, gn, lr=1.0, update="capped", cap=2)
        assert np.allclose(model.w_in[0], expected)

    def test_unknown_mode_rejected(self):
        model, c, o, n, (gc, go, gn) = self.setup_pairs()
        with pytest.raises(EmbeddingError):
            model.apply_batch(c, o, n, gc, go, gn, lr=0.1, update="bogus")
