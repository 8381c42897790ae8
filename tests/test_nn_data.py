"""Unit tests for the DataLoader."""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.nn import DataLoader


class TestDataLoader:
    def test_batches_cover_all_samples(self):
        x = np.arange(10).reshape(10, 1)
        y = np.arange(10)
        loader = DataLoader(x, y, batch_size=3, seed=1)
        seen = np.concatenate([yb for _, yb in loader])
        assert sorted(seen.tolist()) == list(range(10))

    def test_len_rounds_up(self):
        loader = DataLoader(np.zeros((10, 1)), np.zeros(10), batch_size=3)
        assert len(loader) == 4

    def test_drop_last(self):
        loader = DataLoader(np.zeros((10, 1)), np.zeros(10), batch_size=3,
                            drop_last=True)
        assert len(loader) == 3
        assert sum(len(yb) for _, yb in loader) == 9

    def test_shuffle_changes_order_between_epochs(self):
        x = np.arange(50).reshape(50, 1)
        loader = DataLoader(x, np.arange(50), batch_size=50, seed=2)
        first = next(iter(loader))[1].copy()
        second = next(iter(loader))[1].copy()
        assert not np.array_equal(first, second)

    def test_no_shuffle_preserves_order(self):
        x = np.arange(6).reshape(6, 1)
        loader = DataLoader(x, np.arange(6), batch_size=2, shuffle=False)
        batches = [yb.tolist() for _, yb in loader]
        assert batches == [[0, 1], [2, 3], [4, 5]]

    def test_features_align_with_targets(self):
        x = np.arange(20).reshape(20, 1)
        y = np.arange(20)
        loader = DataLoader(x, y, batch_size=7, seed=3)
        for xb, yb in loader:
            assert np.array_equal(xb.reshape(-1), yb)

    @pytest.mark.parametrize("shuffle", [True, False])
    @pytest.mark.parametrize("drop_last", [True, False])
    @pytest.mark.parametrize("n, batch_size", [(20, 4), (23, 5), (7, 7),
                                               (5, 16)])
    def test_batches_byte_equal_to_per_batch_gather(self, shuffle, drop_last,
                                                    n, batch_size):
        """One gather per epoch yields the batches a per-batch fancy
        index over the same permutation would."""
        rng = np.random.default_rng(4)
        x = rng.standard_normal((n, 3))
        y = rng.integers(0, 2, n).astype(np.float64)
        loader = DataLoader(x, y, batch_size=batch_size, shuffle=shuffle,
                            seed=9, drop_last=drop_last)
        order_rng = np.random.default_rng(9)
        for _ in range(2):
            order = np.arange(n)
            if shuffle:
                order_rng.shuffle(order)
            end = (n // batch_size) * batch_size if drop_last else n
            expected = [order[b: b + batch_size]
                        for b in range(0, end, batch_size)]
            batches = list(loader)
            assert len(batches) == len(expected) == len(loader)
            for (xb, yb), idx in zip(batches, expected):
                assert xb.tobytes() == x[idx].tobytes()
                assert yb.tobytes() == y[idx].tobytes()
                assert xb.shape == x[idx].shape

    def test_length_mismatch_rejected(self):
        with pytest.raises(TrainingError):
            DataLoader(np.zeros((3, 1)), np.zeros(2))

    def test_invalid_batch_size(self):
        with pytest.raises(TrainingError):
            DataLoader(np.zeros((3, 1)), np.zeros(3), batch_size=0)
