"""Mini-batch iteration.

The PyTorch stand-in the classifier stage needs: shuffled fixed-size
batches over (features, targets) arrays.  The paper notes PyTorch's
multi-process data loaders hurt this workload's memory footprint
(§VIII-A); here each epoch gathers its permuted arrays once and every
batch is a zero-copy slice of them.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import TrainingError
from repro.rng import SeedLike, make_rng


class DataLoader:
    """Shuffled mini-batches over parallel arrays."""

    def __init__(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        batch_size: int = 128,
        shuffle: bool = True,
        seed: SeedLike = None,
        drop_last: bool = False,
    ) -> None:
        self.features = np.asarray(features)
        self.targets = np.asarray(targets)
        if len(self.features) != len(self.targets):
            raise TrainingError(
                f"features ({len(self.features)}) and targets "
                f"({len(self.targets)}) length mismatch"
            )
        if batch_size < 1:
            raise TrainingError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self._rng = make_rng(seed)

    def __len__(self) -> int:
        n = len(self.features)
        if self.drop_last:
            return n // self.batch_size
        return -(-n // self.batch_size)

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        n = len(self.features)
        order = np.arange(n)
        if self.shuffle:
            self._rng.shuffle(order)
        features, targets = self.features[order], self.targets[order]
        end = (n // self.batch_size) * self.batch_size if self.drop_last else n
        for base in range(0, end, self.batch_size):
            stop = base + self.batch_size
            yield features[base:stop], targets[base:stop]
