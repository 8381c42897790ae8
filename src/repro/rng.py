"""Seeded random-number utilities.

Every stochastic component in the library accepts either an integer seed or
an already-constructed :class:`numpy.random.Generator`.  Centralizing the
coercion here keeps experiments reproducible: the same seed always produces
the same walks, negative samples, and initial weights.
"""

from __future__ import annotations

import numpy as np

SeedLike = int | np.random.Generator | None

_DEFAULT_SEED = 0x5EED


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a numpy Generator for ``seed``.

    ``None`` maps to a fixed library-wide default seed (experiments should
    be reproducible by default); a Generator is passed through unchanged so
    callers can share one stream across components.
    """
    if seed is None:
        return np.random.default_rng(_DEFAULT_SEED)
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
