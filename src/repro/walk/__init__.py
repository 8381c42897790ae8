"""Temporal random walk (Algorithm 1 of the paper).

- :class:`WalkConfig` — the hyperparameters swept in Fig. 8: walks per
  node ``K``, walk length ``L``, and the transition bias (Eq. 1).
- :class:`TemporalWalkEngine` — the vectorized walk kernel; one call
  produces the full ``|V| x K`` walk matrix plus work statistics that feed
  the hardware models.  ``sampler="cdf"`` (inverse-CDF search, the
  production kernel) and ``sampler="gumbel"`` (the paper's O(M) scan)
  draw from the same distribution.
- :func:`run_walks_reference` — a straightforward scalar implementation
  used as a correctness oracle in tests.
- :class:`WalkCorpus` — the walk matrix with the length histogram of
  Fig. 4 and the sentence iterator word2vec consumes.
"""

from repro.walk.analysis import CorpusCoverage, corpus_coverage
from repro.walk.config import WalkConfig
from repro.walk.corpus import WalkCorpus
from repro.walk.engine import TemporalWalkEngine, WalkStats
from repro.walk.reference import run_walks_reference
from repro.walk.sampling import (
    BIAS_CHOICES,
    transition_logits,
    transition_probabilities,
)

__all__ = [
    "CorpusCoverage",
    "corpus_coverage",
    "WalkConfig",
    "WalkCorpus",
    "TemporalWalkEngine",
    "WalkStats",
    "run_walks_reference",
    "BIAS_CHOICES",
    "transition_logits",
    "transition_probabilities",
]
