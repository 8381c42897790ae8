"""word2vec hyperparameters and the work counters of a training run.

:class:`SgnsConfig` is validated when it is built, so a bad value fails
before any walk runs; :class:`TrainerStats` is what the one training
loop (:class:`repro.embedding.BatchedSgnsTrainer`) reports and
:func:`publish_trainer_stats` flushes into the recorder.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import EmbeddingError
from repro.observability import get_recorder

#: How same-row gradients in one batch combine (see
#: :meth:`repro.embedding.SkipGramModel.apply_batch`).
UPDATE_MODES = ("mean", "sum", "sqrt", "capped")


@dataclass(frozen=True)
class SgnsConfig:
    """word2vec hyperparameters.

    ``dim=8`` is the paper's recommended embedding dimension (Fig. 8d:
    accuracy saturates at 8, far below the customary 128).
    """

    dim: int = 8
    window: int = 5
    negatives: int = 5
    epochs: int = 2
    learning_rate: float = 0.025
    min_learning_rate: float = 1e-4
    subsample_threshold: float | None = None
    dynamic_window: bool = True
    update_mode: str = "capped"
    update_cap: int = 128
    # Draw one set of K negatives per *batch* instead of per pair — the
    # GPU word2vec trick of sharing negative gathers.  Caveat measured by
    # the test suite: sharing across a whole multi-thousand-pair batch
    # starves the objective of contrast (only K rows per batch ever
    # receive negative gradient) and stalls convergence; real GPU kernels
    # share within small thread groups.  Kept as an honest ablation knob.
    shared_negatives: bool = False

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise EmbeddingError(f"dim must be >= 1, got {self.dim}")
        if self.window < 1:
            raise EmbeddingError(f"window must be >= 1, got {self.window}")
        if self.negatives < 1:
            raise EmbeddingError(f"negatives must be >= 1, got {self.negatives}")
        if self.epochs < 1:
            raise EmbeddingError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 < self.learning_rate:
            raise EmbeddingError("learning_rate must be positive")
        if not 0 <= self.min_learning_rate:
            raise EmbeddingError(
                f"min_learning_rate must be >= 0, got {self.min_learning_rate}"
            )
        if self.subsample_threshold is not None and not (
            0 < self.subsample_threshold
        ):
            raise EmbeddingError(
                "subsample_threshold must be positive or None, got "
                f"{self.subsample_threshold}"
            )
        if self.update_mode not in UPDATE_MODES:
            raise EmbeddingError(
                f"update_mode must be one of {UPDATE_MODES}, "
                f"got {self.update_mode!r}"
            )
        if self.update_cap < 1:
            raise EmbeddingError(
                f"update_cap must be >= 1, got {self.update_cap}"
            )
        for name in ("dynamic_window", "shared_negatives"):
            if not isinstance(getattr(self, name), bool):
                raise EmbeddingError(
                    f"{name} must be a bool, got {getattr(self, name)!r}"
                )


@dataclass
class TrainerStats:
    """Work counters of one training run (feed the hardware models).

    ``sentences`` counts every visited sentence and ``updates`` the
    parameter-update events, one per batch that yielded pairs (one per
    sentence at ``batch_sentences=1``) — the analogue of GPU kernel
    launches.  fp-op counts follow the objective's math: an SGNS pair
    costs about ``(1 + K) * 4d`` multiply-adds.  ``negatives_drawn``
    counts sampled negative ids (K per batch under shared negatives).

    ``mean_loss`` is the mean loss *per (center, context) pair* over the
    whole run — pair-weighted, so runs at any batch size report the same
    unit and Fig. 5/6-style loss comparisons are apples-to-apples.
    ``losses`` keeps the per-update mean-pair-loss trace (one entry per
    update event).
    """

    pairs_trained: int = 0
    sentences: int = 0
    updates: int = 0
    fp_ops: int = 0
    negatives_drawn: int = 0
    mean_loss: float = 0.0
    wall_seconds: float = 0.0
    losses: list[float] = field(default_factory=list)


def publish_trainer_stats(stats: TrainerStats) -> None:
    """Flush one training run's counters into the ambient recorder."""
    rec = get_recorder()
    if not rec.enabled:
        return
    rec.counter("sgns.runs")
    rec.counter("sgns.pairs", stats.pairs_trained)
    rec.counter("sgns.sentences", stats.sentences)
    rec.counter("sgns.updates", stats.updates)
    rec.counter("sgns.fp_ops", stats.fp_ops)
    rec.counter("sgns.negatives_drawn", stats.negatives_drawn)
    if stats.wall_seconds > 0:
        rec.gauge("sgns.pairs_per_sec",
                  stats.pairs_trained / stats.wall_seconds)
    rec.gauge("sgns.mean_loss", stats.mean_loss)
