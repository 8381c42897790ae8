"""Shared classifier training loop (pipeline phase RW-P3).

Both downstream tasks train small FNNs with SGD over shuffled
mini-batches, validate each epoch, and support early stopping at a target
validation accuracy (the artifact exposes ``target accuracy`` as a
tunable).  The loop records per-epoch wall time because per-epoch
training time is the unit Table III reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import TrainingError
from repro.nn.data import DataLoader
from repro.nn.module import Module
from repro.nn.optim import SGD, StepDecay
from repro.observability import get_recorder
from repro.rng import SeedLike, make_rng


@dataclass(frozen=True)
class TrainSettings:
    """Hyperparameters of the FNN classifier stage.

    The class defaults (30 epochs x 128 rows at lr 0.1) are what node
    classification and link-property prediction train with.  Link
    prediction overrides them with the cheaper schedule the Fig. 8e
    sweep chose (see :class:`~repro.tasks.link_prediction.
    LinkPredictionConfig`).
    """

    epochs: int = 30
    batch_size: int = 128
    learning_rate: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0
    lr_step: int = 10
    lr_gamma: float = 0.5
    target_accuracy: float | None = None

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise TrainingError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise TrainingError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass
class EpochRecord:
    """One epoch's training trace."""

    epoch: int
    train_loss: float
    valid_accuracy: float
    seconds: float


@dataclass
class TrainHistory:
    """Full training trace plus aggregate timings."""

    records: list[EpochRecord] = field(default_factory=list)
    total_seconds: float = 0.0
    stopped_early: bool = False

    @property
    def epochs_run(self) -> int:
        """Number of completed epochs."""
        return len(self.records)

    @property
    def seconds_per_epoch(self) -> float:
        """Mean wall seconds per epoch."""
        if not self.records:
            return 0.0
        return self.total_seconds / len(self.records)

    @property
    def final_train_loss(self) -> float:
        """Last epoch's mean training loss (NaN if none)."""
        return self.records[-1].train_loss if self.records else float("nan")


def train_classifier(
    model: Module,
    loss,
    train_xy: tuple[np.ndarray, np.ndarray],
    valid_xy: tuple[np.ndarray, np.ndarray],
    settings: TrainSettings,
    evaluate_accuracy,
    seed: SeedLike = None,
) -> TrainHistory:
    """SGD-train ``model`` and return the per-epoch history.

    ``evaluate_accuracy(model, features, targets) -> float`` abstracts the
    task-specific accuracy (thresholded sigmoid vs argmax softmax).
    """
    rng = make_rng(seed)
    loader = DataLoader(
        train_xy[0], train_xy[1], batch_size=settings.batch_size,
        shuffle=True, seed=rng,
    )
    optimizer = SGD(
        model.parameters(),
        lr=settings.learning_rate,
        momentum=settings.momentum,
        weight_decay=settings.weight_decay,
    )
    schedule = StepDecay(optimizer, settings.lr_step, settings.lr_gamma)
    history = TrainHistory()
    rec = get_recorder()

    for epoch in range(settings.epochs):
        with rec.span("train_epoch", epoch=epoch) as span:
            # Sample-weighted loss: the final batch is usually smaller
            # than batch_size, so an unweighted mean of batch losses
            # would skew train_loss and make it depend on batch_size.
            loss_sum = 0.0
            samples = 0
            for features, targets in loader:
                optimizer.zero_grad()
                logits = model.forward(features)
                loss_sum += float(loss.forward(logits, targets)) * len(targets)
                samples += len(targets)
                model.backward(loss.backward())
                optimizer.step()
            schedule.step()
            valid_acc = evaluate_accuracy(model, valid_xy[0], valid_xy[1])
        seconds = span.duration
        history.records.append(
            EpochRecord(
                epoch=epoch,
                train_loss=loss_sum / samples if samples else 0.0,
                valid_accuracy=valid_acc,
                seconds=seconds,
            )
        )
        history.total_seconds += seconds
        if (
            settings.target_accuracy is not None
            and valid_acc >= settings.target_accuracy
        ):
            history.stopped_early = True
            break
    rec.counter("train.epochs", len(history.records))
    return history
