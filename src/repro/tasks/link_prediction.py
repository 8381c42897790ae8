"""Link prediction (§IV-B, Fig. 7).

Casts future-edge prediction as binary classification: a 2-layer FNN on
concatenated endpoint embeddings distinguishes real temporal edges from
corrupted ones, trained with binary cross-entropy and tested on the
chronologically last 20% of edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.embedding.embeddings import NodeEmbeddings
from repro.graph.edges import TemporalEdgeList
from repro.nn.layers import Linear, ReLU, sigmoid
from repro.nn.losses import BCEWithLogitsLoss
from repro.nn.metrics import binary_accuracy, roc_auc
from repro.nn.module import Module, Sequential
from repro.observability import get_recorder
from repro.rng import SeedLike, make_rng
from repro.tasks.features import Standardizer, build_link_prediction_features
from repro.tasks.negative_sampling import sample_negative_edges
from repro.tasks.splits import temporal_edge_split
from repro.tasks.training import TrainHistory, TrainSettings, train_classifier


@dataclass(frozen=True)
class LinkPredictionConfig:
    """Architecture and training knobs for the link-prediction FNN.

    ``training`` defaults to 12 epochs x 256 rows at lr 0.2, not the
    :class:`TrainSettings` class default (30 x 128 at lr 0.1): it is the
    cell ``bench_fig08_accuracy_complexity.py::
    test_fig08e_classifier_frontier`` records as ``chosen`` in
    ``bench_results/fig08e_classifier_frontier.json`` — the cheapest
    schedule whose mean AUC holds within 0.005 of 30 x 128 on every
    LP dataset shape (1,296 SGD steps instead of 6,480 per run on
    ``ia_email_like(0.02)``).
    """

    hidden_dim: int = 32
    train_fraction: float = 0.6
    valid_fraction: float = 0.2
    test_fraction: float = 0.2
    training: TrainSettings = field(default_factory=lambda: TrainSettings(
        epochs=12, batch_size=256, learning_rate=0.2))


@dataclass
class TaskResult:
    """Outcome of one downstream-task run.

    ``model`` and ``scaler`` are the trained classifier and the feature
    standardizer fit on the training partition, kept so callers can score
    new inputs (e.g. ranking candidate recommendations) with exactly the
    artifacts evaluation used.  ``splits`` records the train/valid/test
    partition the run used (:class:`~repro.tasks.splits.EdgeSplits` or
    :class:`~repro.tasks.splits.NodeSplits`), so checkpointing can
    persist the exact split indices alongside the classifier weights.
    """

    task: str
    accuracy: float
    auc: float | None
    history: TrainHistory
    data_prep_seconds: float
    train_seconds: float
    test_seconds: float
    num_train: int
    num_test: int
    model: Module | None = None
    scaler: object | None = None
    splits: object | None = None

    def score_link(
        self, embeddings: NodeEmbeddings, src: np.ndarray, dst: np.ndarray
    ) -> np.ndarray:
        """Classifier probability that each (src, dst) edge exists.

        Only meaningful for link-prediction results (binary single-logit
        models trained on concatenated edge features).
        """
        if self.model is None or self.scaler is None:
            raise ValueError("this result does not carry a trained model")
        features = self.scaler.transform(
            embeddings.edge_features(np.asarray(src), np.asarray(dst))
        )
        return sigmoid(self.model.forward(features).reshape(-1))

    def summary(self) -> str:
        """One-line human-readable result summary."""
        auc_part = f", auc={self.auc:.3f}" if self.auc is not None else ""
        return (
            f"{self.task}: accuracy={self.accuracy:.3f}{auc_part} "
            f"(train {self.train_seconds:.2f}s over "
            f"{self.history.epochs_run} epochs, test {self.test_seconds:.3f}s)"
        )


def build_link_prediction_model(
    feature_dim: int, hidden_dim: int, seed: SeedLike = None
) -> Module:
    """The paper's 2-layer FNN: 2d -> hidden -> 1 logit."""
    rng = make_rng(seed)
    return Sequential(
        Linear(feature_dim, hidden_dim, seed=rng),
        ReLU(),
        Linear(hidden_dim, 1, seed=rng),
    )


class LinkPredictionTask:
    """Prepare data, train, and evaluate link prediction end to end."""

    def __init__(self, config: LinkPredictionConfig | None = None) -> None:
        self.config = config or LinkPredictionConfig()

    def run(
        self,
        embeddings: NodeEmbeddings,
        edges: TemporalEdgeList,
        seed: SeedLike = None,
    ) -> TaskResult:
        """Full Fig. 7 preparation plus classifier train/test.

        ``edges`` is the input temporal graph's edge stream; negatives in
        every partition are verified absent from the *whole* input graph
        and disjoint from each other.
        """
        cfg = self.config
        rng = make_rng(seed)
        rec = get_recorder()

        with rec.span("data_prep", task="link-prediction") as prep_span:
            splits = temporal_edge_split(
                edges,
                train_fraction=cfg.train_fraction,
                valid_fraction=cfg.valid_fraction,
                test_fraction=cfg.test_fraction,
                seed=rng,
            )
            forbidden = edges.edge_key_set()
            partitions = {}
            for name, positives in (
                ("train", splits.train), ("valid", splits.valid), ("test", splits.test)
            ):
                negatives = sample_negative_edges(
                    positives, forbidden, edges.num_nodes, seed=rng
                )
                # Keep later partitions from re-drawing these negatives.
                forbidden |= negatives.edge_key_set()
                partitions[name] = build_link_prediction_features(
                    embeddings, positives, negatives
                )
            scaler = Standardizer().fit(partitions["train"][0])
            partitions = {
                name: (scaler.transform(x), y) for name, (x, y) in partitions.items()
            }
        data_prep_seconds = prep_span.duration

        model = build_link_prediction_model(
            feature_dim=2 * embeddings.dim, hidden_dim=cfg.hidden_dim, seed=rng
        )
        loss = BCEWithLogitsLoss()

        def evaluate_accuracy(m: Module, x: np.ndarray, y: np.ndarray) -> float:
            probs = sigmoid(m.forward(x).reshape(-1))
            return binary_accuracy(probs, y)

        with rec.span("train", task="link-prediction"):
            history = train_classifier(
                model, loss, partitions["train"], partitions["valid"],
                cfg.training, evaluate_accuracy, seed=rng,
            )

        with rec.span("test", task="link-prediction") as test_span:
            test_x, test_y = partitions["test"]
            probs = sigmoid(model.forward(test_x).reshape(-1))
            accuracy = binary_accuracy(probs, test_y)
            auc = roc_auc(probs, test_y)
        test_seconds = test_span.duration

        return TaskResult(
            task="link-prediction",
            accuracy=accuracy,
            auc=auc,
            history=history,
            data_prep_seconds=data_prep_seconds,
            train_seconds=history.total_seconds,
            test_seconds=test_seconds,
            num_train=len(partitions["train"][1]),
            num_test=len(test_y),
            model=model,
            scaler=scaler,
            splits=splits,
        )
