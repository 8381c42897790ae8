"""Unit tests for the shared classifier training loop."""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.nn import BCEWithLogitsLoss, Linear, ReLU, Sequential
from repro.nn.metrics import binary_accuracy
from repro.tasks.training import TrainHistory, TrainSettings, train_classifier


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60, 60)))


def separable_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 4))
    y = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(float)
    return (x[: n // 2], y[: n // 2]), (x[n // 2:], y[n // 2:])


def evaluate(model, x, y):
    return binary_accuracy(_sigmoid(model.forward(x).reshape(-1)), y)


class TestTrainSettings:
    def test_invalid_epochs(self):
        with pytest.raises(TrainingError):
            TrainSettings(epochs=0)

    def test_invalid_batch(self):
        with pytest.raises(TrainingError):
            TrainSettings(batch_size=0)


class TestDefaultSchedules:
    """Each task's default schedule, and the evidence behind LP's."""

    def test_lp_default_is_the_frontier_sweeps_chosen_cell(self):
        import json

        from repro.bench.runner import DEFAULT_RESULTS_DIR
        from repro.tasks.link_prediction import LinkPredictionConfig

        record = json.loads(
            (DEFAULT_RESULTS_DIR / "fig08e_classifier_frontier.json")
            .read_text())
        chosen = record["chosen"]
        assert LinkPredictionConfig().training == TrainSettings(
            epochs=chosen["epochs"], batch_size=chosen["batch_size"],
            learning_rate=chosen["learning_rate"])
        assert all(drop >= -0.005
                   for drop in chosen["auc_change_vs_baseline"].values())

    def test_class_nc_and_link_property_defaults_unchanged(self):
        from repro.tasks.link_property import LinkPropertyConfig
        from repro.tasks.node_classification import NodeClassificationConfig

        for settings in (TrainSettings(),
                         NodeClassificationConfig().training,
                         LinkPropertyConfig().training):
            assert (settings.epochs, settings.batch_size,
                    settings.learning_rate) == (30, 128, 0.1)
            assert settings == TrainSettings()


class TestTrainClassifier:
    def test_learns_separable_data(self):
        train, valid = separable_data()
        model = Sequential(Linear(4, 8, seed=1), ReLU(), Linear(8, 1, seed=2))
        history = train_classifier(
            model, BCEWithLogitsLoss(), train, valid,
            TrainSettings(epochs=20, learning_rate=0.1),
            evaluate, seed=3,
        )
        assert history.records[-1].valid_accuracy > 0.85
        assert history.final_train_loss < history.records[0].train_loss

    def test_history_bookkeeping(self):
        train, valid = separable_data()
        model = Sequential(Linear(4, 4, seed=1), ReLU(), Linear(4, 1, seed=2))
        history = train_classifier(
            model, BCEWithLogitsLoss(), train, valid,
            TrainSettings(epochs=5, learning_rate=0.05),
            evaluate, seed=3,
        )
        assert history.epochs_run == 5
        assert history.total_seconds == pytest.approx(
            sum(r.seconds for r in history.records)
        )
        assert history.seconds_per_epoch == pytest.approx(
            history.total_seconds / 5
        )
        assert [r.epoch for r in history.records] == list(range(5))

    def test_target_accuracy_stops_early(self):
        train, valid = separable_data()
        model = Sequential(Linear(4, 8, seed=1), ReLU(), Linear(8, 1, seed=2))
        history = train_classifier(
            model, BCEWithLogitsLoss(), train, valid,
            TrainSettings(epochs=50, learning_rate=0.1,
                          target_accuracy=0.8),
            evaluate, seed=3,
        )
        assert history.stopped_early
        assert history.epochs_run < 50
        assert history.records[-1].valid_accuracy >= 0.8

    def test_unreachable_target_runs_all_epochs(self):
        train, valid = separable_data()
        model = Sequential(Linear(4, 2, seed=1), ReLU(), Linear(2, 1, seed=2))
        history = train_classifier(
            model, BCEWithLogitsLoss(), train, valid,
            TrainSettings(epochs=4, learning_rate=0.01,
                          target_accuracy=1.01),
            evaluate, seed=3,
        )
        assert not history.stopped_early
        assert history.epochs_run == 4

    def test_deterministic_by_seed(self):
        train, valid = separable_data()

        def run():
            model = Sequential(Linear(4, 4, seed=1), ReLU(),
                               Linear(4, 1, seed=2))
            return train_classifier(
                model, BCEWithLogitsLoss(), train, valid,
                TrainSettings(epochs=3, learning_rate=0.05),
                evaluate, seed=9,
            )

        a, b = run(), run()
        assert a.final_train_loss == b.final_train_loss
        assert (a.records[-1].valid_accuracy
                == b.records[-1].valid_accuracy)

    def test_train_loss_invariant_to_batch_size(self):
        # Regression: train_loss was the unweighted mean of batch
        # losses, so the smaller final batch was over-weighted and the
        # reported loss changed with batch_size.  With a vanishing
        # learning rate the weights never move, so the sample-weighted
        # epoch loss must be the full-dataset mean loss for any
        # batching.
        train, valid = separable_data()
        losses = []
        for batch_size in (32, 64, 100, 128):
            model = Sequential(Linear(4, 4, seed=1), ReLU(),
                               Linear(4, 1, seed=2))
            history = train_classifier(
                model, BCEWithLogitsLoss(), train, valid,
                TrainSettings(epochs=1, batch_size=batch_size,
                              learning_rate=1e-12, momentum=0.0),
                evaluate, seed=3,
            )
            losses.append(history.final_train_loss)
        assert np.allclose(losses, losses[0], atol=1e-9)

    def test_empty_history_defaults(self):
        history = TrainHistory()
        assert history.epochs_run == 0
        assert history.seconds_per_epoch == 0.0
        assert np.isnan(history.final_train_loss)
