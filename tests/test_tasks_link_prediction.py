"""Unit tests for the link-prediction task."""

import pytest

from repro.nn.layers import Linear
from repro.tasks.link_prediction import (
    LinkPredictionConfig,
    LinkPredictionTask,
    build_link_prediction_model,
)
from repro.tasks.training import TrainSettings


class TestModelArchitecture:
    def test_two_layers(self):
        model = build_link_prediction_model(16, 32, seed=1)
        linears = [l for l in model.layers if isinstance(l, Linear)]
        assert len(linears) == 2
        assert linears[0].in_features == 16
        assert linears[1].out_features == 1


class TestTaskRun:
    @pytest.fixture(scope="class")
    def result(self, email_embeddings, email_edges):
        config = LinkPredictionConfig(
            hidden_dim=16,
            training=TrainSettings(epochs=12, learning_rate=0.05),
        )
        return LinkPredictionTask(config).run(
            email_embeddings, email_edges, seed=3
        )

    def test_beats_chance(self, result):
        assert result.accuracy > 0.6
        assert result.auc > 0.65

    def test_timings_recorded(self, result):
        assert result.data_prep_seconds > 0
        assert result.train_seconds > 0
        assert result.test_seconds >= 0

    def test_history_length(self, result):
        assert result.history.epochs_run == 12

    def test_balanced_test_set(self, result, email_edges):
        # Test partition holds 20% positives plus equal negatives.
        expected = 2 * round(0.2 * len(email_edges))
        assert result.num_test == pytest.approx(expected, abs=4)

    def test_summary_text(self, result):
        text = result.summary()
        assert "link-prediction" in text
        assert "accuracy" in text

    def test_target_accuracy_stops_early(self, email_embeddings, email_edges):
        config = LinkPredictionConfig(
            training=TrainSettings(
                epochs=40, learning_rate=0.05, target_accuracy=0.55
            )
        )
        result = LinkPredictionTask(config).run(
            email_embeddings, email_edges, seed=4
        )
        assert result.history.stopped_early
        assert result.history.epochs_run < 40

    def test_deterministic_by_seed(self, email_embeddings, email_edges):
        config = LinkPredictionConfig(
            training=TrainSettings(epochs=3, learning_rate=0.05)
        )
        a = LinkPredictionTask(config).run(email_embeddings, email_edges, seed=5)
        b = LinkPredictionTask(config).run(email_embeddings, email_edges, seed=5)
        assert a.accuracy == b.accuracy
