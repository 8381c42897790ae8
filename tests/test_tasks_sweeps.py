"""Unit tests for the hyperparameter-sweep API."""

import pytest

from repro.errors import ReproError
from repro.embedding import SgnsConfig
from repro.tasks.link_prediction import LinkPredictionConfig
from repro.tasks.sweeps import SweepResult, sweep_dataset, sweep_hyperparameter
from repro.tasks.training import TrainSettings
from repro.walk import WalkConfig

FAST_KWARGS = dict(
    seeds=(11,),
    base_walk=WalkConfig(num_walks_per_node=4, max_walk_length=5),
    base_sgns=SgnsConfig(dim=8, epochs=2),
    lp_config=LinkPredictionConfig(
        training=TrainSettings(epochs=5, learning_rate=0.05)
    ),
)


class TestSweepResult:
    def test_saturation_point(self):
        result = SweepResult("num_walks", [1, 2, 4, 8])
        result.accuracies = {1: 0.7, 2: 0.8, 4: 0.89, 8: 0.9}
        assert result.saturation_point(tolerance=0.02) == 4
        assert result.saturation_point(tolerance=0.0) == 8

    def test_rows(self):
        result = SweepResult("dimension", [2, 1])
        result.accuracies = {2: 0.8, 1: 0.7}
        rows = result.rows()
        assert rows[0] == {"dimension": 1, "accuracy": 0.7}


class TestSweepHyperparameter:
    def test_unknown_parameter_rejected(self, email_edges):
        with pytest.raises(ReproError):
            sweep_hyperparameter("window", [1], email_edges)

    def test_lp_sweep_runs(self, email_edges):
        result = sweep_hyperparameter(
            "num_walks", [1, 4], email_edges, **FAST_KWARGS
        )
        assert set(result.accuracies) == {1, 4}
        assert all(0 <= a <= 1 for a in result.accuracies.values())

    def test_dimension_sweep_varies_dimension(self, email_edges):
        result = sweep_hyperparameter(
            "dimension", [2, 8], email_edges, **FAST_KWARGS
        )
        assert set(result.accuracies) == {2, 8}

    def test_nc_dispatch_via_sweep_dataset(self, sbm_dataset):
        from repro.tasks.node_classification import NodeClassificationConfig

        result = sweep_dataset(
            sbm_dataset, "walk_length", [3, 5],
            seeds=(11,),
            base_sgns=SgnsConfig(dim=8, epochs=2),
            nc_config=NodeClassificationConfig(
                training=TrainSettings(epochs=5, learning_rate=0.05)
            ),
        )
        assert result.parameter == "walk_length"
        assert set(result.accuracies) == {3, 5}
