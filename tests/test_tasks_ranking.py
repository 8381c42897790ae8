"""Unit tests for the ranking evaluation (MRR / Hits@k)."""

import numpy as np
import pytest

from repro.errors import DataPreparationError
from repro.graph.edges import TemporalEdgeList
from repro.tasks import LinkPredictionTask
from repro.tasks.link_prediction import LinkPredictionConfig
from repro.tasks.ranking import rank_link_predictions
from repro.tasks.training import TrainSettings


@pytest.fixture(scope="module")
def trained(email_embeddings, email_edges):
    task = LinkPredictionTask(LinkPredictionConfig(
        training=TrainSettings(epochs=10, learning_rate=0.05)))
    result = task.run(email_embeddings, email_edges, seed=1)
    ordered = email_edges.sorted_by_time()
    test_edges = ordered.take(
        np.arange(int(0.8 * len(ordered)), len(ordered))
    )
    return result, test_edges


class TestRankLinkPredictions:
    def test_metrics_in_range(self, trained, email_embeddings, email_edges):
        result, test_edges = trained
        metrics = rank_link_predictions(
            result, email_embeddings, test_edges,
            num_negatives=20, max_queries=100,
            forbidden=email_edges.edge_key_set(), seed=2,
        )
        assert 0.0 <= metrics.mrr <= 1.0
        assert all(0.0 <= v <= 1.0 for v in metrics.hits_at.values())
        assert metrics.num_queries == 100
        assert metrics.num_candidates == 21

    def test_beats_random_ranking(self, trained, email_embeddings,
                                  email_edges):
        result, test_edges = trained
        metrics = rank_link_predictions(
            result, email_embeddings, test_edges,
            num_negatives=20, max_queries=150,
            forbidden=email_edges.edge_key_set(), seed=3,
        )
        # Random ranking over 21 candidates: MRR ~ H(21)/21 ~ 0.17,
        # Hits@10 ~ 0.48.  A trained model must beat both clearly.
        assert metrics.mrr > 0.3
        assert metrics.hits_at[10] > 0.6

    def test_hits_monotone_in_k(self, trained, email_embeddings,
                                email_edges):
        result, test_edges = trained
        metrics = rank_link_predictions(
            result, email_embeddings, test_edges,
            num_negatives=20, max_queries=80, seed=4,
        )
        assert (metrics.hits_at[1] <= metrics.hits_at[5]
                <= metrics.hits_at[10])

    def test_as_row(self, trained, email_embeddings, email_edges):
        result, test_edges = trained
        metrics = rank_link_predictions(
            result, email_embeddings, test_edges,
            num_negatives=10, max_queries=30, seed=5,
        )
        row = metrics.as_row()
        assert "mrr" in row and "hits@10" in row

    def test_modelless_result_rejected(self, trained, email_embeddings):
        result, test_edges = trained
        from dataclasses import replace
        bare = replace(result, model=None)
        with pytest.raises(DataPreparationError):
            rank_link_predictions(bare, email_embeddings, test_edges)

    def test_empty_test_edges_rejected(self, trained, email_embeddings):
        result, _ = trained
        empty = TemporalEdgeList([], [], [], num_nodes=5)
        with pytest.raises(DataPreparationError):
            rank_link_predictions(result, email_embeddings, empty)

    def test_invalid_negatives(self, trained, email_embeddings):
        result, test_edges = trained
        with pytest.raises(DataPreparationError):
            rank_link_predictions(result, email_embeddings, test_edges,
                                  num_negatives=0)