"""Integration tests for the end-to-end pipeline (Fig. 1)."""

import numpy as np
import pytest

from repro.embedding import SgnsConfig
from repro.errors import PipelineError
from repro.tasks import Pipeline, PipelineConfig
from repro.tasks.link_prediction import LinkPredictionConfig
from repro.tasks.node_classification import NodeClassificationConfig
from repro.tasks.training import TrainSettings
from repro.walk import WalkConfig


FAST_TRAIN = TrainSettings(epochs=6, learning_rate=0.05)


@pytest.fixture(scope="module")
def fast_config():
    return PipelineConfig(
        walk=WalkConfig(num_walks_per_node=4, max_walk_length=6),
        sgns=SgnsConfig(dim=8, epochs=2),
        treat_undirected=True,
        link_prediction=LinkPredictionConfig(training=FAST_TRAIN),
        node_classification=NodeClassificationConfig(training=FAST_TRAIN),
    )


class TestLinkPredictionPipeline:
    @pytest.fixture(scope="class")
    def result(self, fast_config, email_edges):
        return Pipeline(fast_config).run_link_prediction(email_edges, seed=1)

    def test_accuracy_beats_chance(self, result):
        assert result.accuracy > 0.6

    def test_all_phases_timed(self, result):
        t = result.timings
        assert t.rwalk > 0
        assert t.word2vec > 0
        assert t.data_prep > 0
        assert t.train > 0
        assert t.total == pytest.approx(
            t.rwalk + t.word2vec + t.data_prep + t.train + t.test
        )

    def test_train_per_epoch(self, result):
        assert result.timings.train_epochs == 6
        assert result.timings.train_per_epoch == pytest.approx(
            result.timings.train / 6
        )

    def test_stats_attached(self, result):
        assert result.walk_stats.num_walks == result.corpus_num_walks
        assert result.trainer_stats.pairs_trained > 0
        assert result.embeddings.dim == 8

    def test_summary_mentions_phases(self, result):
        assert "rwalk" in result.summary()


class TestNodeClassificationPipeline:
    def test_runs_on_labeled_dataset(self, sbm_dataset):
        # The 150-node SBM needs more walk/SGNS/classifier budget than
        # the fast LP config to rise above chance.
        config = PipelineConfig(
            walk=WalkConfig(num_walks_per_node=8, max_walk_length=6),
            sgns=SgnsConfig(dim=8, epochs=5),
            treat_undirected=True,
            node_classification=NodeClassificationConfig(
                training=TrainSettings(epochs=25, learning_rate=0.05)
            ),
        )
        result = Pipeline(config).run_node_classification(sbm_dataset, seed=2)
        chance = (
            np.bincount(sbm_dataset.labels).max() / len(sbm_dataset.labels)
        )
        assert result.accuracy > chance

    def test_task_name(self, fast_config, sbm_dataset):
        result = Pipeline(fast_config).run_node_classification(
            sbm_dataset, seed=2
        )
        assert result.task_result.task == "node-classification"


class TestLinkPropertyPipeline:
    def test_runs(self, fast_config, email_edges):
        labels = (email_edges.src % 2 == email_edges.dst % 2).astype(np.int64)
        result = Pipeline(fast_config).run_link_property_prediction(
            email_edges, labels, seed=3
        )
        assert result.task_result.task == "link-property-prediction"
        assert result.timings.rwalk > 0


class TestPipelineConfigKnobs:
    @pytest.mark.parametrize("bad", [0, -1, None, 2.5, True])
    def test_batch_sentences_must_be_positive_int(self, bad):
        with pytest.raises(PipelineError, match="batch_sentences"):
            PipelineConfig(batch_sentences=bad)

    def test_directed_by_default(self, email_edges):
        cfg = PipelineConfig(
            walk=WalkConfig(num_walks_per_node=2, max_walk_length=4),
            sgns=SgnsConfig(dim=4, epochs=1),
        )
        pipe = Pipeline(cfg)
        emb, timings, walk_stats, _, corpus = pipe.embed(email_edges, seed=4)
        # Directed walks on an interaction graph terminate early.
        assert corpus.lengths.mean() < 4.0

    def test_undirected_walks_live_longer(self, email_edges):
        base = dict(walk=WalkConfig(num_walks_per_node=2, max_walk_length=4),
                    sgns=SgnsConfig(dim=4, epochs=1))
        directed = Pipeline(PipelineConfig(**base)).embed(email_edges, seed=4)
        undirected = Pipeline(
            PipelineConfig(treat_undirected=True, **base)
        ).embed(email_edges, seed=4)
        assert undirected[4].lengths.mean() > directed[4].lengths.mean()

    def test_sequential_trainer_path(self, email_edges):
        cfg = PipelineConfig(
            walk=WalkConfig(num_walks_per_node=1, max_walk_length=4),
            sgns=SgnsConfig(dim=4, epochs=1),
            batch_sentences=1,
        )
        emb, _, _, stats, _ = Pipeline(cfg).embed(email_edges, seed=5)
        assert stats.updates == stats.sentences

    def test_gumbel_sampler_path(self, email_edges):
        cfg = PipelineConfig(
            walk=WalkConfig(num_walks_per_node=1, max_walk_length=4),
            sgns=SgnsConfig(dim=4, epochs=1),
            sampler="gumbel",
        )
        emb, _, walk_stats, _, _ = Pipeline(cfg).embed(email_edges, seed=6)
        assert walk_stats.total_steps > 0
        # "batched" named the deleted window-table kernel.
        for sampler in ("magic", "batched"):
            with pytest.raises(PipelineError, match="unknown sampler"):
                PipelineConfig(sampler=sampler)
