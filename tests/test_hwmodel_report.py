"""Unit tests for the one-call pipeline characterization."""

import pytest

from repro.embedding import SgnsConfig
from repro.embedding.trainer import TrainerStats
from repro.hwmodel.report import characterize_pipeline
from repro.walk import TemporalWalkEngine, WalkConfig


@pytest.fixture(scope="module")
def characterization(email_graph):
    engine = TemporalWalkEngine(email_graph)
    engine.run(WalkConfig(num_walks_per_node=4, max_walk_length=6), seed=1)
    stats = TrainerStats(pairs_trained=50_000, updates=40)
    return characterize_pipeline(
        walk_stats=engine.last_stats,
        trainer_stats=stats,
        sgns_config=SgnsConfig(dim=8),
        graph=email_graph,
        num_train_samples=100_000,
        num_test_samples=10_000,
    )


class TestCharacterizePipeline:
    def test_all_four_kernels_present(self, characterization):
        expected = {"rwalk", "word2vec", "train", "test"}
        assert set(characterization.instruction_mixes) == expected
        assert set(characterization.gpu_reports) == expected

    def test_summary_rows_structure(self, characterization):
        rows = characterization.summary_rows()
        assert len(rows) == 4
        for row in rows:
            assert {"kernel", "compute", "memory", "dominant stall",
                    "sm util", "flops/byte"} <= set(row)

    def test_dominant_stalls_match_fig11(self, characterization):
        reports = characterization.gpu_reports
        assert reports["rwalk"].stalls.dominant() == "compute_dependency"
        assert reports["word2vec"].stalls.dominant() == "memory_scoreboard"
        assert reports["train"].stalls.dominant() == "imc_miss"

    def test_roofline_points_cover_kernels(self, characterization):
        names = [p.name for p in characterization.roofline_points]
        assert names == ["rwalk", "word2vec", "train", "test"]
        for point in characterization.roofline_points:
            assert characterization.roofline.classify(point) in (
                "memory-bound", "compute-bound")

    def test_scaling_curve_present(self, characterization):
        assert characterization.walk_scaling[1] == pytest.approx(1.0,
                                                                 rel=0.05)
        assert characterization.walk_scaling[8] > 3.0

    def test_default_classifier_dims_follow_embedding(self, email_graph):
        engine = TemporalWalkEngine(email_graph)
        engine.run(WalkConfig(num_walks_per_node=2, max_walk_length=4),
                   seed=2)
        char = characterize_pipeline(
            walk_stats=engine.last_stats,
            trainer_stats=TrainerStats(pairs_trained=1000, updates=2),
            sgns_config=SgnsConfig(dim=16),
            graph=email_graph,
            num_train_samples=1000,
            num_test_samples=100,
        )
        # Feature dim = 2d = 32 drives the train profile notes.
        assert char.instruction_mixes["train"].mix.total > 0
