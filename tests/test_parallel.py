"""Tests for the multiprocess parallel execution layer (repro.parallel)."""

import collections

import numpy as np
import pytest

from repro.embedding import SgnsConfig, train_embeddings
from repro.embedding.batched import BatchedSgnsTrainer
from repro.errors import EmbeddingError, PipelineError, WalkError
from repro.parallel import (
    ParallelSgnsTrainer,
    SharedCsrGraph,
    merge_walk_stats,
    run_parallel_walks,
    shard_indices,
)
from repro.tasks.pipeline import Pipeline, PipelineConfig
from repro.walk import TemporalWalkEngine, WalkConfig
from repro.walk.engine import WalkStats


class TestShardIndices:
    def test_partition_is_exhaustive_and_disjoint(self):
        shards = shard_indices(10, 3)
        merged = np.concatenate(shards)
        assert np.array_equal(np.sort(merged), np.arange(10))

    def test_near_equal_sizes(self):
        sizes = [len(s) for s in shard_indices(100, 7)]
        assert max(sizes) - min(sizes) <= 1

    def test_more_workers_than_items_drops_empty_shards(self):
        shards = shard_indices(2, 8)
        assert all(len(s) > 0 for s in shards)
        assert sum(len(s) for s in shards) == 2

    def test_invalid_workers(self):
        with pytest.raises(WalkError):
            shard_indices(10, 0)


class TestSharedCsrGraph:
    def test_round_trip_preserves_arrays(self, email_graph):
        with SharedCsrGraph.create(email_graph) as shared:
            view = shared.graph()
            assert np.array_equal(view.indptr, email_graph.indptr)
            assert np.array_equal(view.dst, email_graph.dst)
            assert np.array_equal(view.ts, email_graph.ts)
            del view

    def test_attach_sees_parent_data(self, tiny_graph):
        with SharedCsrGraph.create(tiny_graph) as shared:
            attached = SharedCsrGraph.attach(shared.spec)
            view = attached.graph()
            assert np.array_equal(view.dst, tiny_graph.dst)
            del view
            attached.close()


class TestMergeWalkStats:
    def test_counters_sum_and_work_adds_elementwise(self):
        a = WalkStats(num_walks=3, total_steps=5, candidates_scanned=7,
                      search_iterations=2, terminated_early=1,
                      work_per_start_node=np.array([1, 0, 2], dtype=np.int64))
        b = WalkStats(num_walks=4, total_steps=1, candidates_scanned=3,
                      search_iterations=9, terminated_early=0,
                      work_per_start_node=np.array([0, 5, 1], dtype=np.int64))
        merged = merge_walk_stats([a, b])
        assert merged.num_walks == 7
        assert merged.total_steps == 6
        assert merged.candidates_scanned == 10
        assert merged.search_iterations == 11
        assert merged.terminated_early == 1
        assert np.array_equal(merged.work_per_start_node, [1, 5, 3])

    def test_empty_merge(self):
        assert merge_walk_stats([]).num_walks == 0

    def test_mismatched_shapes_rejected(self):
        a = WalkStats(work_per_start_node=np.zeros(2, dtype=np.int64))
        b = WalkStats(work_per_start_node=np.zeros(3, dtype=np.int64))
        with pytest.raises(WalkError):
            merge_walk_stats([a, b])


class TestParallelWalks:
    def test_workers_one_bit_identical_to_serial(self, email_graph):
        config = WalkConfig(num_walks_per_node=3, max_walk_length=5)
        engine = TemporalWalkEngine(email_graph)
        serial = engine.run(config, seed=7)
        corpus, stats = run_parallel_walks(email_graph, config, workers=1,
                                           seed=7)
        assert np.array_equal(serial.matrix, corpus.matrix)
        assert np.array_equal(serial.lengths, corpus.lengths)
        assert stats.candidates_scanned == engine.last_stats.candidates_scanned
        assert np.array_equal(stats.work_per_start_node,
                              engine.last_stats.work_per_start_node)

    def test_sharded_corpus_has_identical_per_node_walk_counts(
        self, email_graph
    ):
        config = WalkConfig(num_walks_per_node=4, max_walk_length=5)
        engine = TemporalWalkEngine(email_graph)
        serial = engine.run(config, seed=7)
        corpus, _ = run_parallel_walks(email_graph, config, workers=3, seed=7)
        assert corpus.num_walks == serial.num_walks
        serial_counts = collections.Counter(serial.start_nodes.tolist())
        parallel_counts = collections.Counter(corpus.start_nodes.tolist())
        assert serial_counts == parallel_counts

    def test_merged_stats_equal_sum_of_shard_stats(self, email_graph):
        config = WalkConfig(num_walks_per_node=2, max_walk_length=4)
        corpus, merged = run_parallel_walks(email_graph, config, workers=2,
                                            seed=9)
        assert merged.num_walks == corpus.num_walks
        # Every recorded step corresponds to one non-pad entry beyond
        # the start node, so the counters and corpus must agree.
        assert merged.total_steps == int((corpus.lengths - 1).sum())
        assert merged.work_per_start_node.sum() >= merged.candidates_scanned

    def test_walks_are_temporally_valid(self, tiny_graph):
        config = WalkConfig(num_walks_per_node=5, max_walk_length=4)
        corpus, _ = run_parallel_walks(tiny_graph, config, workers=2, seed=1)
        assert corpus.validate_temporal_order(tiny_graph)

    def test_fixed_seed_determinism_two_workers(self, email_graph):
        config = WalkConfig(num_walks_per_node=3, max_walk_length=5)
        a, stats_a = run_parallel_walks(email_graph, config, workers=2, seed=13)
        b, stats_b = run_parallel_walks(email_graph, config, workers=2, seed=13)
        assert np.array_equal(a.matrix, b.matrix)
        assert np.array_equal(a.lengths, b.lengths)
        assert stats_a.candidates_scanned == stats_b.candidates_scanned
        assert np.array_equal(stats_a.work_per_start_node,
                              stats_b.work_per_start_node)

    def test_explicit_start_nodes_and_invalid_workers(self, email_graph):
        config = WalkConfig(num_walks_per_node=2, max_walk_length=3)
        starts = np.arange(min(10, email_graph.num_nodes), dtype=np.int64)
        corpus, _ = run_parallel_walks(email_graph, config, workers=2,
                                       seed=3, start_nodes=starts)
        assert corpus.num_walks == 2 * len(starts)
        with pytest.raises(WalkError):
            run_parallel_walks(email_graph, config, workers=0, seed=3)


class TestParallelSgns:
    def test_workers_one_matches_batched_trainer_exactly(
        self, email_corpus, email_graph
    ):
        cfg = SgnsConfig(dim=4, epochs=1)
        parallel = ParallelSgnsTrainer(cfg, workers=1, batch_sentences=128)
        a = parallel.train(email_corpus, email_graph.num_nodes, seed=5)
        serial = BatchedSgnsTrainer(cfg, batch_sentences=128)
        b = serial.train(email_corpus, email_graph.num_nodes, seed=5)
        assert np.array_equal(a.w_in, b.w_in)
        assert np.array_equal(a.w_out, b.w_out)
        assert parallel.last_stats.mean_loss == serial.last_stats.mean_loss

    def test_workers_one_sequential_path(self, email_corpus, email_graph):
        cfg = SgnsConfig(dim=4, epochs=1)
        parallel = ParallelSgnsTrainer(cfg, workers=1, batch_sentences=1)
        a = parallel.train(email_corpus, email_graph.num_nodes, seed=5)
        serial = BatchedSgnsTrainer(cfg, batch_sentences=1)
        b = serial.train(email_corpus, email_graph.num_nodes, seed=5)
        assert np.array_equal(a.w_in, b.w_in)
        assert parallel.last_stats.updates == parallel.last_stats.sentences

    def test_two_workers_deterministic_and_finite(
        self, email_corpus, email_graph
    ):
        cfg = SgnsConfig(dim=4, epochs=2)
        t1 = ParallelSgnsTrainer(cfg, workers=2, batch_sentences=64)
        m1 = t1.train(email_corpus, email_graph.num_nodes, seed=6)
        t2 = ParallelSgnsTrainer(cfg, workers=2, batch_sentences=64)
        m2 = t2.train(email_corpus, email_graph.num_nodes, seed=6)
        assert np.array_equal(m1.w_in, m2.w_in)
        assert np.isfinite(m1.w_in).all()
        stats = t1.last_stats
        assert stats.pairs_trained > 0
        assert stats.mean_loss > 0
        # Every sentence is visited once per epoch across all shards.
        sentences = sum(1 for _ in email_corpus.sentences(min_length=2))
        assert stats.sentences == cfg.epochs * sentences

    def test_invalid_workers(self):
        with pytest.raises(EmbeddingError):
            ParallelSgnsTrainer(SgnsConfig(), workers=0)

    def test_train_embeddings_workers_route(self, email_corpus, email_graph):
        emb, stats = train_embeddings(
            email_corpus, email_graph.num_nodes, SgnsConfig(dim=4, epochs=1),
            batch_sentences=64, seed=2, workers=2,
        )
        assert emb.matrix.shape == (email_graph.num_nodes, 4)
        assert stats.updates > 0
        emb, stats = train_embeddings(
            email_corpus, email_graph.num_nodes, SgnsConfig(dim=4, epochs=1),
            batch_sentences=64, seed=2, workers=2,
            objective="hierarchical-softmax",
        )
        assert emb.matrix.shape == (email_graph.num_nodes, 4)
        assert np.isfinite(emb.matrix).all()
        assert stats.negatives_drawn == 0
        with pytest.raises(EmbeddingError):
            train_embeddings(email_corpus, email_graph.num_nodes, workers=0)


class TestParallelPipeline:
    def test_workers_one_bit_identical_pipeline(self, email_edges):
        serial = Pipeline(PipelineConfig(treat_undirected=True)
                          ).run_link_prediction(email_edges, seed=0)
        parallel = Pipeline(PipelineConfig(treat_undirected=True, workers=1)
                            ).run_link_prediction(email_edges, seed=0)
        assert np.array_equal(serial.embeddings.matrix,
                              parallel.embeddings.matrix)
        assert serial.accuracy == parallel.accuracy

    def test_workers_four_end_to_end(self, email_edges):
        result = Pipeline(
            PipelineConfig(treat_undirected=True, workers=4)
        ).run_link_prediction(email_edges, seed=0)
        assert 0.0 <= result.accuracy <= 1.0
        assert result.walk_stats.num_walks == result.corpus_num_walks
        assert np.isfinite(result.embeddings.matrix).all()

    def test_invalid_workers_config(self):
        with pytest.raises(PipelineError):
            PipelineConfig(workers=0)
