"""Edge-case coverage across modules."""

import numpy as np
import pytest

from repro.graph import TemporalGraph
from repro.graph.edges import TemporalEdgeList
from repro.walk import TemporalWalkEngine, WalkConfig, run_walks_reference


class TestWalkEdgeCases:
    def test_reference_allow_equal(self):
        edges = TemporalEdgeList([0, 1], [1, 2], [0.5, 0.5])
        graph = TemporalGraph.from_edge_list(edges)
        config = WalkConfig(num_walks_per_node=10, max_walk_length=3,
                            allow_equal=True)
        corpus = run_walks_reference(graph, config, seed=1,
                                     start_nodes=np.array([0]))
        assert corpus.lengths.max() == 3

    def test_single_node_graph(self):
        edges = TemporalEdgeList([], [], [], num_nodes=1)
        graph = TemporalGraph.from_edge_list(edges)
        corpus = TemporalWalkEngine(graph).run(
            WalkConfig(num_walks_per_node=2, max_walk_length=3), seed=1
        )
        assert corpus.num_walks == 2
        assert np.all(corpus.lengths == 1)

    def test_self_loop_multiedges_walkable(self):
        # Self-loops with increasing timestamps form valid temporal walks.
        edges = TemporalEdgeList([0, 0, 0], [0, 0, 0], [0.1, 0.2, 0.3])
        graph = TemporalGraph.from_edge_list(edges)
        corpus = TemporalWalkEngine(graph).run(
            WalkConfig(num_walks_per_node=5, max_walk_length=4), seed=1
        )
        assert corpus.lengths.max() == 4
        assert corpus.validate_temporal_order(graph)

    def test_walk_length_one_returns_starts_only(self, tiny_graph):
        corpus = TemporalWalkEngine(tiny_graph).run(
            WalkConfig(num_walks_per_node=2, max_walk_length=1), seed=1
        )
        assert np.all(corpus.lengths == 1)
        assert corpus.matrix.shape[1] == 1

    def test_duplicate_start_nodes_allowed(self, tiny_graph):
        corpus = TemporalWalkEngine(tiny_graph).run(
            WalkConfig(num_walks_per_node=1, max_walk_length=3),
            seed=1, start_nodes=np.array([0, 0, 0]),
        )
        assert corpus.num_walks == 3
        assert np.all(corpus.start_nodes == 0)


class TestDataLoaderEdgeCases:
    def test_batch_larger_than_dataset(self):
        from repro.nn import DataLoader

        loader = DataLoader(np.zeros((3, 2)), np.zeros(3), batch_size=10)
        batches = list(loader)
        assert len(batches) == 1
        assert len(batches[0][1]) == 3

    def test_drop_last_smaller_than_batch_yields_nothing(self):
        from repro.nn import DataLoader

        loader = DataLoader(np.zeros((3, 2)), np.zeros(3), batch_size=10,
                            drop_last=True)
        assert list(loader) == []
        assert len(loader) == 0


class TestNegativeSamplingEdgeCases:
    def test_corrupt_dst_only_keeps_sources(self, email_edges):
        from repro.tasks.negative_sampling import sample_negative_edges

        negatives = sample_negative_edges(
            email_edges, email_edges.edge_key_set(), email_edges.num_nodes,
            count=50, corrupt_both_probability=0.0, seed=1,
        )
        positive_sources = set(email_edges.src.tolist())
        assert set(negatives.src.tolist()) <= positive_sources


class TestSchedulerEdgeCases:
    def test_smaller_chunks_balance_adversarial_order(self):
        from repro.hwmodel.threads import SchedulerCosts, simulate_schedule

        costs = SchedulerCosts(per_thread_startup=0.0,
                               per_chunk_dispatch=0.0, per_steal=0.0,
                               bandwidth_speedup_cap=None)
        # All heavy items first: big chunks assign them together.
        work = np.concatenate([np.full(64, 100.0), np.full(960, 1.0)])
        coarse = simulate_schedule(work, 8, "dynamic", chunk=64, costs=costs)
        fine = simulate_schedule(work, 8, "dynamic", chunk=4, costs=costs)
        assert fine.makespan <= coarse.makespan

    def test_more_items_than_threads_all_busy(self):
        from repro.hwmodel.threads import SchedulerCosts, simulate_schedule

        costs = SchedulerCosts(per_thread_startup=0.0,
                               per_chunk_dispatch=0.0, per_steal=0.0,
                               bandwidth_speedup_cap=None)
        result = simulate_schedule(np.ones(100), 4, "dynamic", chunk=1,
                                   costs=costs)
        assert np.all(result.per_thread_work > 0)


class TestVocabEdgeCases:
    def test_keep_all_subsampling_preserves_pairs(self, rng):
        from repro.embedding.skipgram import generate_pairs, sentence_pairs

        keep = np.ones(3)  # keep everything
        sentence = np.array([2, 0, 1, 2])
        c, o = sentence_pairs(sentence, [4], 2, rng, dynamic_window=False,
                              keep=keep)
        c_all, o_all = generate_pairs(sentence, 2, rng, dynamic_window=False)
        assert np.array_equal(c, c_all) and np.array_equal(o, o_all)


class TestWelFormatting:
    def test_tiny_timestamps_round_trip(self, tmp_path):
        from repro.graph.io import read_wel, write_wel

        edges = TemporalEdgeList([0, 1], [1, 0], [1.23456789e-9, 0.5])
        path = tmp_path / "tiny.wel"
        write_wel(edges, path)
        back = read_wel(path, normalize=False)
        assert back.timestamps[0] == pytest.approx(1.23456789e-9, rel=1e-6)
