"""Unit tests for synthetic graph generators (Table II stand-ins)."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import TemporalGraph, generators
from repro.graph.io import LabeledTemporalDataset
from repro.graph.stats import gini


class TestErdosRenyi:
    def test_shape(self):
        edges = generators.erdos_renyi_temporal(100, 500, seed=1)
        assert edges.num_nodes == 100
        assert len(edges) == 500

    def test_deterministic_by_seed(self):
        a = generators.erdos_renyi_temporal(50, 200, seed=3)
        b = generators.erdos_renyi_temporal(50, 200, seed=3)
        assert np.array_equal(a.src, b.src)
        assert np.array_equal(a.timestamps, b.timestamps)

    def test_seeds_differ(self):
        a = generators.erdos_renyi_temporal(50, 200, seed=3)
        b = generators.erdos_renyi_temporal(50, 200, seed=4)
        assert not np.array_equal(a.src, b.src)

    def test_no_self_loops_by_default(self):
        edges = generators.erdos_renyi_temporal(20, 500, seed=5)
        assert np.all(edges.src != edges.dst)

    def test_timestamps_in_unit_range(self):
        edges = generators.erdos_renyi_temporal(20, 200, seed=6)
        assert edges.timestamps.min() >= 0.0
        assert edges.timestamps.max() <= 1.0

    def test_growth_concentrates_late(self):
        uniform = generators.erdos_renyi_temporal(50, 5000, seed=7, growth=1.0)
        late = generators.erdos_renyi_temporal(50, 5000, seed=7, growth=3.0)
        assert late.timestamps.mean() > uniform.timestamps.mean() + 0.1

    def test_low_degree_skew(self):
        edges = generators.erdos_renyi_temporal(500, 5000, seed=8)
        g = TemporalGraph.from_edge_list(edges)
        assert gini(g.out_degrees()) < 0.4

    def test_invalid_num_nodes(self):
        with pytest.raises(GraphError):
            generators.erdos_renyi_temporal(0, 10)


class TestActivityDriven:
    def test_heavy_tailed_degrees(self):
        edges = generators.activity_driven_temporal(2000, 20000, seed=1)
        g = TemporalGraph.from_edge_list(edges)
        assert gini(g.out_degrees()) > 0.5

    def test_compact_removes_unused_ids(self):
        edges = generators.activity_driven_temporal(
            5000, 1000, seed=2, compact=True
        )
        used = set(edges.src.tolist()) | set(edges.dst.tolist())
        assert used == set(range(edges.num_nodes))

    def test_no_compact_keeps_requested_nodes(self):
        edges = generators.activity_driven_temporal(
            5000, 1000, seed=2, compact=False
        )
        assert edges.num_nodes == 5000

    def test_no_self_loops(self):
        edges = generators.activity_driven_temporal(100, 5000, seed=3)
        assert np.all(edges.src != edges.dst)

    def test_burstiness_repeats_sources(self):
        calm = generators.activity_driven_temporal(
            500, 5000, seed=4, burstiness=0.0
        )
        bursty = generators.activity_driven_temporal(
            500, 5000, seed=4, burstiness=0.5
        )

        def same_src_fraction(e):
            return (e.src[1:] == e.src[:-1]).mean()

        assert same_src_fraction(bursty) > same_src_fraction(calm) + 0.2

    def test_burstiness_raises_node_burstiness(self):
        from repro.graph import TemporalGraph
        from repro.graph.temporal_stats import node_inter_event_burstiness

        def mean_burstiness(b):
            edges = generators.activity_driven_temporal(
                1500, 15000, seed=5, burstiness=b
            )
            graph = TemporalGraph.from_edge_list(edges)
            return node_inter_event_burstiness(graph).mean()

        assert mean_burstiness(0.6) > mean_burstiness(0.0) + 0.2

    def test_invalid_burstiness(self):
        with pytest.raises(GraphError):
            generators.activity_driven_temporal(10, 10, burstiness=1.0)

    def test_exact_edge_count_with_bursts(self):
        edges = generators.activity_driven_temporal(
            200, 3333, seed=6, burstiness=0.5
        )
        assert len(edges) == 3333

    def test_too_few_nodes_rejected(self):
        with pytest.raises(GraphError):
            generators.activity_driven_temporal(1, 10)


class TestTemporalSbm:
    def test_labels_match_blocks(self):
        ds = generators.temporal_sbm([30, 20], 5.0, 1.0, seed=1)
        assert np.all(ds.labels[:30] == 0)
        assert np.all(ds.labels[30:] == 1)

    def test_assortative_structure(self):
        ds = generators.temporal_sbm([100, 100], 8.0, 1.0, seed=2)
        labels = ds.labels
        same = labels[ds.edges.src] == labels[ds.edges.dst]
        assert same.mean() > 0.7

    def test_no_self_loops(self):
        ds = generators.temporal_sbm([50, 50], 4.0, 2.0, seed=3)
        assert np.all(ds.edges.src != ds.edges.dst)

    def test_empty_blocks_rejected(self):
        with pytest.raises(GraphError):
            generators.temporal_sbm([], 1.0, 1.0)


class TestDatasetFactories:
    @pytest.mark.parametrize("name", ["ia-email", "wiki-talk", "stackoverflow"])
    def test_link_prediction_shapes(self, name):
        edges = generators.dataset_by_name(name, scale=0.002, seed=1)
        assert len(edges) > 100
        g = TemporalGraph.from_edge_list(edges)
        # Interaction networks are hub-dominated.
        assert gini(g.out_degrees()) > 0.4

    @pytest.mark.parametrize("name,classes", [
        ("dblp3", 3), ("dblp5", 5), ("brain", 10),
    ])
    def test_node_classification_shapes(self, name, classes):
        ds = generators.dataset_by_name(name, scale=0.1, seed=2)
        assert isinstance(ds, LabeledTemporalDataset)
        assert ds.num_classes == classes
        assert len(ds.labels) == ds.edges.num_nodes

    def test_unknown_name_rejected(self):
        with pytest.raises(GraphError, match="unknown dataset"):
            generators.dataset_by_name("not-a-dataset")

    def test_scale_controls_size(self):
        small = generators.ia_email_like(scale=0.001, seed=1)
        large = generators.ia_email_like(scale=0.005, seed=1)
        assert len(large) > 3 * len(small)

    def test_table2_inventory_complete(self):
        assert set(generators.TABLE2_REAL_SIZES) == {
            "ia-email", "wiki-talk", "stackoverflow",
            "dblp3", "dblp5", "brain",
        }

    def test_brain_is_dense(self):
        ds = generators.brain_like(scale=0.1, seed=3)
        mean_degree = len(ds.edges) / ds.edges.num_nodes
        assert mean_degree > 50
