"""Engine-vs-reference equivalence tests.

The scalar reference (a line-by-line Algorithm 1 transcription) is the
oracle: the vectorized engine must satisfy the same invariants and, on
fixed graphs, produce statistically indistinguishable walk populations.
"""

import numpy as np
import pytest

from repro.graph import TemporalGraph, generators
from repro.walk import TemporalWalkEngine, WalkConfig, run_walks_reference

pytestmark = pytest.mark.kernels


@pytest.fixture(scope="module")
def small_graph():
    edges = generators.ia_email_like(scale=0.0008, seed=31)
    return TemporalGraph.from_edge_list(edges)


class TestEquivalence:
    def test_contract_matches(self, small_graph):
        cfg = WalkConfig(num_walks_per_node=2, max_walk_length=4)
        ref = run_walks_reference(small_graph, cfg, seed=1)
        eng = TemporalWalkEngine(small_graph).run(cfg, seed=1)
        assert ref.num_walks == eng.num_walks
        assert ref.max_walk_length == eng.max_walk_length
        assert np.array_equal(ref.start_nodes, eng.start_nodes)

    def test_both_temporally_valid(self, small_graph):
        cfg = WalkConfig(num_walks_per_node=2, max_walk_length=5)
        ref = run_walks_reference(small_graph, cfg, seed=2)
        eng = TemporalWalkEngine(small_graph).run(cfg, seed=2)
        assert ref.validate_temporal_order(small_graph)
        assert eng.validate_temporal_order(small_graph)

    @pytest.mark.parametrize("bias", ["uniform", "softmax-recency", "linear"])
    def test_length_distributions_match(self, small_graph, bias):
        cfg = WalkConfig(num_walks_per_node=6, max_walk_length=5, bias=bias)
        ref = run_walks_reference(small_graph, cfg, seed=3)
        eng = TemporalWalkEngine(small_graph).run(cfg, seed=4)
        # Termination is structural (no valid neighbor), so both
        # implementations must produce near-identical length histograms.
        assert ref.lengths.mean() == pytest.approx(eng.lengths.mean(), rel=0.1)

    def test_visit_distributions_match(self, small_graph):
        cfg = WalkConfig(num_walks_per_node=8, max_walk_length=5)
        ref = run_walks_reference(small_graph, cfg, seed=5)
        eng = TemporalWalkEngine(small_graph).run(cfg, seed=6)
        n = small_graph.num_nodes
        f_ref = ref.node_frequencies(n) / ref.total_nodes()
        f_eng = eng.node_frequencies(n) / eng.total_nodes()
        # Total variation distance between visit distributions is small
        # (bounded by sampling noise at this corpus size).
        tv = 0.5 * np.abs(f_ref - f_eng).sum()
        assert tv < 0.12

    def test_deterministic_by_seed(self, small_graph):
        cfg = WalkConfig(num_walks_per_node=1, max_walk_length=4)
        a = run_walks_reference(small_graph, cfg, seed=7)
        b = run_walks_reference(small_graph, cfg, seed=7)
        assert np.array_equal(a.matrix, b.matrix)

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_windowed_visit_distributions_match(self, small_graph, direction):
        # The reference implements time_window and backward walks too,
        # so the windowed engine kernels validate against the same
        # scalar oracle as the plain forward walk.
        cfg = WalkConfig(num_walks_per_node=8, max_walk_length=5,
                         time_window=0.3, direction=direction)
        ref = run_walks_reference(small_graph, cfg, seed=15)
        eng = TemporalWalkEngine(small_graph).run(cfg, seed=16)
        n = small_graph.num_nodes
        f_ref = ref.node_frequencies(n) / ref.total_nodes()
        f_eng = eng.node_frequencies(n) / eng.total_nodes()
        tv = 0.5 * np.abs(f_ref - f_eng).sum()
        assert tv < 0.12

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_windowed_termination_matches(self, small_graph, direction):
        # Window-induced termination is structural (an empty truncated
        # range), so both implementations must cut walks at the same
        # places on average.
        cfg = WalkConfig(num_walks_per_node=6, max_walk_length=5,
                         time_window=0.15, direction=direction)
        ref = run_walks_reference(small_graph, cfg, seed=17)
        eng = TemporalWalkEngine(small_graph).run(cfg, seed=18)
        assert ref.lengths.mean() == pytest.approx(eng.lengths.mean(),
                                                   rel=0.1)

    def test_backward_walks_temporally_valid(self, small_graph):
        cfg = WalkConfig(num_walks_per_node=2, max_walk_length=5,
                         direction="backward")
        ref = run_walks_reference(small_graph, cfg, seed=19)
        assert ref.validate_temporal_order(small_graph,
                                           direction="backward")
