"""Unit tests for the vectorized temporal walk engine (Algorithm 1)."""

import numpy as np
import pytest

from repro.errors import WalkError
from repro.graph import TemporalGraph
from repro.graph.edges import TemporalEdgeList
from repro.walk import TemporalWalkEngine, WalkConfig
from repro.walk.corpus import PAD

pytestmark = pytest.mark.kernels


class TestRunContract:
    def test_walk_count_and_shape(self, tiny_graph):
        cfg = WalkConfig(num_walks_per_node=3, max_walk_length=4)
        corpus = TemporalWalkEngine(tiny_graph).run(cfg, seed=1)
        assert corpus.num_walks == 3 * tiny_graph.num_nodes
        assert corpus.max_walk_length == 4

    def test_rows_are_walk_major(self, tiny_graph):
        # Row w*|V| + v starts at node v (Algorithm 1's loop order).
        cfg = WalkConfig(num_walks_per_node=2, max_walk_length=3)
        corpus = TemporalWalkEngine(tiny_graph).run(cfg, seed=1)
        n = tiny_graph.num_nodes
        for w in range(2):
            for v in range(n):
                assert corpus.matrix[w * n + v, 0] == v

    def test_custom_start_nodes(self, tiny_graph):
        cfg = WalkConfig(num_walks_per_node=2, max_walk_length=3)
        corpus = TemporalWalkEngine(tiny_graph).run(
            cfg, seed=1, start_nodes=np.array([1, 3])
        )
        assert corpus.num_walks == 4
        assert set(corpus.matrix[:, 0].tolist()) == {1, 3}

    def test_out_of_range_start_rejected(self, tiny_graph):
        with pytest.raises(WalkError):
            TemporalWalkEngine(tiny_graph).run(
                WalkConfig(), seed=1, start_nodes=np.array([99])
            )

    def test_invalid_sampler_rejected(self, tiny_graph):
        with pytest.raises(WalkError):
            TemporalWalkEngine(tiny_graph, sampler="magic")

    def test_deterministic_by_seed(self, tiny_graph):
        cfg = WalkConfig(num_walks_per_node=2, max_walk_length=5)
        a = TemporalWalkEngine(tiny_graph).run(cfg, seed=5)
        b = TemporalWalkEngine(tiny_graph).run(cfg, seed=5)
        assert np.array_equal(a.matrix, b.matrix)

    def test_seeds_differ(self, email_graph):
        cfg = WalkConfig(num_walks_per_node=1, max_walk_length=5)
        a = TemporalWalkEngine(email_graph).run(cfg, seed=5)
        b = TemporalWalkEngine(email_graph).run(cfg, seed=6)
        assert not np.array_equal(a.matrix, b.matrix)


class TestTemporalValidity:
    @pytest.mark.parametrize("sampler", ["cdf", "gumbel"])
    @pytest.mark.parametrize(
        "bias", ["uniform", "softmax-late", "softmax-recency", "linear"]
    )
    def test_walks_are_temporally_valid(self, tiny_graph, sampler, bias):
        cfg = WalkConfig(num_walks_per_node=5, max_walk_length=5, bias=bias)
        corpus = TemporalWalkEngine(tiny_graph, sampler=sampler).run(cfg, seed=2)
        assert corpus.validate_temporal_order(tiny_graph)

    def test_strictly_increasing_excludes_equal_timestamps(self):
        # 0->1 at t=0.5; 1->2 also at t=0.5: strict rule forbids the hop.
        edges = TemporalEdgeList([0, 1], [1, 2], [0.5, 0.5])
        g = TemporalGraph.from_edge_list(edges)
        cfg = WalkConfig(num_walks_per_node=20, max_walk_length=3)
        corpus = TemporalWalkEngine(g).run(cfg, seed=3, start_nodes=np.array([0]))
        assert corpus.lengths.max() == 2  # never reaches node 2

    def test_allow_equal_permits_equal_timestamps(self):
        edges = TemporalEdgeList([0, 1], [1, 2], [0.5, 0.5])
        g = TemporalGraph.from_edge_list(edges)
        cfg = WalkConfig(
            num_walks_per_node=20, max_walk_length=3, allow_equal=True
        )
        corpus = TemporalWalkEngine(g).run(cfg, seed=3, start_nodes=np.array([0]))
        assert corpus.lengths.max() == 3

    def test_sink_node_walks_have_length_one(self, tiny_graph):
        cfg = WalkConfig(num_walks_per_node=3, max_walk_length=5)
        corpus = TemporalWalkEngine(tiny_graph).run(
            cfg, seed=1, start_nodes=np.array([4])
        )
        assert np.all(corpus.lengths == 1)
        assert np.all(corpus.matrix[:, 1:] == PAD)

    def test_start_time_cuts_early_edges(self, tiny_graph):
        cfg = WalkConfig(num_walks_per_node=10, max_walk_length=2)
        corpus = TemporalWalkEngine(tiny_graph).run(
            cfg, seed=1, start_nodes=np.array([1]), start_time=0.2
        )
        # Node 1's edges: (1,2,0.3) valid, (1,4,0.05) not.
        second = corpus.matrix[corpus.lengths == 2, 1]
        assert set(second.tolist()) == {2}


class TestStats:
    def test_stats_populated(self, email_graph):
        engine = TemporalWalkEngine(email_graph)
        corpus = engine.run(
            WalkConfig(num_walks_per_node=2, max_walk_length=5), seed=4
        )
        stats = engine.last_stats
        assert stats.num_walks == corpus.num_walks
        assert stats.total_steps == int((corpus.lengths - 1).sum())
        assert stats.candidates_scanned > 0
        assert stats.search_iterations > 0
        assert len(stats.work_per_start_node) == email_graph.num_nodes

    def test_terminated_early_counts(self, tiny_graph):
        engine = TemporalWalkEngine(tiny_graph)
        corpus = engine.run(
            WalkConfig(num_walks_per_node=1, max_walk_length=6), seed=4
        )
        short = int(np.sum(corpus.lengths < 6))
        assert engine.last_stats.terminated_early == short

    def test_work_concentrated_on_hubs(self, email_graph):
        engine = TemporalWalkEngine(email_graph)
        engine.run(WalkConfig(num_walks_per_node=2, max_walk_length=5), seed=4)
        work = engine.last_stats.work_per_start_node
        degrees = email_graph.out_degrees()
        top = np.argsort(degrees)[-10:]
        bottom = np.argsort(degrees)[:10]
        assert work[top].mean() > work[bottom].mean()


class TestSamplerEquivalence:
    @pytest.mark.parametrize(
        "bias", ["uniform", "softmax-late", "softmax-recency", "linear"]
    )
    def test_cdf_and_gumbel_first_step_distributions_match(self, bias):
        ts = np.array([0.05, 0.15, 0.4, 0.7, 0.95])
        edges = TemporalEdgeList([0] * 5, [1, 2, 3, 4, 5], ts)
        g = TemporalGraph.from_edge_list(edges)
        cfg = WalkConfig(num_walks_per_node=8000, max_walk_length=2, bias=bias)
        counts = {}
        for sampler in ("cdf", "gumbel"):
            corpus = TemporalWalkEngine(g, sampler=sampler).run(
                cfg, seed=9, start_nodes=np.array([0])
            )
            counts[sampler] = np.bincount(corpus.matrix[:, 1], minlength=6)[1:]
        freq_cdf = counts["cdf"] / counts["cdf"].sum()
        freq_gum = counts["gumbel"] / counts["gumbel"].sum()
        assert np.allclose(freq_cdf, freq_gum, atol=0.03)

    def test_cdf_matches_eq1_exactly(self):
        # Empirical first-step frequencies against the analytic Eq. 1.
        ts = np.array([0.1, 0.5, 0.9])
        edges = TemporalEdgeList([0, 0, 0], [1, 2, 3], ts)
        g = TemporalGraph.from_edge_list(edges)
        r = g.time_span()
        for bias, score in (("softmax-late", ts), ("softmax-recency", -ts)):
            expected = np.exp(score / r) / np.exp(score / r).sum()
            cfg = WalkConfig(
                num_walks_per_node=20000, max_walk_length=2, bias=bias
            )
            corpus = TemporalWalkEngine(g).run(
                cfg, seed=10, start_nodes=np.array([0])
            )
            freq = np.bincount(corpus.matrix[:, 1], minlength=4)[1:] / 20000
            assert np.allclose(freq, expected, atol=0.02)


class TestWideSpanNumericalStability:
    """Regression: CDF sampling on graphs with wide timestamp spans.

    The CDF sampler used to exponentiate globally referenced scores —
    ``exp((ts - ts_min) / T)`` — so a graph whose timestamps span ~1e6
    with ``temperature=1`` overflowed every softmax-late weight to inf
    (and underflowed every softmax-recency weight to zero), corrupting
    the per-source CDF.  The fix shifts scores by each source slice's
    maximum before exponentiating, which leaves the softmax unchanged.
    """

    def _wide_graph(self):
        # Node 0's out-edges sit ~1e6 above the graph's earliest edge,
        # so global referencing makes the exponent argument huge while
        # per-slice referencing keeps it within [-3, 0].
        ts = 1e6 + np.array([0.0, 1.0, 2.0, 3.0])
        edges = TemporalEdgeList(
            [0, 0, 0, 0, 5], [1, 2, 3, 4, 6],
            np.concatenate([ts, [0.0]]),
        )
        return TemporalGraph.from_edge_list(edges), ts

    @pytest.mark.parametrize("bias", ["softmax-late", "softmax-recency"])
    def test_cdf_matches_analytic_and_gumbel(self, bias):
        g, ts = self._wide_graph()
        cfg = WalkConfig(num_walks_per_node=8000, max_walk_length=2,
                         bias=bias, temperature=1.0)
        freq = {}
        for sampler in ("cdf", "gumbel"):
            with np.errstate(over="raise"):
                corpus = TemporalWalkEngine(g, sampler=sampler).run(
                    cfg, seed=11, start_nodes=np.array([0])
                )
            counts = np.bincount(corpus.matrix[:, 1], minlength=5)[1:5]
            freq[sampler] = counts / counts.sum()
        score = ts if bias == "softmax-late" else -ts
        expected = np.exp(score - score.max())
        expected /= expected.sum()
        assert np.allclose(freq["cdf"], expected, atol=0.03)
        assert np.allclose(freq["cdf"], freq["gumbel"], atol=0.03)

    def test_dead_range_takes_earliest_edge(self):
        # After the (0 -> 1, t=0.25) hop, the valid candidates at node 1
        # are t=500 and t=1000; at temperature 0.01 both softmax-recency
        # weights underflow to zero relative to the slice's t=0 anchor,
        # so the mass over the range is zero and both samplers must take
        # the deterministic earliest-edge fallback.
        edges = TemporalEdgeList.from_edges(
            [(0, 1, 0.25), (1, 2, 0.0), (1, 2, 500.0), (1, 3, 1000.0)],
            num_nodes=4,
        )
        g = TemporalGraph.from_edge_list(edges)
        cfg = WalkConfig(bias="softmax-recency", num_walks_per_node=4,
                         max_walk_length=3, temperature=0.01)
        starts = np.zeros(8, dtype=np.int64)
        for sampler in ("cdf", "gumbel"):
            corpus = TemporalWalkEngine(g, sampler=sampler).run(
                cfg, seed=2, start_nodes=starts
            )
            assert np.all(corpus.matrix[:, 1] == 1)
            assert np.all(corpus.matrix[:, 2] == 2)  # t=500, never t=1000
