"""Tests for ``repro.walk.batched``, the walk-engine factory alias.

The frontier-batched window-table kernel that lived in this module is
deleted; ``make_walk_engine`` survives as an alias of
:class:`~repro.walk.engine.TemporalWalkEngine`.  What the batched kernel
was checked on and still holds for the ``cdf`` kernel stays here: the
factory's sampler selection, the softmax first-step draw against the
analytic Eq. 1 on a hub with hundreds of destinations, and the
scan-model counters.
"""

import numpy as np
import pytest

from repro.errors import WalkError
from repro.graph import TemporalGraph, generators
from repro.walk import (
    TemporalWalkEngine,
    WalkConfig,
    transition_probabilities,
)
from repro.walk.batched import make_walk_engine

pytestmark = pytest.mark.kernels


@pytest.fixture(scope="module")
def hub_graph():
    """Hub-heavy graph: deep slices exercise the CDF search."""
    edges = generators.ia_email_like(scale=0.004, seed=23)
    return TemporalGraph.from_edge_list(edges.with_reverse_edges())


class TestFactory:
    def test_selects_engine_class(self, tiny_graph):
        assert make_walk_engine is TemporalWalkEngine
        for sampler in ("cdf", "gumbel"):
            engine = make_walk_engine(tiny_graph, sampler=sampler)
            assert type(engine) is TemporalWalkEngine
            assert engine.sampler == sampler

    def test_unknown_sampler_rejected(self, tiny_graph):
        # "batched" named the deleted window-table kernel.
        for sampler in ("alias", "batched"):
            with pytest.raises(WalkError, match="unknown sampler"):
                make_walk_engine(tiny_graph, sampler=sampler)


class TestSoftmaxDistribution:
    """Sampled transitions match the analytic Eq. 1 distribution."""

    @pytest.mark.parametrize("bias", ["softmax-recency", "softmax-late"])
    @pytest.mark.parametrize("num_runs", [1, 3, 64])
    def test_first_step_matches_analytic(self, hub_graph, bias, num_runs):
        # The walks are drawn in ``num_runs`` calls on one engine, so all
        # but the first reuse its cached step table.
        g = hub_graph
        hub = int(np.argmax(np.diff(g.indptr)))
        cfg = WalkConfig(bias=bias, num_walks_per_node=1, max_walk_length=2)
        engine = TemporalWalkEngine(g)
        starts = np.full(30000, hub, dtype=np.int64)
        nxt = []
        for i, chunk in enumerate(np.array_split(starts, num_runs)):
            corpus = engine.run(cfg, seed=17 + i, start_nodes=chunk)
            nxt.append(corpus.matrix[corpus.lengths > 1, 1])
        nxt = np.concatenate(nxt)
        lo, hi = int(g.indptr[hub]), int(g.indptr[hub + 1])
        span = g.time_span() or 1.0
        p = transition_probabilities(g.ts[lo:hi], bias, span)
        want = np.zeros(g.num_nodes)
        np.add.at(want, g.dst[lo:hi], p)
        got = np.bincount(nxt, minlength=g.num_nodes) / len(nxt)
        # Total variation of an empirical multinomial over a hub with
        # hundreds of destinations is a few percent pure noise at this
        # sample size; a biased sampler shows up an order above that.
        assert 0.5 * np.abs(want - got).sum() < 0.06


class TestStats:
    """Scan-model counters stay honest (fig09/fig10/hwmodel inputs)."""

    def test_counters_populated(self, hub_graph):
        engine = make_walk_engine(hub_graph)
        cfg = WalkConfig(num_walks_per_node=2, max_walk_length=5)
        engine.run(cfg, seed=6)
        stats = engine.last_stats
        assert stats.candidates_scanned > 0
        assert stats.search_iterations > 0
        assert stats.cdf_search_iterations > 0
        assert stats.exp_evaluations > 0
        assert stats.work_per_start_node.sum() == stats.candidates_scanned
