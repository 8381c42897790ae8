"""Unit tests for incremental embedding maintenance."""

import numpy as np
import pytest

from repro.embedding import SgnsConfig
from repro.embedding.skipgram import SkipGramModel
from repro.errors import EmbeddingError, WalkError
from repro.graph import DynamicTemporalGraph, generators
from repro.tasks.incremental import IncrementalEmbedder
from repro.walk import WalkConfig


class TestSkipGramGrow:
    def test_grow_preserves_existing_rows(self):
        model = SkipGramModel(5, 4, seed=1)
        before = model.w_in.copy()
        model.grow(8, seed=2)
        assert model.num_nodes == 8
        assert np.array_equal(model.w_in[:5], before)
        assert np.all(model.w_out[5:] == 0.0)

    def test_grow_same_size_is_noop(self):
        model = SkipGramModel(5, 4, seed=1)
        before = model.w_in.copy()
        model.grow(5)
        assert np.array_equal(model.w_in, before)

    def test_shrink_rejected(self):
        with pytest.raises(EmbeddingError):
            SkipGramModel(5, 4, seed=1).grow(3)


@pytest.fixture()
def evolving():
    """An email-shaped graph split into an initial 70% and a 30% tail.

    Mirrored (undirected view) so directed session bursts don't starve
    the walks at this tiny scale.
    """
    edges = generators.ia_email_like(scale=0.004, seed=61)
    ordered = edges.sorted_by_time()
    cut = int(0.7 * len(ordered))
    initial = ordered.take(np.arange(cut)).with_reverse_edges()
    tail = ordered.take(np.arange(cut, len(ordered))).with_reverse_edges()
    return initial, tail


class TestIncrementalEmbedder:
    def make(self, initial):
        dynamic = DynamicTemporalGraph(initial)
        return dynamic, IncrementalEmbedder(
            dynamic,
            walk_config=WalkConfig(num_walks_per_node=6, max_walk_length=6),
            sgns_config=SgnsConfig(dim=8, epochs=3),
            seed=7,
        )

    def test_embeddings_before_rebuild_rejected(self, evolving):
        initial, _ = evolving
        _, embedder = self.make(initial)
        with pytest.raises(EmbeddingError):
            _ = embedder.embeddings

    def test_unknown_sampler_rejected_at_construction(self, evolving):
        """A bad sampler name fails when the embedder is built, not at
        its first ``rebuild()``."""
        dynamic = DynamicTemporalGraph(evolving[0])
        for sampler in ("magic", "batched"):
            with pytest.raises(WalkError, match="unknown sampler"):
                IncrementalEmbedder(dynamic, sampler=sampler)

    def test_rebuild_reports_full(self, evolving):
        initial, _ = evolving
        dynamic, embedder = self.make(initial)
        report = embedder.rebuild()
        assert report.full_rebuild
        assert report.affected_nodes == dynamic.num_nodes
        assert embedder.embeddings.num_nodes == dynamic.num_nodes

    def test_update_touches_fewer_nodes_than_rebuild(self, evolving):
        initial, tail = evolving
        dynamic, embedder = self.make(initial)
        embedder.rebuild()
        dynamic.append(tail)
        report = embedder.update()
        assert not report.full_rebuild
        assert 0 < report.affected_nodes < dynamic.num_nodes

    def test_update_covers_new_nodes(self, evolving):
        initial, tail = evolving
        dynamic, embedder = self.make(initial)
        embedder.rebuild()
        dynamic.append(tail)
        embedder.update()
        assert embedder.embeddings.num_nodes == dynamic.num_nodes

    def test_update_without_rebuild_falls_back(self, evolving):
        initial, _ = evolving
        _, embedder = self.make(initial)
        report = embedder.update()
        assert report.full_rebuild

    def test_noop_update_when_nothing_appended(self, evolving):
        initial, _ = evolving
        _, embedder = self.make(initial)
        embedder.rebuild()
        report = embedder.update()
        assert report.affected_nodes == 0
        assert report.walks_generated == 0

    def test_engine_cached_per_generation(self, evolving, monkeypatch):
        """Regression: rebuild()/update() constructed a fresh
        TemporalWalkEngine (and its O(E) step table) per call; the
        engine must now be reused until the graph generation bumps."""
        import repro.tasks.incremental as incremental_mod

        constructions = []
        real_engine = incremental_mod.TemporalWalkEngine

        def counting_engine(graph, sampler="cdf"):
            constructions.append(graph)
            return real_engine(graph, sampler=sampler)

        monkeypatch.setattr(incremental_mod, "TemporalWalkEngine",
                            counting_engine)
        initial, tail = evolving
        dynamic, embedder = self.make(initial)
        embedder.rebuild()
        embedder.update()   # no append: generation unchanged, no walks
        embedder.rebuild()  # same generation: engine must be reused
        assert len(constructions) == 1
        dynamic.append(tail)
        embedder.update()   # generation bumped: one new engine
        embedder.update()   # unchanged again
        assert len(constructions) == 2

    def test_cached_engine_is_bit_identical_to_fresh(self, evolving,
                                                     monkeypatch):
        """Caching must not change a single bit of the output: the same
        rebuild/append/update sequence with an always-fresh engine and
        with the cached engine produces identical embeddings."""
        from repro.tasks.incremental import IncrementalEmbedder
        from repro.walk.engine import TemporalWalkEngine

        initial, tail = evolving

        def run(fresh_engines: bool):
            dynamic = DynamicTemporalGraph(initial)
            embedder = IncrementalEmbedder(
                dynamic,
                walk_config=WalkConfig(num_walks_per_node=6,
                                       max_walk_length=6),
                sgns_config=SgnsConfig(dim=8, epochs=3),
                seed=7,
            )
            if fresh_engines:
                embedder._walk_engine = (  # the pre-fix behavior
                    lambda graph: TemporalWalkEngine(graph)
                )
            embedder.rebuild()
            dynamic.append(tail)
            embedder.update()
            embedder.update()
            return embedder.embeddings.matrix

        assert np.array_equal(run(fresh_engines=True),
                              run(fresh_engines=False))

    def test_update_releases_consumed_markers(self, evolving):
        """Each sync releases the marker it consumed, so a long stream
        of appends cannot accumulate one retained marker per batch."""
        initial, tail = evolving
        dynamic, embedder = self.make(initial)
        embedder.rebuild()
        for start in range(0, len(tail), 25):
            dynamic.append(tail.take(np.arange(
                start, min(start + 25, len(tail)))))
            embedder.update()
        # Every consumed marker (including the rebuild baseline) has
        # been released; only the live generation's marker survives.
        assert dynamic.retained_markers() == [dynamic.generation]

    def test_incremental_embeddings_stay_useful(self, evolving):
        # After appending the tail, incrementally updated embeddings
        # should still separate co-walkers from random pairs.
        initial, tail = evolving
        dynamic, embedder = self.make(initial)
        embedder.rebuild()
        dynamic.append(tail)
        embedder.update()
        emb = embedder.embeddings
        graph = dynamic.graph()
        rng = np.random.default_rng(0)
        near, far = [], []
        src = np.repeat(np.arange(graph.num_nodes),
                        np.diff(graph.indptr))
        sample = rng.choice(graph.num_edges, size=200)
        for e in sample:
            near.append(emb.cosine_similarity(int(src[e]),
                                              int(graph.dst[e])))
            far.append(emb.cosine_similarity(
                int(src[e]), int(rng.integers(0, graph.num_nodes))))
        assert np.mean(near) > np.mean(far)
