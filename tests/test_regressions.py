"""Regression tests for bugs found during development.

Each test documents a concrete defect that existed at some point in this
codebase, the scenario that exposed it, and pins the fix.
"""

import numpy as np
import pytest

from repro.graph import TemporalGraph, generators
from repro.graph.edges import TemporalEdgeList
from repro.walk import TemporalWalkEngine, WalkConfig
from repro.walk.sampling import transition_probabilities


class TestWalkSamplingRegressions:
    def test_softmax_recency_finite_at_unset_clock(self):
        """Bug: recency logits used ``-(ts - t_now)`` directly; at the
        initial clock (-inf) that produced inf-inf = NaN probabilities.
        Fix: softmax shift-invariance removes the clock term entirely."""
        probs = transition_probabilities(
            np.array([0.0, 0.5, 1.0]), "softmax-recency", 1.0
        )
        assert np.isfinite(probs).all()
        assert probs.sum() == pytest.approx(1.0)

    def test_first_hop_includes_timestamp_zero_edges(self):
        """Bug risk: Algorithm 1 initializes currTime = 0; with
        normalized timestamps and the strict ``>`` rule, edges at t=0
        would be unreachable.  The engine starts the clock at -inf."""
        edges = TemporalEdgeList([0], [1], [0.0])
        graph = TemporalGraph.from_edge_list(edges)
        corpus = TemporalWalkEngine(graph).run(
            WalkConfig(num_walks_per_node=5, max_walk_length=2),
            seed=1, start_nodes=np.array([0]),
        )
        assert np.all(corpus.lengths == 2)

    def test_time_window_does_not_kill_first_hop(self):
        """Bug: the window upper bound computed ``-inf + window = -inf``
        at the unset clock, emptying every first-hop candidate set."""
        edges = TemporalEdgeList([0], [1], [0.9])
        graph = TemporalGraph.from_edge_list(edges)
        corpus = TemporalWalkEngine(graph).run(
            WalkConfig(num_walks_per_node=3, max_walk_length=2,
                       time_window=0.01),
            seed=1, start_nodes=np.array([0]),
        )
        assert np.all(corpus.lengths == 2)


class _ConstantUniformRng(np.random.Generator):
    """Generator stub whose ``random`` always returns one fixed value.

    ``make_rng`` passes Generator instances through unchanged, so this
    injects boundary uniforms (0.0, and the 1.0 a real ``random()`` can
    never emit) straight into the engine's draw path.
    """

    def __init__(self, value: float) -> None:
        super().__init__(np.random.PCG64(0))
        self._value = float(value)

    def random(self, size=None, *args, **kwargs):  # noqa: A002
        if size is None:
            return self._value
        return np.full(size, self._value)


class TestEdgeStartRegressions:
    """``run_from_edges`` softmax initial-edge draw (global CDF)."""

    def _graph(self, rows):
        return TemporalGraph.from_edge_list(
            TemporalEdgeList.from_edges(rows, num_nodes=3)
        )

    def test_top_plateau_never_selects_zero_weight_edge(self):
        """Bug: the draw searched the full CDF and clipped to the last
        *edge*; with trailing zero-weight (underflown) edges a target on
        the CDF's top plateau selected one of them.  Fix: search the
        positive-weight edges only, clipping to the last positive one."""
        # CSR order: (0 -> 2, t=0) has weight 1, (1 -> 2, t=1000)
        # underflows to weight 0 under recency at temperature 0.01.
        graph = self._graph([(0, 2, 0.0), (1, 2, 1000.0)])
        cfg = WalkConfig(bias="softmax-recency", max_walk_length=2,
                         temperature=0.01)
        corpus = TemporalWalkEngine(graph).run_from_edges(
            cfg, num_walks=8, seed=_ConstantUniformRng(1.0)
        )
        assert np.all(corpus.start_nodes == 0)

    def test_zero_weight_prefix_plateau_skipped(self):
        """Target exactly on the leading zero plateau (u = 0.0, which a
        real ``random()`` can emit) must skip the zero-weight edges."""
        graph = self._graph([(0, 2, 1000.0), (1, 2, 0.0)])
        cfg = WalkConfig(bias="softmax-recency", max_walk_length=2,
                         temperature=0.01)
        corpus = TemporalWalkEngine(graph).run_from_edges(
            cfg, num_walks=8, seed=_ConstantUniformRng(0.0)
        )
        assert np.all(corpus.start_nodes == 1)

    @pytest.mark.parametrize("bias", ["softmax-recency", "softmax-late"])
    def test_real_draws_never_start_on_zero_weight_edges(self, bias):
        ts_far = 1000.0 if bias == "softmax-recency" else -1000.0
        graph = self._graph([(0, 2, 0.0), (1, 2, ts_far)])
        cfg = WalkConfig(bias=bias, max_walk_length=2, temperature=0.01)
        corpus = TemporalWalkEngine(graph).run_from_edges(
            cfg, num_walks=500, seed=33
        )
        assert np.all(corpus.start_nodes == 0)


class TestEmbeddingRegressions:
    def test_batched_updates_do_not_explode_on_hubs(self):
        """Bug: naive scatter-add accumulation of same-batch gradients on
        hub rows diverged to ~1e29 on heavy-tailed graphs; the default
        'capped' combining bounds per-row movement."""
        from repro.embedding import BatchedSgnsTrainer, SgnsConfig

        edges = generators.ia_email_like(scale=0.005, seed=1)
        graph = TemporalGraph.from_edge_list(edges.with_reverse_edges())
        corpus = TemporalWalkEngine(graph).run(WalkConfig(), seed=2)
        trainer = BatchedSgnsTrainer(SgnsConfig(dim=8, epochs=2),
                                     batch_sentences=1024)
        model = trainer.train(corpus, graph.num_nodes, seed=3)
        assert np.abs(model.w_in).max() < 100.0

    def test_mean_combining_documented_as_starving(self):
        """Bug (of the first fix): scatter-mean was unconditionally
        stable but froze training — loss stuck at the (1+K)ln2 init.
        Kept as a mode; this pins the behaviour the default avoids."""
        from repro.embedding import BatchedSgnsTrainer, SgnsConfig

        edges = generators.ia_email_like(scale=0.005, seed=1)
        graph = TemporalGraph.from_edge_list(edges.with_reverse_edges())
        corpus = TemporalWalkEngine(graph).run(WalkConfig(), seed=2)

        def final_loss(mode):
            trainer = BatchedSgnsTrainer(
                SgnsConfig(dim=8, epochs=2, update_mode=mode), 1024)
            trainer.train(corpus, graph.num_nodes, seed=3)
            return trainer.last_stats.losses[-1]

        assert final_loss("capped") < final_loss("mean") - 0.3


class TestDataPrepRegressions:
    def test_split_rounding_is_exact_when_fractions_cover(self):
        """Bug: 60/20/20 rounding could demand more train+valid edges
        than the early partition held (7-edge graphs), or drop an edge.
        Fix: remainder absorption when the fractions sum to 1."""
        from repro.tasks.splits import temporal_edge_split

        for n in range(3, 30):
            rng = np.random.default_rng(n)
            edges = TemporalEdgeList(
                rng.integers(0, 5, n), rng.integers(0, 5, n), rng.random(n),
                num_nodes=5,
            )
            splits = temporal_edge_split(edges, seed=n)
            assert splits.total == n

    def test_classifier_features_standardized(self):
        """Bug: unscaled embedding features made the small FNNs collapse
        onto the majority class (accuracy cliffs at exactly the class
        prior).  Fix: train-fit standardization in every task."""
        from repro.embedding import NodeEmbeddings
        from repro.tasks import NodeClassificationTask
        from repro.tasks.node_classification import NodeClassificationConfig
        from repro.tasks.training import TrainSettings

        rng = np.random.default_rng(5)
        labels = np.repeat([0, 1], 100)
        # Perfectly separable but tiny-scale features.
        matrix = (labels[:, None] + rng.normal(0, 0.1, (200, 4))) * 1e-4
        result = NodeClassificationTask(NodeClassificationConfig(
            training=TrainSettings(epochs=20, learning_rate=0.05)
        )).run(NodeEmbeddings(matrix), labels, seed=6)
        assert result.accuracy > 0.9


class TestModelRegressions:
    def test_w2v_gpu_batching_speedup_saturates(self):
        """Bug: the occupancy-division cost model let batching speedup
        grow linearly without bound (13000x at batch 16k).  Fix:
        additive per-pair device costs; amortization saturates."""
        from repro.hwmodel import Word2vecGpuModel

        model = Word2vecGpuModel(num_sentences=100_000,
                                 pairs_per_sentence=10)
        speedups = model.batching_speedups([4096, 16384])
        assert speedups[16384] < 1000
        assert speedups[16384] < 2 * speedups[4096]

    def test_oversized_batch_not_penalized(self):
        """Bug: a modeled batch larger than the corpus transferred
        phantom sentences, making batch=16k slower than batch=4k on a
        3k-sentence corpus."""
        from repro.hwmodel import Word2vecGpuModel

        model = Word2vecGpuModel(num_sentences=3000, pairs_per_sentence=10)
        assert model.batched_time(100_000) <= model.batched_time(3000) * 1.001

    def test_streaming_trace_has_spatial_reuse(self):
        """Bug: the GEMM trace emitted one address per cache line, so
        "streaming" measured 0% hit rate; real dense kernels touch every
        element and hit 7/8 in 64-byte lines."""
        from repro.hwmodel.cache import CacheConfig, CacheSim, streaming_trace

        trace = streaming_trace(64 * 1024, element_bytes=8, passes=1)
        cache = CacheSim(CacheConfig(size_bytes=4096, line_bytes=64, ways=4))
        cache.access_many(trace)
        assert cache.hit_rate > 0.8


class TestSgnsScheduleRegressions:
    def test_lr_schedule_advances_past_subsampled_sentences(self):
        """Bug: ``seen`` only advanced for sentences that survived
        subsampling while ``total_sentences`` counted all of them, so
        under aggressive subsampling the linear decay stalled near the
        keep rate and the effective LR stayed biased high.  Fix: every
        visited sentence advances the schedule (checked sentence-at-a-
        time, where each batch is one sentence)."""
        from repro.embedding import BatchedSgnsTrainer, SgnsConfig
        from repro.graph import generators
        from repro.graph.csr import TemporalGraph

        recorded = []

        class Probe(BatchedSgnsTrainer):
            def _lr(self, seen, total):
                recorded.append((seen, total))
                return super()._lr(seen, total)

        edges = generators.ia_email_like(scale=0.003, seed=11)
        graph = TemporalGraph.from_edge_list(edges.with_reverse_edges())
        corpus = TemporalWalkEngine(graph).run(
            WalkConfig(num_walks_per_node=2, max_walk_length=6), seed=3
        )
        trainer = Probe(
            SgnsConfig(dim=4, epochs=2, subsample_threshold=1e-9),
            batch_sentences=1,
        )
        trainer.train(corpus, graph.num_nodes, seed=5)
        # Aggressive subsampling drops most sentences; the schedule must
        # still sweep 0 .. total-1 exactly once per visited sentence.
        assert trainer.last_stats.updates < len(recorded)
        seens = [s for s, _ in recorded]
        total = recorded[0][1]
        assert seens == list(range(total))

    def test_mean_loss_is_per_pair_not_per_update(self):
        """Bug: ``mean_loss`` averaged per-update batch means, so a
        2-pair sentence weighed as much as a 14-pair one and the number
        was incomparable across batch sizes.  Fix: pair-weighted mean."""
        from repro.embedding import BatchedSgnsTrainer, SgnsConfig
        from repro.walk.corpus import PAD, WalkCorpus

        matrix = np.array([[0, 1, 2, 3, 4],
                           [1, 2, PAD, PAD, PAD]], dtype=np.int64)
        corpus = WalkCorpus(matrix, np.array([5, 2], dtype=np.int64))
        trainer = BatchedSgnsTrainer(SgnsConfig(
            dim=4, epochs=1, window=2, dynamic_window=False,
            subsample_threshold=None,
        ), batch_sentences=1)
        trainer.train(corpus, 5, seed=0)
        stats = trainer.last_stats
        # window=2, no dynamic shrink: the length-5 sentence yields 14
        # pairs, the length-2 sentence 2 pairs.
        assert stats.pairs_trained == 16
        assert len(stats.losses) == 2
        weighted = (stats.losses[0] * 14 + stats.losses[1] * 2) / 16
        assert stats.mean_loss == pytest.approx(weighted, rel=1e-12)
        unweighted = sum(stats.losses) / 2
        assert stats.mean_loss != pytest.approx(unweighted, rel=1e-6)

    @pytest.mark.parametrize("objective",
                             ["negative-sampling", "hierarchical-softmax"])
    def test_every_path_subsamples_and_publishes(self, objective,
                                                 email_corpus, email_graph):
        """Bug: four copies of the training loop had drifted apart —
        hierarchical softmax ignored ``subsample_threshold`` and
        published no ``sgns.*`` counters.  Fix: one loop serves both
        objectives."""
        from repro.embedding import SgnsConfig, train_embeddings
        from repro.observability import Recorder, use_recorder

        def run(threshold):
            rec = Recorder()
            with use_recorder(rec):
                _, stats = train_embeddings(
                    email_corpus, email_graph.num_nodes,
                    SgnsConfig(dim=4, epochs=1,
                               subsample_threshold=threshold),
                    batch_sentences=64, seed=3, objective=objective,
                )
            return rec, stats

        _, plain = run(None)
        rec, sub = run(1e-4)
        assert sub.pairs_trained < plain.pairs_trained
        assert rec.counters["sgns.pairs"] == sub.pairs_trained

    @pytest.mark.parametrize("batch_sentences", [1, 64])
    def test_shared_negatives_honoured_on_every_path(
        self, batch_sentences, email_corpus, email_graph
    ):
        """Bug: the sentence-sequential trainer ignored
        ``shared_negatives``.  Fix: the model draws its own negatives, K
        per update when they are shared."""
        from repro.embedding import SgnsConfig, train_embeddings
        from repro.observability import Recorder, use_recorder

        config = SgnsConfig(dim=4, epochs=1, shared_negatives=True)
        rec = Recorder()
        with use_recorder(rec):
            _, stats = train_embeddings(
                email_corpus, email_graph.num_nodes, config,
                batch_sentences=batch_sentences, seed=3,
            )
        drawn = rec.counters["sgns.negatives_drawn"]
        assert drawn == stats.updates * config.negatives
        assert stats.negatives_drawn == drawn


class TestStratifiedSplitRegressions:
    def test_tiny_classes_always_reach_train(self):
        """Bug: ``n_train = int(round(f * n))`` rounded to 0 for
        singleton classes (and ``n_valid`` could swallow the rest), so
        rare labels appeared *only* in test and the classifier could
        never learn them.  Fix: train gets at least one member of every
        class; test gets one from classes of >= 2; valid one from
        classes of >= 3 (when requested)."""
        from repro.tasks.splits import stratified_node_split

        labels = np.array([0] * 10 + [1] + [2] * 2 + [3] * 3)
        splits = stratified_node_split(labels, 0.4, 0.2, seed=0)
        train_classes = set(labels[splits.train])
        test_classes = set(labels[splits.test])
        valid_classes = set(labels[splits.valid])
        assert train_classes == {0, 1, 2, 3}
        assert {0, 2, 3} <= test_classes
        assert 1 not in test_classes and 1 not in valid_classes
        assert {0, 3} <= valid_classes

    def test_singleton_class_never_only_in_test(self):
        """The concrete pre-fix failure: label 1 has one node and
        train_fraction * 1 rounds to 0, so it landed in test alone."""
        from repro.tasks.splits import stratified_node_split

        labels = np.array([0] * 20 + [1])
        for seed in range(5):
            splits = stratified_node_split(labels, 0.4, 0.2, seed=seed)
            assert 1 in set(labels[splits.train])


class TestServingIndexRegressions:
    def test_cosine_denormal_norm_product_cannot_hijack_ranking(self):
        """Bug: cosine scoring guarded *zero* norms but divided by the
        raw product ``row_norm * query_norm``.  For rows of magnitude
        ~1e-162 each factor survives the zero check, yet the product
        underflows into the denormal range where the division returns
        garbage: two effectively-zero rows 45 degrees apart scored
        cosine 1.0 and outranked a genuinely aligned normal-magnitude
        row.  Fix: clamp the denominator to the smallest normal float,
        which deterministically sends effectively-zero rows to ~0
        similarity — the same convention exactly-zero rows already get.
        """
        from repro.serving import EmbeddingStore, RecommendationIndex

        tiny = 2.3e-162  # norm survives, but a product of two underflows
        matrix = np.array([
            [1.0, 1.0],    # 0: genuinely aligned with the query
            [tiny, tiny],  # 1: the query - an effectively-zero row
            [tiny, 0.0],   # 2: effectively zero, 45 degrees off
            [0.0, 0.0],    # 3: exactly zero
            [1.0, 0.0],    # 4: normal magnitude, 45 degrees off
        ])
        store = EmbeddingStore()
        store.publish(matrix, generation=0)
        index = RecommendationIndex(store, cache_size=0, metric="cosine")
        ids, scores = index.top_k(1, 4)
        assert np.all(np.isfinite(scores))
        # Pre-fix order was [0, 2, 4, 3]: row 2 scored 1.0 and beat the
        # genuinely similar row 4 (0.73).
        np.testing.assert_array_equal(ids, [0, 4, 2, 3])
        assert scores[ids == 2][0] <= 1e-10

    def test_block_topk_breaks_ties_by_lower_id(self):
        """Bug: per-block selection used ``argpartition``, which keeps
        an *arbitrary* subset of boundary ties — on duplicate-heavy
        matrices the returned ids depended on block size and violated
        the documented "ties broken by lower id" order.  Fix: threshold
        + cumulative-count selection admits exactly the lowest-id ties.
        """
        from repro.serving import EmbeddingStore, RecommendationIndex

        matrix = np.tile(np.array([[1.0, -2.0, 0.5]]), (50, 1))
        store = EmbeddingStore()
        store.publish(matrix, generation=0)
        expected = np.array([0, 1, 2, 3, 4])
        for block_size in (3, 7, 50):
            index = RecommendationIndex(store, cache_size=0,
                                        block_size=block_size)
            ids, scores = index.top_k(10, 5)
            np.testing.assert_array_equal(ids, expected)
            np.testing.assert_allclose(scores, 5.25)
