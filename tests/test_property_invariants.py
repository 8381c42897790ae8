"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.embedding.negative import AliasTable
from repro.graph.csr import TemporalGraph
from repro.graph.edges import TemporalEdgeList
from repro.graph.stats import gini
from repro.hwmodel.threads import SchedulerCosts, simulate_schedule
from repro.nn.metrics import roc_auc
from repro.tasks.splits import temporal_edge_split
from repro.walk.config import WalkConfig
from repro.walk.engine import TemporalWalkEngine
from repro.walk.sampling import BIAS_CHOICES, transition_probabilities


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

@st.composite
def edge_lists(draw, max_nodes=12, max_edges=40):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    m = draw(st.integers(min_value=1, max_value=max_edges))
    src = draw(hnp.arrays(np.int64, m, elements=st.integers(0, n - 1)))
    dst = draw(hnp.arrays(np.int64, m, elements=st.integers(0, n - 1)))
    ts = draw(hnp.arrays(
        np.float64, m,
        elements=st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
    ))
    return TemporalEdgeList(src, dst, ts, num_nodes=n)


# ---------------------------------------------------------------------------
# CSR invariants
# ---------------------------------------------------------------------------

class TestCsrProperties:
    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_preserves_edge_multiset(self, edges):
        graph = TemporalGraph.from_edge_list(edges)
        back = graph.to_edge_list()
        assert sorted(zip(edges.src, edges.dst, edges.timestamps)) == sorted(
            zip(back.src, back.dst, back.timestamps)
        )

    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_adjacency_always_time_sorted(self, edges):
        graph = TemporalGraph.from_edge_list(edges)
        for v in range(graph.num_nodes):
            _, ts = graph.neighbors(v)
            assert np.all(np.diff(ts) >= 0)

    @given(edge_lists(), st.floats(-0.5, 1.5, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_temporal_range_matches_bruteforce(self, edges, after):
        graph = TemporalGraph.from_edge_list(edges)
        for v in range(graph.num_nodes):
            dsts, ts = graph.temporal_neighbors(v, after)
            all_dst, all_ts = graph.neighbors(v)
            expected = int(np.sum(all_ts > after))
            assert len(dsts) == expected
            assert np.all(ts > after)


# ---------------------------------------------------------------------------
# Walk invariants
# ---------------------------------------------------------------------------

class TestWalkProperties:
    @given(edge_lists(), st.sampled_from(sorted(BIAS_CHOICES)),
           st.integers(0, 2 ** 16))
    @settings(max_examples=40, deadline=None)
    def test_walks_temporally_valid_on_any_graph(self, edges, bias, seed):
        graph = TemporalGraph.from_edge_list(edges)
        cfg = WalkConfig(num_walks_per_node=2, max_walk_length=4, bias=bias)
        corpus = TemporalWalkEngine(graph).run(cfg, seed=seed)
        assert corpus.validate_temporal_order(graph)
        assert corpus.num_walks == 2 * graph.num_nodes
        assert np.all(corpus.lengths >= 1)

    @given(edge_lists(), st.integers(0, 2 ** 16))
    @settings(max_examples=30, deadline=None)
    def test_walk_lengths_bounded(self, edges, seed):
        graph = TemporalGraph.from_edge_list(edges)
        cfg = WalkConfig(num_walks_per_node=1, max_walk_length=5)
        corpus = TemporalWalkEngine(graph).run(cfg, seed=seed)
        assert corpus.lengths.max() <= 5

    @given(edge_lists(), st.integers(0, 2 ** 16))
    @settings(max_examples=30, deadline=None)
    def test_backward_walks_valid_on_any_graph(self, edges, seed):
        graph = TemporalGraph.from_edge_list(edges)
        cfg = WalkConfig(num_walks_per_node=2, max_walk_length=4,
                         direction="backward")
        corpus = TemporalWalkEngine(graph).run(cfg, seed=seed)
        assert corpus.validate_temporal_order(graph, "backward")

    @given(edge_lists(), st.floats(0.01, 0.5, allow_nan=False),
           st.integers(0, 2 ** 16))
    @settings(max_examples=30, deadline=None)
    def test_windowed_walks_respect_gap(self, edges, window, seed):
        graph = TemporalGraph.from_edge_list(edges)
        cfg = WalkConfig(num_walks_per_node=1, max_walk_length=4,
                         time_window=window)
        corpus = TemporalWalkEngine(graph).run(cfg, seed=seed)
        # Re-derive: some feasible timestamp assignment must exist with
        # strictly increasing times and per-hop gaps <= window.  Greedy
        # choices are unsound with multi-edges (an earlier pick can
        # forbid the next hop another pick allows), so propagate the
        # full set of feasible clock values per step.
        for i in range(corpus.num_walks):
            walk = corpus.walk(i)
            feasible = np.array([-np.inf])
            for a, b in zip(walk[:-1], walk[1:]):
                dsts, times = graph.neighbors(int(a))
                candidates = times[dsts == b]
                next_feasible = []
                for t_next in candidates:
                    ok = (feasible < t_next) & (
                        ~np.isfinite(feasible)
                        | (t_next <= feasible + window + 1e-12)
                    )
                    if ok.any():
                        next_feasible.append(t_next)
                assert next_feasible, "no consistent timestamp assignment"
                feasible = np.array(next_feasible)


# ---------------------------------------------------------------------------
# Sampling invariants
# ---------------------------------------------------------------------------

class TestSamplingProperties:
    @given(
        hnp.arrays(np.float64, st.integers(1, 20),
                   elements=st.floats(0.0, 1.0, allow_nan=False)),
        st.sampled_from(sorted(BIAS_CHOICES)),
        st.floats(0.01, 10.0, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_probabilities_valid_distribution(self, ts, bias, temperature):
        probs = transition_probabilities(np.sort(ts), bias, temperature)
        assert probs.sum() == pytest.approx(1.0)
        assert np.all(probs >= 0)

    @given(hnp.arrays(np.float64, st.integers(1, 60),
                      elements=st.one_of(
                          st.just(0.0),
                          st.floats(0.001, 100.0, allow_nan=False))))
    @settings(max_examples=100, deadline=None)
    def test_alias_table_exact(self, weights):
        # Zero weights included: they take the build's zero-run path.
        if not weights.any():
            weights[0] = 1.0
        table = AliasTable(weights)
        expected = weights / weights.sum()
        assert np.allclose(table.probabilities(), expected, atol=1e-9)


# ---------------------------------------------------------------------------
# Metric invariants
# ---------------------------------------------------------------------------

class TestMetricProperties:
    @given(st.integers(2, 200), st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_auc_complement_symmetry(self, n, seed):
        rng = np.random.default_rng(seed)
        scores = rng.random(n)
        targets = rng.integers(0, 2, n)
        auc = roc_auc(scores, targets)
        flipped = roc_auc(-scores, targets)
        assert 0.0 <= auc <= 1.0
        if 0 < targets.sum() < n:
            assert auc + flipped == pytest.approx(1.0)

    @given(hnp.arrays(np.float64, st.integers(1, 100),
                      elements=st.floats(0.0, 100.0, allow_nan=False)))
    @settings(max_examples=60, deadline=None)
    def test_gini_bounds(self, values):
        g = gini(values)
        assert -1e-9 <= g <= 1.0


# ---------------------------------------------------------------------------
# Split invariants
# ---------------------------------------------------------------------------

class TestSplitProperties:
    @given(edge_lists(max_nodes=20, max_edges=60), st.integers(0, 2 ** 16))
    @settings(max_examples=40, deadline=None)
    def test_split_partitions_and_chronology(self, edges, seed):
        if len(edges) < 5:
            return
        splits = temporal_edge_split(edges, seed=seed)
        assert splits.total == len(edges)
        if len(splits.test) and len(splits.train):
            assert splits.train.timestamps.max() <= splits.test.timestamps.min() + 1e-12


# ---------------------------------------------------------------------------
# I/O round-trip invariants
# ---------------------------------------------------------------------------

class TestIoProperties:
    @given(edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_wel_round_trip(self, edges):
        import tempfile
        from pathlib import Path

        from repro.graph.io import read_wel, write_wel

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.wel"
            write_wel(edges, path)
            back = read_wel(path, normalize=False)
        assert np.array_equal(back.src, edges.src)
        assert np.array_equal(back.dst, edges.dst)
        # %.10g text formatting preserves values to float precision here.
        assert np.allclose(back.timestamps, edges.timestamps, atol=1e-9)

    @given(edge_lists())
    @settings(max_examples=30, deadline=None)
    def test_corpus_round_trip(self, edges):
        import tempfile
        from pathlib import Path

        from repro.walk.corpus import WalkCorpus

        graph = TemporalGraph.from_edge_list(edges)
        corpus = TemporalWalkEngine(graph).run(
            WalkConfig(num_walks_per_node=1, max_walk_length=4), seed=1
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.npz"
            corpus.save(path)
            back = WalkCorpus.load(path)
        assert np.array_equal(back.matrix, corpus.matrix)
        assert np.array_equal(back.lengths, corpus.lengths)


# ---------------------------------------------------------------------------
# Huffman-tree invariants
# ---------------------------------------------------------------------------

class TestHuffmanProperties:
    @given(hnp.arrays(np.int64, st.integers(1, 40),
                      elements=st.integers(0, 1000)))
    @settings(max_examples=60, deadline=None)
    def test_prefix_free_and_kraft_equality(self, counts):
        from repro.embedding.hsoftmax import HuffmanTree

        tree = HuffmanTree(counts)
        n = len(counts)
        codes = []
        for leaf in range(n):
            length = int(tree.code_lengths[leaf])
            codes.append(tuple(tree.codes[leaf, :length].tolist()))
        # Prefix-free.
        for i, a in enumerate(codes):
            for j, b in enumerate(codes):
                if i != j and len(a) <= len(b):
                    assert a != b[: len(a)]
        # A full binary (Huffman) tree satisfies Kraft with equality.
        if n > 1:
            kraft = sum(2.0 ** -len(c) for c in codes)
            assert kraft == pytest.approx(1.0)

    @given(hnp.arrays(np.int64, st.integers(2, 30),
                      elements=st.integers(1, 1000)))
    @settings(max_examples=40, deadline=None)
    def test_hs_probabilities_normalize(self, counts):
        from repro.embedding.hsoftmax import HierarchicalSoftmaxModel

        model = HierarchicalSoftmaxModel(counts, dim=3, seed=1)
        rng = np.random.default_rng(int(counts.sum()) % 2**31)
        model.w_inner[:] = rng.normal(0, 0.4, size=model.w_inner.shape)
        total = sum(
            model.context_probability(0, ctx) for ctx in range(len(counts))
        )
        assert total == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# Scheduler invariants
# ---------------------------------------------------------------------------

class TestSchedulerProperties:
    @given(
        hnp.arrays(np.float64, st.integers(1, 200),
                   elements=st.floats(0.0, 100.0, allow_nan=False)),
        st.integers(1, 32),
        st.sampled_from(["static", "dynamic"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_makespan_bounds(self, work, threads, policy):
        costs = SchedulerCosts(per_thread_startup=0.0, per_chunk_dispatch=0.0,
                               per_steal=0.0, bandwidth_speedup_cap=None)
        result = simulate_schedule(work, threads, policy=policy, costs=costs)
        serial = work.sum()
        # Makespan is at least serial/threads and at most serial work.
        assert result.makespan >= serial / threads - 1e-9
        assert result.makespan <= serial + 1e-9


# ---------------------------------------------------------------------------
# Serving top-k invariants
# ---------------------------------------------------------------------------

def _multi_column_select_top(block_scores: np.ndarray,
                             take: int) -> np.ndarray:
    """The retired multi-column selection, kept as the reference.

    Row offsets of the top ``take`` scores per column, by descending
    score with ties to the lower offset: a threshold at the ``take``-th
    value, then the lowest-offset ties by cumulative count.
    """
    rows, columns = block_scores.shape
    if take >= rows:
        return np.broadcast_to(
            np.arange(rows, dtype=np.int64)[:, None], (rows, columns)
        )
    kth = np.partition(block_scores, rows - take, axis=0)[rows - take]
    above = block_scores > kth
    need = take - above.sum(axis=0)
    tied = block_scores == kth
    selected = above | (tied & (np.cumsum(tied, axis=0) <= need))
    offsets = np.nonzero(selected.T)[1]
    return offsets.reshape(columns, take).T


@st.composite
def score_columns(draw):
    """Score vectors rich in ties: values from a small pool (duplicate
    rows score alike), with ``-inf`` for self-excluded rows."""
    rows = draw(st.integers(min_value=1, max_value=60))
    pool = draw(st.lists(
        st.one_of(
            st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
            st.just(-np.inf),
        ),
        min_size=1, max_size=6,
    ))
    picks = draw(hnp.arrays(np.int64, rows,
                            elements=st.integers(0, len(pool) - 1)))
    take = draw(st.integers(min_value=1, max_value=rows + 3))
    return np.asarray(pool, dtype=np.float64)[picks], take


class TestServingTopKProperties:
    """Exact top-k must be a pure function of (matrix, node, k, metric).

    Block size and batch composition are execution details.  Every
    query is scored by one per-row kernel whose reduction order depends
    only on the dimension, so neither may change the returned ids nor
    the score bytes, and the lower-id tie-break has to be invariant to
    how the scan was chunked or batched.
    """

    @pytest.mark.kernels
    @given(score_columns())
    @settings(max_examples=300, deadline=None)
    def test_one_column_selection_matches_multi_column(self, case):
        from repro.serving import RecommendationIndex

        scores, take = case
        got = RecommendationIndex._select_top(scores, take)
        want = _multi_column_select_top(scores[:, None], take)[:, 0]
        np.testing.assert_array_equal(got, want)

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=2, max_value=80),
        st.integers(min_value=1, max_value=6),
        st.sampled_from(["dot", "cosine"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_topk_invariant_to_block_size(self, seed, n, dim, metric):
        from repro.serving import EmbeddingStore, RecommendationIndex

        rng = np.random.default_rng(seed)
        store = EmbeddingStore()
        store.publish(rng.standard_normal((n, dim)), generation=0)
        k = int(rng.integers(1, n + 2))
        baseline = RecommendationIndex(store, cache_size=0, metric=metric)
        expected_ids, expected_scores = baseline.top_k(0, k)
        for block_size in (1, 3, 17, n):
            index = RecommendationIndex(store, cache_size=0,
                                        block_size=block_size, metric=metric)
            ids, scores = index.top_k(0, k)
            np.testing.assert_array_equal(ids, expected_ids)
            assert scores.tobytes() == expected_scores.tobytes()

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=3, max_value=60),
        st.sampled_from(["dot", "cosine"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_topk_invariant_to_batch_composition(self, seed, n, metric):
        from repro.serving import EmbeddingStore, RecommendationIndex

        rng = np.random.default_rng(seed)
        store = EmbeddingStore()
        store.publish(rng.standard_normal((n, 4)), generation=0)
        k = int(rng.integers(1, n))
        nodes = rng.integers(0, n, size=6)
        # Singles are the reference; the batch answers (in any request
        # order) must agree with them.
        single = RecommendationIndex(store, cache_size=0, metric=metric)
        expected = [single.top_k(int(node), k) for node in nodes]
        batched = RecommendationIndex(store, cache_size=0, metric=metric)
        order = rng.permutation(len(nodes))
        results = batched.top_k_batch([(int(nodes[i]), k) for i in order])
        for got, i in zip(results, order):
            assert got[0].tobytes() == expected[i][0].tobytes()
            assert got[1].tobytes() == expected[i][1].tobytes()

    def test_duplicate_rows_keep_lowest_id_ties_across_block_sizes(self):
        """Duplicate rows create huge tie groups; whatever the block
        size, the selection must admit exactly the lowest-id ties (an
        arbitrary tie subset would differ between chunkings).  The
        per-row kernel makes the score bytes chunking-invariant too."""
        from repro.serving import EmbeddingStore, RecommendationIndex

        rng = np.random.default_rng(7)
        prototypes = rng.standard_normal((4, 5))
        matrix = prototypes[rng.integers(0, 4, size=120)]
        store = EmbeddingStore()
        store.publish(matrix, generation=0)
        baseline = RecommendationIndex(store, cache_size=0, block_size=120)
        expected_ids, expected_scores = baseline.top_k(11, 30)
        for block_size in (1, 2, 7, 64):
            index = RecommendationIndex(store, cache_size=0,
                                        block_size=block_size)
            ids, scores = index.top_k(11, 30)
            np.testing.assert_array_equal(ids, expected_ids)
            assert scores.tobytes() == expected_scores.tobytes()
