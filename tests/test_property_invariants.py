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


# ---------------------------------------------------------------------------
# Float32 screen of exact top-k
# ---------------------------------------------------------------------------

def _float64_full_scan(matrix, norms, query, query_norm, exclude, k,
                       metric, block_size):
    """The float64 full scan the float32 screen replaced, kept as the
    reference: every row of every block scored by the float64 kernel,
    each block's top taken by ``_select_top``, and the pool merged by
    (score, lower id)."""
    from repro.serving import RecommendationIndex

    n = len(matrix)
    k_eff = min(k, n - 1) if exclude >= 0 else min(k, n)
    if k_eff <= 0:
        return np.empty(0, dtype=np.int64), np.empty(0)
    qnorm = 1.0 if query_norm == 0.0 else query_norm
    pool_ids, pool_scores = [], []
    for start in range(0, n, block_size):
        rows = matrix[start:start + block_size]
        ids = np.arange(start, start + len(rows))
        scores = np.einsum("nd,d->n", rows, query)
        if metric == "cosine":
            block_norms = norms[start:start + block_size]
            denom = np.where(block_norms == 0.0, 1.0, block_norms) * qnorm
            np.maximum(denom, np.finfo(np.float64).tiny, out=denom)
            scores /= denom
        if start <= exclude < start + len(rows):
            scores[exclude - start] = -np.inf
        part = RecommendationIndex._select_top(scores,
                                               min(k_eff, len(rows)))
        pool_ids.append(ids[part])
        pool_scores.append(scores[part])
    ids, scores = np.concatenate(pool_ids), np.concatenate(pool_scores)
    order = np.lexsort((ids, -scores))[:k_eff]
    return ids[order], scores[order]


#: Row scales from the float64 underflow range to the largest whose
#: squared norm is still finite (publish rejects larger rows).
_ROW_SCALES = (1.0, 1.0, 0.0, 1e-310, 1e-300, 1e-160, 1e-40, 2.0 ** -41,
               2.0 ** 41, 1e40, 1e150)


@st.composite
def screen_catalogs(draw):
    """Catalogs that stress the screen's bound and tie handling: rows
    drawn from a few prototypes (duplicates tie exactly), optionally
    nudged by a few units of 2**-30, 2**-25 or 2**-22 (near-ties that
    float64 orders and float32 ties or flips), one scale for all rows or a scale per row (mixed
    magnitudes in one block, zero rows), and optionally subnormal
    entries."""
    n = draw(st.integers(min_value=1, max_value=40))
    dim = draw(st.integers(min_value=1, max_value=7))
    prototypes = draw(hnp.arrays(
        np.float64, (draw(st.integers(1, 5)), dim),
        elements=st.one_of(
            st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0]),
            st.floats(-4.0, 4.0, allow_nan=False),
        ),
    ))
    picks = draw(hnp.arrays(np.int64, n,
                            elements=st.integers(0, len(prototypes) - 1)))
    matrix = prototypes[picks]
    if draw(st.booleans()):
        nudges = draw(hnp.arrays(np.int64, n, elements=st.integers(-3, 3)))
        unit = draw(st.sampled_from([2.0 ** -30, 2.0 ** -25, 2.0 ** -22]))
        matrix = matrix * (1.0 + nudges * unit)[:, None]
    if draw(st.booleans()):
        scales = draw(hnp.arrays(np.float64, n,
                                 elements=st.sampled_from(_ROW_SCALES)))
    else:
        scales = np.full(n, draw(st.sampled_from(_ROW_SCALES)))
    matrix = matrix * scales[:, None]
    if draw(st.booleans()):
        mask = draw(hnp.arrays(np.bool_, matrix.shape))
        steps = draw(hnp.arrays(np.int64, matrix.shape,
                                elements=st.integers(-6, 6)))
        matrix = np.where(mask, steps * 5e-324, matrix)
    return matrix


class TestFloat32ScreenProperties:
    """Screened exact top-k ≡ the float64 full scan, in ids and bytes.

    The screen keeps every row whose float32 score could reach a
    block's k-th best under a rigorous error bound and re-scores only
    those in float64, so no input may change an answer: not ties at
    the k-th score, duplicate or zero rows, magnitudes at either end
    of float64's range, subnormal entries, ``k >= n``, self-exclusion,
    one-row or odd-sized blocks, nor a query vector shipped to a shard.
    """

    @given(screen_catalogs(), st.sampled_from(["dot", "cosine"]),
           st.sampled_from([1, 2, 3, 5, 7, 16, 8192]), st.data())
    @settings(max_examples=300, deadline=None)
    def test_screened_topk_matches_float64_full_scan(self, matrix, metric,
                                                     block_size, data):
        from repro.serving import EmbeddingStore, RecommendationIndex

        store = EmbeddingStore()
        snapshot = store.publish(matrix, generation=0)
        index = RecommendationIndex(store, cache_size=0,
                                    block_size=block_size, metric=metric)
        n = len(matrix)
        k = data.draw(st.integers(1, n + 3), label="k")
        node = data.draw(st.integers(0, n - 1), label="node")
        ids, scores = index.top_k(node, k)
        want_ids, want_scores = _float64_full_scan(
            snapshot.matrix, snapshot.norms, snapshot.matrix[node],
            snapshot.norms[node], node, k, metric, block_size)
        assert ids.tobytes() == want_ids.tobytes()
        assert scores.tobytes() == want_scores.tobytes()

    @given(screen_catalogs(), st.sampled_from(["dot", "cosine"]),
           st.sampled_from([1, 3, 7, 8192]), st.data())
    @settings(max_examples=200, deadline=None)
    def test_shipped_vector_matches_float64_full_scan(self, matrix, metric,
                                                      block_size, data):
        """``top_k_vector`` (the shard worker's path) with a query from
        another catalog row scaled anywhere in range, excluding a local
        row or none."""
        from repro.errors import ServingError
        from repro.serving import EmbeddingStore, RecommendationIndex

        store = EmbeddingStore()
        snapshot = store.publish(matrix, generation=0)
        index = RecommendationIndex(store, cache_size=0,
                                    block_size=block_size, metric=metric)
        n = len(matrix)
        k = data.draw(st.integers(1, n + 3), label="k")
        exclude = data.draw(st.integers(-1, n - 1), label="exclude")
        scale = data.draw(st.sampled_from([1.0, 1e-300, 2.0 ** 45, 1e120]),
                          label="scale")
        with np.errstate(over="ignore"):
            vector = matrix[data.draw(st.integers(0, n - 1),
                                      label="row")] * scale
            norm = np.linalg.norm(vector[None, :], axis=1)[0]
        if not np.isfinite(norm):
            with pytest.raises(ServingError, match="finite"):
                index.top_k_vector(vector, k, exclude_row=exclude)
            return
        ids, scores = index.top_k_vector(vector, k, exclude_row=exclude)
        want_ids, want_scores = _float64_full_scan(
            snapshot.matrix, snapshot.norms, vector, norm, exclude, k,
            metric, block_size)
        assert ids.tobytes() == want_ids.tobytes()
        assert scores.tobytes() == want_scores.tobytes()

    @pytest.mark.parametrize("block_size", [2, 3, 8192])
    def test_float32_order_flip_keeps_the_float64_winner(self, block_size):
        """Row 0 outscores row 1 in float64, but rounding to float32
        flips them: row 0's 1 + 0.49 ulp rounds down and cancels to 0,
        row 1's 1 + 0.51 ulp rounds up and leaves one float32 ulp.  The
        float32 k-th best alone would drop the true winner; the bound
        keeps it."""
        from repro.serving import EmbeddingStore, RecommendationIndex

        ulp = 2.0 ** -23
        matrix = np.array([[1.0 + 0.49 * ulp, -1.0],
                           [1.0 + 0.51 * ulp, -1.0 - 0.03 * ulp],
                           [0.5, -1.0], [-1.0, 0.0]])
        query = np.ones(2)
        assert np.float32(matrix[1, 0]) > np.float32(matrix[0, 0])
        store = EmbeddingStore()
        store.publish(matrix, generation=0)
        index = RecommendationIndex(store, cache_size=0,
                                    block_size=block_size)
        for k in (1, 2):
            ids, scores = index.top_k_vector(query, k)
            want_ids, want_scores = _float64_full_scan(
                matrix, np.linalg.norm(matrix, axis=1), query,
                np.sqrt(2.0), -1, k, "dot", block_size)
            assert ids.tolist() == want_ids.tolist() == [0, 1][:k]
            assert scores.tobytes() == want_scores.tobytes()

    @given(screen_catalogs())
    @settings(max_examples=100, deadline=None)
    def test_blocked_publish_norms_match_linalg_norm(self, matrix):
        from repro.serving import EmbeddingStore

        snapshot = EmbeddingStore().publish(matrix, generation=0)
        want = np.linalg.norm(matrix, axis=1)
        assert snapshot.norms.tobytes() == want.tobytes()

    def test_blocked_publish_norms_span_publish_blocks(self):
        from repro.serving import EmbeddingStore

        rng = np.random.default_rng(11)
        matrix = rng.standard_normal((4_500, 9)) * rng.choice(
            [1e-200, 1.0, 1e100], size=(4_500, 1))
        snapshot = EmbeddingStore().publish(matrix, generation=0)
        want = np.linalg.norm(matrix, axis=1)
        assert snapshot.norms.tobytes() == want.tobytes()
        assert snapshot.matrix.tobytes() == matrix.tobytes()

    def test_rescored_rows_repeat_per_seed_and_stay_few(self):
        """``serving.index.rescored_rows`` is a function of the inputs
        (two runs of one seed count the same), and on a Gaussian
        catalog the screen re-scores a small share of the scanned
        rows."""
        from repro.observability import Recorder, use_recorder
        from repro.serving import EmbeddingStore, RecommendationIndex

        def run(seed: int) -> dict:
            rng = np.random.default_rng(seed)
            store = EmbeddingStore()
            store.publish(rng.standard_normal((3_000, 16)), generation=0)
            recorder = Recorder()
            with use_recorder(recorder):
                index = RecommendationIndex(store, cache_size=0,
                                            block_size=500)
                for node in rng.integers(0, 3_000, size=16):
                    index.top_k(int(node), 10)
            return recorder.counters

        first, second = run(5), run(5)
        rescored = first["serving.index.rescored_rows"]
        assert rescored == second["serving.index.rescored_rows"]
        assert first["serving.index.gemm_rows"] == 16 * 3_000
        assert 16 * 10 * 6 <= rescored < first["serving.index.gemm_rows"] / 10
