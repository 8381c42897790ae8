"""Brute-force-oracle harness for the IVF approximate top-k index.

The exact :class:`~repro.serving.index.RecommendationIndex` is the
oracle; every contract of :mod:`repro.serving.ann` is pinned against
it:

- **exact-mode equivalence**: ``nprobe >= nlist`` probes every cell, so
  the candidate set is the full id range and the ANN answer must be
  *bit-identical* to the oracle — same ids, same float scores, same
  lower-id tie-breaks, including on duplicate-heavy matrices;
- **recall bounds**: partial probes on clustered / gaussian / duplicate
  matrices must clear measured recall@k floors (calibrated with margin
  against the deterministic seeded build);
- **edge cases**: ``k >= num_nodes``, singleton stores, zero-norm rows
  under cosine, empty probe cells, and ``k`` exhausting the probed
  candidates (automatic exact fallback);
- **determinism**: rebuilding from the same snapshot reproduces the
  centroids and cell lists bit-for-bit;
- **version pinning**: a publish racing an ANN build or a micro-batch
  must never pair one generation's cell lists with another generation's
  matrix, and the installed index version only advances.

Comparisons against the oracle are always single-query vs single-query:
BLAS may pick different kernels for ``m=1`` and batched GEMMs, so only
the matched shapes are guaranteed bit-identical.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.errors import ServingError
from repro.observability import Recorder, use_recorder
from repro.serving import (
    EmbeddingStore,
    IvfConfig,
    IvfIndex,
    IvfIndexManager,
    RecommendationIndex,
    ServingConfig,
    ServingFrontend,
)

pytestmark = pytest.mark.ann


def make_store(matrix: np.ndarray, generation: int = 0) -> EmbeddingStore:
    store = EmbeddingStore()
    store.publish(matrix, generation=generation)
    return store


def make_manager(store: EmbeddingStore, metric: str = "dot",
                 **knobs) -> IvfIndexManager:
    """Manager with the build already finished (tests stay deterministic)."""
    knobs.setdefault("min_index_nodes", 1)
    manager = IvfIndexManager(store, IvfConfig(**knobs), metric=metric)
    assert manager.wait_ready(timeout=30.0)
    return manager


def reference_topk(matrix: np.ndarray, node: int, k: int,
                   metric: str = "dot") -> tuple[np.ndarray, np.ndarray]:
    """Independent oracle: full scores, lexsort tie-break by lower id."""
    scores = matrix @ matrix[node]
    if metric == "cosine":
        norms = np.linalg.norm(matrix, axis=1)
        norms = np.where(norms == 0.0, 1.0, norms)
        denom = norms * norms[node]
        scores = scores / np.maximum(denom, np.finfo(np.float64).tiny)
    scores[node] = -np.inf
    order = np.lexsort((np.arange(len(scores)), -scores))
    k_eff = min(k, len(scores) - 1)
    return order[:k_eff], scores[order[:k_eff]]


def clustered_matrix(rng: np.random.Generator, n: int, dim: int,
                     centers: int = 25, spread: float = 0.5) -> np.ndarray:
    anchors = rng.standard_normal((centers, dim)) * 3.0
    return (anchors[rng.integers(0, centers, n)]
            + rng.standard_normal((n, dim)) * spread)


def duplicate_matrix(rng: np.random.Generator, n: int,
                     dim: int, distinct: int = 5) -> np.ndarray:
    """Huge tie groups: every row is one of ``distinct`` vectors."""
    prototypes = rng.standard_normal((distinct, dim))
    return prototypes[rng.integers(0, distinct, n)]


def measured_recall(exact: RecommendationIndex, ann: RecommendationIndex,
                    queries: np.ndarray, k: int) -> float:
    hits = total = 0
    for node in queries:
        exact_ids, _ = exact.top_k(int(node), k)
        ann_ids, _ = ann.top_k(int(node), k, mode="ivf")
        hits += len(np.intersect1d(exact_ids, ann_ids))
        total += len(exact_ids)
    return hits / total


# ---------------------------------------------------------------------------
# Build determinism and cell structure
# ---------------------------------------------------------------------------
class TestIvfBuild:
    def test_cells_partition_the_id_space(self):
        rng = np.random.default_rng(0)
        store = make_store(rng.standard_normal((500, 8)))
        index = IvfIndex.build(store.snapshot(), IvfConfig(nlist=13))
        joined = np.concatenate(index.cells)
        assert len(joined) == 500
        np.testing.assert_array_equal(np.sort(joined), np.arange(500))
        for cell in index.cells:  # ids ascend inside every cell
            assert np.all(np.diff(cell) > 0) or len(cell) <= 1

    def test_rebuild_from_same_snapshot_is_bit_identical(self):
        rng = np.random.default_rng(1)
        snapshot = make_store(rng.standard_normal((600, 16))).snapshot()
        config = IvfConfig(nlist=24, seed=7)
        first = IvfIndex.build(snapshot, config)
        second = IvfIndex.build(snapshot, config)
        np.testing.assert_array_equal(first.centroids, second.centroids)
        assert len(first.cells) == len(second.cells)
        for a, b in zip(first.cells, second.cells):
            np.testing.assert_array_equal(a, b)

    def test_auto_nlist_scales_with_sqrt_n(self):
        rng = np.random.default_rng(2)
        snapshot = make_store(rng.standard_normal((900, 4))).snapshot()
        index = IvfIndex.build(snapshot, IvfConfig(nlist=None))
        assert index.nlist == 30  # round(sqrt(900))
        tiny = make_store(rng.standard_normal((3, 4))).snapshot()
        assert IvfIndex.build(tiny, IvfConfig(nlist=None)).nlist in (1, 2, 3)

    def test_nlist_clamped_to_node_count(self):
        rng = np.random.default_rng(3)
        snapshot = make_store(rng.standard_normal((6, 4))).snapshot()
        index = IvfIndex.build(snapshot, IvfConfig(nlist=50, nprobe=50))
        assert index.nlist <= 6
        assert index.nprobe <= index.nlist

    def test_config_validation(self):
        with pytest.raises(ServingError):
            IvfConfig(nlist=0)
        with pytest.raises(ServingError):
            IvfConfig(nprobe=0)
        with pytest.raises(ServingError):
            IvfConfig(min_index_nodes=0)
        with pytest.raises(ServingError):
            IvfConfig(recall_sample_every=-1)


# ---------------------------------------------------------------------------
# Exact-mode equivalence: nprobe >= nlist must be bit-identical
# ---------------------------------------------------------------------------
class TestExactModeOracleEquivalence:
    @pytest.mark.parametrize("metric", ["dot", "cosine"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_probe_is_bit_identical_to_oracle(self, metric, seed):
        rng = np.random.default_rng(seed)
        matrix = clustered_matrix(rng, 400, 8)
        store = make_store(matrix)
        manager = make_manager(store, metric=metric, nlist=11, nprobe=11)
        exact = RecommendationIndex(store, cache_size=0, metric=metric)
        ann = RecommendationIndex(store, cache_size=0, metric=metric,
                                  ann=manager)
        for node in rng.integers(0, 400, size=25):
            exact_ids, exact_scores = exact.top_k(int(node), 10)
            ann_ids, ann_scores = ann.top_k(int(node), 10, mode="ivf")
            np.testing.assert_array_equal(ann_ids, exact_ids)
            np.testing.assert_array_equal(ann_scores, exact_scores)

    @pytest.mark.parametrize("metric", ["dot", "cosine"])
    def test_full_probe_duplicate_rows_keep_lower_id_ties(self, metric):
        rng = np.random.default_rng(42)
        matrix = duplicate_matrix(rng, 300, 6, distinct=4)
        store = make_store(matrix)
        manager = make_manager(store, metric=metric, nlist=9, nprobe=9)
        exact = RecommendationIndex(store, cache_size=0, metric=metric)
        ann = RecommendationIndex(store, cache_size=0, metric=metric,
                                  ann=manager)
        for node in (0, 7, 123, 299):
            ref_ids, ref_scores = reference_topk(matrix, node, 20, metric)
            exact_ids, exact_scores = exact.top_k(node, 20)
            ann_ids, ann_scores = ann.top_k(node, 20, mode="ivf")
            # Ties are huge here (duplicate rows): the documented law is
            # "lower id wins", independently pinned by reference_topk.
            np.testing.assert_array_equal(exact_ids, ref_ids)
            np.testing.assert_array_equal(ann_ids, ref_ids)
            np.testing.assert_allclose(exact_scores, ref_scores)
            np.testing.assert_array_equal(ann_scores, exact_scores)

    def test_full_probe_spans_odd_block_boundaries(self):
        rng = np.random.default_rng(5)
        matrix = rng.standard_normal((257, 5))
        store = make_store(matrix)
        manager = make_manager(store, nlist=7, nprobe=7)
        for block_size in (1, 16, 100, 257, 10_000):
            exact = RecommendationIndex(store, cache_size=0,
                                        block_size=block_size)
            ann = RecommendationIndex(store, cache_size=0,
                                      block_size=block_size, ann=manager)
            exact_ids, exact_scores = exact.top_k(31, 12)
            ann_ids, ann_scores = ann.top_k(31, 12, mode="ivf")
            np.testing.assert_array_equal(ann_ids, exact_ids)
            np.testing.assert_array_equal(ann_scores, exact_scores)


# ---------------------------------------------------------------------------
# Recall bounds under partial probing
# ---------------------------------------------------------------------------
class TestRecallBounds:
    @pytest.mark.parametrize("metric", ["dot", "cosine"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_clustered_matrix_recall_at_10(self, metric, seed):
        rng = np.random.default_rng(seed)
        store = make_store(clustered_matrix(rng, 4000, 16))
        manager = make_manager(store, metric=metric, nlist=32, nprobe=4,
                               seed=seed)
        exact = RecommendationIndex(store, cache_size=0, metric=metric)
        ann = RecommendationIndex(store, cache_size=0, metric=metric,
                                  ann=manager)
        queries = rng.integers(0, 4000, size=60)
        # Measured >= 0.99 for these seeds; 0.9 leaves slack for BLAS
        # rounding differences across platforms, not for regressions.
        assert measured_recall(exact, ann, queries, 10) >= 0.9

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gaussian_matrix_recall_at_10(self, seed):
        rng = np.random.default_rng(seed + 10)
        store = make_store(rng.standard_normal((3000, 16)))
        manager = make_manager(store, nlist=25, nprobe=12, seed=seed)
        exact = RecommendationIndex(store, cache_size=0)
        ann = RecommendationIndex(store, cache_size=0, ann=manager)
        queries = rng.integers(0, 3000, size=60)
        # Unclustered gaussian data is the hard case; measured >= 0.95.
        assert measured_recall(exact, ann, queries, 10) >= 0.85

    def test_duplicate_matrix_recall_is_perfect(self):
        # Every neighbor of a duplicate row lives in the same cell as
        # the row itself, so even nprobe=1 must achieve recall 1 and
        # reproduce the exact tie-break order.
        rng = np.random.default_rng(9)
        matrix = duplicate_matrix(rng, 600, 8, distinct=3)
        store = make_store(matrix)
        manager = make_manager(store, nlist=3, nprobe=1, train_iters=16,
                               seed=1)
        exact = RecommendationIndex(store, cache_size=0)
        ann = RecommendationIndex(store, cache_size=0, ann=manager)
        for node in rng.integers(0, 600, size=10):
            exact_ids, _ = exact.top_k(int(node), 5)
            ann_ids, _ = ann.top_k(int(node), 5, mode="ivf")
            np.testing.assert_array_equal(ann_ids, exact_ids)


# ---------------------------------------------------------------------------
# Edge cases
# ---------------------------------------------------------------------------
class TestEdgeCases:
    def test_k_larger_than_num_nodes(self):
        rng = np.random.default_rng(0)
        store = make_store(rng.standard_normal((40, 4)))
        manager = make_manager(store, nlist=5, nprobe=5)
        index = RecommendationIndex(store, cache_size=0, ann=manager)
        ids, scores = index.top_k(3, 1000, mode="ivf")
        assert len(ids) == 39  # n - 1: self excluded
        exact_ids, exact_scores = RecommendationIndex(
            store, cache_size=0).top_k(3, 1000)
        np.testing.assert_array_equal(ids, exact_ids)
        np.testing.assert_array_equal(scores, exact_scores)

    def test_singleton_store_returns_empty(self):
        store = make_store(np.ones((1, 3)))
        manager = make_manager(store, nlist=1, nprobe=1)
        index = RecommendationIndex(store, cache_size=0, ann=manager)
        ids, scores = index.top_k(0, 5, mode="ivf")
        assert ids.shape == (0,) and scores.shape == (0,)

    def test_zero_norm_rows_under_cosine(self):
        matrix = np.zeros((520, 4))
        rng = np.random.default_rng(3)
        matrix[:500] = rng.standard_normal((500, 4))  # last 20 rows zero
        store = make_store(matrix)
        manager = make_manager(store, metric="cosine", nlist=8, nprobe=8)
        exact = RecommendationIndex(store, cache_size=0, metric="cosine")
        ann = RecommendationIndex(store, cache_size=0, metric="cosine",
                                  ann=manager)
        for node in (0, 250, 510, 519):  # zero rows as queries too
            exact_ids, exact_scores = exact.top_k(node, 15)
            ann_ids, ann_scores = ann.top_k(node, 15, mode="ivf")
            assert np.all(np.isfinite(exact_scores))
            np.testing.assert_array_equal(ann_ids, exact_ids)
            np.testing.assert_array_equal(ann_scores, exact_scores)

    def test_empty_probe_cells_are_tolerated(self):
        # All rows identical -> Lloyd collapses everything into one
        # cell; the other cells stay empty.  Probing them must yield a
        # correct answer (the one full cell covers every candidate).
        matrix = np.tile(np.array([[1.0, 2.0, 3.0]]), (64, 1))
        store = make_store(matrix)
        manager = make_manager(store, nlist=4, nprobe=3)
        index = manager.current
        assert index is not None
        sizes = sorted(len(cell) for cell in index.cells)
        assert sizes[-1] == 64 and sizes[:-1] == [0, 0, 0]
        ann = RecommendationIndex(store, cache_size=0, ann=manager)
        ids, scores = ann.top_k(10, 5, mode="ivf")
        np.testing.assert_array_equal(ids, [0, 1, 2, 3, 4])
        np.testing.assert_allclose(scores, 14.0)

    def test_k_exhausting_probed_candidates_falls_back_to_exact(self):
        rng = np.random.default_rng(4)
        matrix = rng.standard_normal((200, 6))
        store = make_store(matrix)
        manager = make_manager(store, nlist=10, nprobe=1)
        ann = RecommendationIndex(store, cache_size=0, ann=manager)
        exact = RecommendationIndex(store, cache_size=0)
        recorder = Recorder()
        with use_recorder(recorder):
            # k = n - 1 cannot be served from one probed cell.
            ids, scores = ann.top_k(0, 199, mode="ivf")
        exact_ids, exact_scores = exact.top_k(0, 199)
        np.testing.assert_array_equal(ids, exact_ids)
        np.testing.assert_array_equal(scores, exact_scores)
        assert recorder.counters[
            "serving.ann.fallbacks.insufficient_candidates"] == 1
        assert "serving.ann.queries" not in recorder.counters

    def test_small_store_is_never_indexed(self):
        rng = np.random.default_rng(5)
        store = EmbeddingStore()
        recorder = Recorder()
        with use_recorder(recorder):
            manager = IvfIndexManager(store, IvfConfig(min_index_nodes=512))
            store.publish(rng.standard_normal((100, 4)), generation=0)
            assert not manager.wait_ready(timeout=0.05)
            assert manager.current is None
            assert recorder.counters["serving.ann.skipped_small"] == 1
            # Queries still work: silent exact fallback.
            index = RecommendationIndex(store, cache_size=0, ann=manager)
            ids, _ = index.top_k(0, 5, mode="ivf")
            assert len(ids) == 5
            assert recorder.counters["serving.ann.fallbacks.no_index"] == 1

    def test_no_index_fallback_counts_once_per_distinct_lookup(self):
        """Duplicate IVF requests with no index ready book one miss and
        one fallback, as they share one exact answer."""
        rng = np.random.default_rng(5)
        store = make_store(rng.standard_normal((100, 4)))
        manager = IvfIndexManager(store, IvfConfig(min_index_nodes=512))
        index = RecommendationIndex(store, cache_size=0, ann=manager)
        recorder = Recorder()
        with use_recorder(recorder):
            index.top_k_batch([(7, 5, "ivf")] * 3)
        manager.close()
        counters = recorder.counters
        assert counters["serving.index.cache_misses"] == 1
        assert counters["serving.ann.fallbacks"] == 1
        assert counters["serving.ann.fallbacks.no_index"] == 1


# ---------------------------------------------------------------------------
# Version pinning and the racing-publish regression
# ---------------------------------------------------------------------------
class TestVersionPinning:
    def test_index_for_requires_version_match(self):
        rng = np.random.default_rng(0)
        store = make_store(rng.standard_normal((300, 4)))
        manager = make_manager(store, nlist=6, nprobe=6)
        first = store.snapshot()
        assert manager.index_for(first) is manager.current
        manager.close()  # no rebuild will happen for the next publish
        store.publish(rng.standard_normal((300, 4)), generation=1)
        second = store.snapshot()
        assert manager.index_for(second) is None  # stale index never served
        recorder = Recorder()
        with use_recorder(recorder):
            index = RecommendationIndex(store, cache_size=0, ann=manager)
            ids, scores = index.top_k(0, 5, mode="ivf")
        exact_ids, exact_scores = RecommendationIndex(
            store, cache_size=0).top_k(0, 5)
        np.testing.assert_array_equal(ids, exact_ids)
        np.testing.assert_array_equal(scores, exact_scores)
        assert recorder.counters["serving.ann.fallbacks.no_index"] == 1

    def test_build_coalescing_skips_intermediate_versions(self):
        rng = np.random.default_rng(1)
        store = make_store(rng.standard_normal((300, 4)))
        manager = make_manager(store, nlist=6)
        for generation in range(1, 6):
            store.publish(rng.standard_normal((300, 4)),
                          generation=generation)
        assert manager.wait_ready(timeout=30.0)
        assert manager.current.version == store.version

    def test_racing_publish_never_mixes_generations(self):
        """Regression harness for the mixed-generation hazard.

        Embeddings are 1-D with node 0's value encoding the publish
        generation: every correct top-1 answer for query ``q`` is node 0
        with score ``value[q] * (base + g)``, so each response *decodes*
        the generation it was computed from.  A writer republishes new
        generations while a reader hammers mixed-mode micro-batches;
        any batch whose responses decode to two different generations —
        e.g. an ANN answer from cell lists of version ``v`` paired with
        matrix ``v+1``, or a cache hit from a different version — is a
        pinning violation.
        """
        n, base, publishes = 600, 100.0, 30
        values = np.concatenate(([0.0], 1.0 + np.arange(1, n) * 1e-6))

        def matrix_for(generation: int) -> np.ndarray:
            column = values.copy()
            column[0] = base + generation
            return column[:, None]

        store = make_store(matrix_for(0))
        manager = make_manager(store, nlist=6, nprobe=6, seed=3)
        index = RecommendationIndex(store, cache_size=256, ann=manager)
        done = threading.Event()

        def writer() -> None:
            for generation in range(1, publishes + 1):
                store.publish(matrix_for(generation), generation=generation)
                time.sleep(0.002)
            done.set()

        thread = threading.Thread(target=writer)
        thread.start()
        rng = np.random.default_rng(5)
        last_generation = -1.0
        versions: list[int] = []
        try:
            while not done.is_set():
                nodes = rng.integers(1, n, size=16)
                modes = ["ivf" if i % 2 else "exact" for i in range(16)]
                batch = index.top_k_batch(
                    [(int(q), 3, mode) for q, mode in zip(nodes, modes)]
                )
                decoded = set()
                for q, (ids, scores) in zip(nodes, batch):
                    assert ids[0] == 0  # node 0 dominates every generation
                    decoded.add(round(scores[0] / values[q] - base))
                assert len(decoded) == 1, \
                    f"one batch mixed generations {sorted(decoded)}"
                generation = decoded.pop()
                assert generation >= last_generation  # snapshots monotone
                last_generation = generation
                current = manager.current
                if current is not None:
                    versions.append(current.version)
        finally:
            thread.join()
        assert last_generation >= 0
        # Installed index versions only ever advance.
        assert all(b >= a for a, b in zip(versions, versions[1:]))


# ---------------------------------------------------------------------------
# Manager + frontend wiring
# ---------------------------------------------------------------------------
class TestFrontendWiring:
    def test_frontend_ivf_mode_and_per_query_override(self):
        rng = np.random.default_rng(0)
        store = make_store(clustered_matrix(rng, 800, 8))
        config = ServingConfig(
            index="ivf",
            ann=IvfConfig(nlist=8, nprobe=8, min_index_nodes=1),
            cache_size=0,
        )
        recorder = Recorder()
        with use_recorder(recorder):
            with ServingFrontend(store, config) as frontend:
                assert frontend.ann is not None
                assert frontend.ann.wait_ready(timeout=30.0)
                ann_ids, ann_scores = frontend.top_k(5, 10)
                exact_ids, exact_scores = frontend.top_k(5, 10, mode="exact")
                np.testing.assert_array_equal(ann_ids, exact_ids)
                np.testing.assert_array_equal(ann_scores, exact_scores)
        assert recorder.counters["serving.ann.builds"] >= 1
        assert recorder.counters["serving.ann.queries"] >= 1
        assert recorder.counters["serving.ann.cells_probed"] >= 8

    def test_exact_frontend_rejects_ivf_without_ann(self):
        rng = np.random.default_rng(1)
        store = make_store(rng.standard_normal((50, 4)))
        with ServingFrontend(store, ServingConfig(index="exact")) as frontend:
            assert frontend.ann is None
            with pytest.raises(ServingError):
                frontend.top_k(0, 5, mode="ivf")

    def test_invalid_index_choice_rejected(self):
        with pytest.raises(ServingError):
            ServingConfig(index="annoy")

    def test_cache_never_answers_exact_from_ivf_entry(self):
        rng = np.random.default_rng(2)
        store = make_store(clustered_matrix(rng, 1000, 8))
        manager = make_manager(store, nlist=25, nprobe=2)
        index = RecommendationIndex(store, cache_size=64, ann=manager)
        index.top_k(7, 10, mode="ivf")
        assert index.cached(7, 10, mode="ivf") is not None
        assert index.cached(7, 10, mode="exact") is None  # no downgrade
        # ... but an ivf lookup may reuse an exact entry (recall 1):
        # node 9 has no ivf entry yet, only the exact one.
        exact = index.top_k(9, 10, mode="exact")
        hit = index.cached(9, 10, mode="ivf")
        assert hit is not None
        np.testing.assert_array_equal(hit[0], exact[0])
        np.testing.assert_array_equal(hit[1], exact[1])

    def test_ivf_misses_count_once_and_fallbacks_are_not_recounted(self):
        """Every distinct lookup that misses counts one cache miss in
        either mode, so an IVF run's hit rate is below 1 when it scans;
        an IVF miss that falls back to exact is not counted again."""
        rng = np.random.default_rng(6)
        store = make_store(clustered_matrix(rng, 400, 8))
        manager = make_manager(store, nlist=10, nprobe=1)
        index = RecommendationIndex(store, cache_size=64, ann=manager)
        recorder = Recorder()
        with use_recorder(recorder):
            index.top_k_batch([(7, 10, "ivf"), (7, 10, "ivf"),
                               (8, 10, "ivf")])
            index.top_k(7, 10, mode="ivf")
            # k = n - 1 cannot be served from one probed cell.
            index.top_k(9, 399, mode="ivf")
        counters = recorder.counters
        assert counters["serving.index.cache_misses"] == 3
        assert counters["serving.index.cache_hits"] == 1
        assert counters[
            "serving.ann.fallbacks.insufficient_candidates"] == 1

    def test_duplicate_ivf_misses_query_once(self):
        """Duplicate IVF misses in one batch share one ANN query, the way
        duplicate exact misses share one scan."""
        rng = np.random.default_rng(6)
        store = make_store(clustered_matrix(rng, 400, 8))
        manager = make_manager(store, nlist=10, nprobe=1)
        index = RecommendationIndex(store, cache_size=0, ann=manager)
        recorder = Recorder()
        with use_recorder(recorder):
            answers = index.top_k_batch([(7, 10, "ivf")] * 3)
        assert recorder.counters["serving.ann.queries"] == 1
        want_ids, want_scores = index.top_k(7, 10, mode="ivf")
        for ids, scores in answers:
            np.testing.assert_array_equal(ids, want_ids)
            np.testing.assert_array_equal(scores, want_scores)

    def test_recall_sampling_records_histogram(self):
        rng = np.random.default_rng(3)
        store = make_store(clustered_matrix(rng, 1000, 8))
        recorder = Recorder()
        with use_recorder(recorder):
            manager = make_manager(store, nlist=10, nprobe=2,
                                   recall_sample_every=1)
            index = RecommendationIndex(store, cache_size=0, ann=manager)
            for node in range(20):
                index.top_k(node, 10, mode="ivf")
        samples = recorder.counters.get("serving.ann.recall_samples", 0)
        assert samples >= 1
        hist = recorder.histograms["serving.ann.recall_at_k"]
        assert hist.count == samples
        assert 0.0 <= hist.mean <= 1.0
