"""Tests for the online serving layer (:mod:`repro.serving`).

Pins down the four contracts the serving design note promises:

- snapshot-swap atomicity: readers racing a publisher only ever see
  whole snapshots (never a half-written matrix), and a held snapshot
  stays internally consistent while newer ones land;
- freshness: once a post-``append()`` publish lands, no stale cached
  top-k is ever served again (the LRU is keyed by snapshot version);
- top-k answers from concurrent client threads, each scanning on its
  own thread, are bit-identical to the single-query oracle;
- recorder instrumentation: the documented ``serving.*`` counters and
  histograms actually appear under load.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.embedding.trainer import SgnsConfig
from repro.errors import ServingError
from repro.graph.dynamic import DynamicTemporalGraph
from repro.graph.edges import TemporalEdgeList
from repro.observability import Recorder, use_recorder
from repro.serving import (
    EmbeddingStore,
    RecommendationIndex,
    ServingConfig,
    ServingFrontend,
    run_load,
)
from repro.tasks.incremental import IncrementalEmbedder
from repro.walk.config import WalkConfig

pytestmark = pytest.mark.serving


def make_store(matrix: np.ndarray, generation: int = 0) -> EmbeddingStore:
    store = EmbeddingStore()
    store.publish(matrix, generation=generation)
    return store


def brute_force_topk(matrix: np.ndarray, node: int, k: int,
                     metric: str = "dot") -> tuple[np.ndarray, np.ndarray]:
    scores = matrix @ matrix[node]
    if metric == "cosine":
        norms = np.linalg.norm(matrix, axis=1)
        norms = np.where(norms == 0.0, 1.0, norms)
        scores = scores / (norms * norms[node])
    scores[node] = -np.inf
    order = np.lexsort((np.arange(len(scores)), -scores))
    k_eff = min(k, len(scores) - 1)
    return order[:k_eff], scores[order[:k_eff]]


# ---------------------------------------------------------------------------
# EmbeddingStore
# ---------------------------------------------------------------------------
class TestEmbeddingStore:
    def test_publish_copies_and_freezes(self):
        source = np.ones((4, 3))
        store = make_store(source, generation=0)
        snapshot = store.snapshot()
        source[:] = 99.0  # trainer keeps mutating its buffer
        assert np.all(snapshot.matrix == 1.0)
        assert not snapshot.matrix.flags.writeable
        assert not snapshot.norms.flags.writeable
        np.testing.assert_allclose(snapshot.norms, np.sqrt(3.0))
        assert snapshot.num_nodes == 4 and snapshot.dim == 3

    def test_empty_store_raises_until_first_publish(self):
        store = EmbeddingStore()
        assert store.empty
        assert store.version == 0 and store.generation == -1
        with pytest.raises(ServingError, match="no embeddings published"):
            store.snapshot()
        store.publish(np.ones((2, 2)), generation=5)
        assert not store.empty
        assert store.version == 1 and store.generation == 5

    def test_stale_generation_rejected_equal_allowed(self):
        store = make_store(np.ones((2, 2)), generation=3)
        with pytest.raises(ServingError, match="stale publish"):
            store.publish(np.ones((2, 2)), generation=2)
        # Equal generation = continued training on an unchanged graph.
        snapshot = store.publish(np.zeros((2, 2)), generation=3)
        assert snapshot.version == 2

    def test_rejects_non_matrix(self):
        store = EmbeddingStore()
        with pytest.raises(ServingError, match="2-D"):
            store.publish(np.ones(4), generation=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
    def test_non_finite_publish_keeps_the_served_version(self, rng, bad):
        """A row whose norm is not finite (NaN, inf, or squares that
        overflow) is rejected; the frontend keeps answering at the
        previous version, bit-identically to its own earlier answers."""
        matrix = rng.standard_normal((30, 4))
        store = make_store(matrix, generation=1)
        with ServingFrontend(store) as frontend:
            before = [frontend.top_k(node, 4, timeout=5.0)
                      for node in (0, 11)]
            link = frontend.score_link(0, 11, timeout=5.0)
            poisoned = rng.standard_normal((30, 4))
            poisoned[11, 3] = bad
            with pytest.raises(ServingError, match="finite: row 11"):
                store.publish(poisoned, generation=2)
            assert store.version == 1 and store.generation == 1
            for node, (ids, scores) in zip((0, 11), before):
                got_ids, got_scores = frontend.top_k(node, 4, timeout=5.0)
                assert got_ids.tobytes() == ids.tobytes()
                assert got_scores.tobytes() == scores.tobytes()
            assert frontend.score_link(0, 11, timeout=5.0) == link

    @pytest.mark.parametrize("scale, scaled", [
        (1.0, False), (2.0 ** 30, False), (1e100, True), (1e-100, True),
    ])
    def test_float32_shadow_is_scaled_into_range(self, rng, scale, scaled):
        """The shadow is the float32 rounding of ``matrix * 2**exp``,
        with ``exp`` nonzero only for catalogs float32 cannot hold as
        they are; its largest row norm then lies in [0.5, 1)."""
        matrix = rng.standard_normal((50, 6)) * scale
        snapshot = make_store(matrix).snapshot()
        assert (snapshot.shadow_exp != 0) == scaled
        assert snapshot.shadow.dtype == np.float32
        assert not snapshot.shadow.flags.writeable
        want = np.ldexp(snapshot.matrix, snapshot.shadow_exp)
        assert snapshot.shadow.tobytes() == want.astype(np.float32).tobytes()
        if scaled:
            top = np.linalg.norm(snapshot.shadow.astype(np.float64), axis=1)
            assert 0.5 <= top.max() < 1.0 + 1e-6

    def test_swap_is_atomic_under_concurrent_readers(self):
        """Readers racing publishes only ever see whole snapshots.

        Every published matrix is constant-valued, so a torn read would
        show up as a snapshot whose entries disagree with each other or
        with its precomputed norms.
        """
        store = make_store(np.zeros((50, 8)))
        stop = threading.Event()
        failures: list[str] = []

        def reader():
            while not stop.is_set():
                snapshot = store.snapshot()
                matrix = snapshot.matrix
                value = matrix[0, 0]
                if not np.all(matrix == value):
                    failures.append("torn matrix")
                expected = np.sqrt(8.0) * abs(value)
                if not np.allclose(snapshot.norms, expected):
                    failures.append("norms from a different matrix")

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        for version in range(1, 120):
            store.publish(np.full((50, 8), float(version)),
                          generation=version)
        stop.set()
        for thread in readers:
            thread.join()
        assert not failures
        assert store.version == 120

    def test_held_snapshot_stays_consistent_after_swap(self):
        store = make_store(np.full((3, 2), 1.0), generation=0)
        held = store.snapshot()
        store.publish(np.full((3, 2), 2.0), generation=1)
        # Stale-read semantics: the old reference still sees old data.
        assert np.all(held.matrix == 1.0)
        assert np.all(store.snapshot().matrix == 2.0)

    def test_wait_for_generation(self):
        store = make_store(np.ones((2, 2)), generation=0)
        assert store.wait_for_generation(0, timeout=0.1)
        assert not store.wait_for_generation(1, timeout=0.05)
        publisher = threading.Timer(
            0.05, lambda: store.publish(np.ones((2, 2)), generation=1))
        publisher.start()
        try:
            assert store.wait_for_generation(1, timeout=5.0)
        finally:
            publisher.join()

    def test_subscribe_and_publish_counter(self):
        recorder = Recorder()
        seen: list[int] = []
        with use_recorder(recorder):
            store = EmbeddingStore()
            store.subscribe(lambda snapshot: seen.append(snapshot.version))
            store.publish(np.ones((2, 2)), generation=0)
            store.publish(np.ones((2, 2)), generation=1)
        assert seen == [1, 2]
        assert recorder.counters["serving.store.publishes"] == 2
        assert recorder.gauges["serving.store.generation"] == 1

    def test_subscriber_exception_is_isolated_and_counted(self):
        """Regression: a raising subscriber used to propagate out of
        ``publish`` *after* the snapshot swap — the publisher saw a
        failure for a publish that had in fact landed, and later
        subscribers were skipped entirely."""
        recorder = Recorder()
        seen: list[int] = []

        def exploding(snapshot) -> None:
            raise RuntimeError("publish hook boom")

        with use_recorder(recorder):
            store = EmbeddingStore()
            store.subscribe(exploding)
            store.subscribe(lambda snapshot: seen.append(snapshot.version))
            snapshot = store.publish(np.ones((2, 2)), generation=0)
        assert snapshot.version == 1       # the publish itself landed
        assert seen == [1]                 # later subscribers still ran
        assert recorder.counters["serving.store.subscriber_errors"] == 1

    def test_unsubscribe(self):
        store = EmbeddingStore()
        seen: list[int] = []
        callback = lambda snapshot: seen.append(snapshot.version)  # noqa: E731
        store.subscribe(callback)
        store.publish(np.ones((2, 2)), generation=0)
        assert store.unsubscribe(callback) is True
        assert store.unsubscribe(callback) is False  # already removed
        store.publish(np.ones((2, 2)), generation=1)
        assert seen == [1]


# ---------------------------------------------------------------------------
# RecommendationIndex
# ---------------------------------------------------------------------------
class TestRecommendationIndex:
    @pytest.mark.parametrize("metric", ["dot", "cosine"])
    def test_matches_brute_force_across_blocks(self, rng, metric):
        matrix = rng.standard_normal((37, 6))
        store = make_store(matrix)
        # block_size=10 forces multiple blocks incl. a ragged last one.
        index = RecommendationIndex(store, block_size=10, metric=metric)
        for node in (0, 9, 10, 36):
            ids, scores = index.top_k(node, 5)
            expected_ids, expected_scores = brute_force_topk(
                matrix, node, 5, metric)
            np.testing.assert_array_equal(ids, expected_ids)
            np.testing.assert_allclose(scores, expected_scores)
            assert node not in ids  # self-exclusion

    def test_k_capped_at_catalog_minus_self(self, rng):
        matrix = rng.standard_normal((5, 3))
        index = RecommendationIndex(make_store(matrix))
        ids, scores = index.top_k(2, 100)
        assert len(ids) == 4 and len(scores) == 4

    def test_cache_hit_skips_gemm(self, rng):
        matrix = rng.standard_normal((30, 4))
        recorder = Recorder()
        with use_recorder(recorder):
            index = RecommendationIndex(make_store(matrix))
            cold = index.top_k(3, 5)
            gemm_after_cold = recorder.counters["serving.index.gemm_rows"]
            assert recorder.counters["serving.index.cache_misses"] == 1
            warm = index.top_k(3, 5)
            assert recorder.counters["serving.index.gemm_rows"] == (
                gemm_after_cold
            )
            assert recorder.counters["serving.index.cache_hits"] == 1
        np.testing.assert_array_equal(cold[0], warm[0])
        # Different k is a different cache entry.
        with use_recorder(recorder):
            index.top_k(3, 4)
            assert recorder.counters["serving.index.cache_misses"] == 2

    def test_cache_invalidated_by_version_bump(self, rng):
        first = rng.standard_normal((20, 4))
        second = rng.standard_normal((20, 4))
        store = make_store(first, generation=0)
        index = RecommendationIndex(store)
        index.top_k(1, 3)  # warm
        assert index.cached(1, 3) is not None
        store.publish(second, generation=1)
        # The first post-publish read drops every stale entry.
        assert index.cached(1, 3) is None
        ids, scores = index.top_k(1, 3)
        expected_ids, expected_scores = brute_force_topk(second, 1, 3)
        np.testing.assert_array_equal(ids, expected_ids)
        np.testing.assert_allclose(scores, expected_scores)

    def test_publish_racing_batch_pins_one_version(self, rng):
        """Bug: ``top_k_batch`` took one snapshot but its cache lookups
        re-fetched the *current* snapshot per request; a publish landing
        mid-batch let newer-generation cache hits mix into a batch
        whose misses were computed from the older matrix.  Fix: lookups
        are pinned to the batch's snapshot."""
        first = rng.standard_normal((20, 4))
        second = rng.standard_normal((20, 4))
        store = make_store(first, generation=0)
        index = RecommendationIndex(store)
        real_snapshot = store.snapshot
        raced = False

        def racing_snapshot():
            nonlocal raced
            snap = real_snapshot()
            if not raced:
                # A publish plus a competing reader land right after
                # the batch takes its snapshot: the reader's query
                # fills the cache at the new version.
                raced = True
                store.publish(second, generation=1)
                index.top_k(5, 3)
            return snap

        store.snapshot = racing_snapshot
        try:
            results = index.top_k_batch([(5, 3), (6, 3)])
        finally:
            store.snapshot = real_snapshot
        # Every result in the batch answers from the batch's snapshot.
        for node, (ids, scores) in zip([5, 6], results):
            expected_ids, expected_scores = brute_force_topk(first, node, 3)
            np.testing.assert_array_equal(ids, expected_ids)
            np.testing.assert_allclose(scores, expected_scores)
        # And the older-snapshot lookups did not roll the cache back:
        # the newer generation's entry is still served.
        hit = index.cached(5, 3)
        assert hit is not None
        np.testing.assert_array_equal(
            hit[0], brute_force_topk(second, 5, 3)[0]
        )

    def test_lru_eviction(self, rng):
        matrix = rng.standard_normal((20, 4))
        recorder = Recorder()
        with use_recorder(recorder):
            index = RecommendationIndex(make_store(matrix), cache_size=2)
            index.top_k(0, 3)
            index.top_k(1, 3)
            index.top_k(2, 3)  # evicts node 0
            assert len(index) == 2
            assert recorder.counters["serving.index.cache_evictions"] == 1
            assert index.cached(0, 3) is None
            assert index.cached(2, 3) is not None

    def test_batch_dedupes_repeated_nodes(self, rng):
        matrix = rng.standard_normal((25, 4))
        recorder = Recorder()
        with use_recorder(recorder):
            index = RecommendationIndex(make_store(matrix))
            results = index.top_k_batch([(7, 3), (7, 3), (8, 3)])
            assert recorder.counters["serving.index.cache_misses"] == 2
        np.testing.assert_array_equal(results[0][0], results[1][0])
        expected_ids, _ = brute_force_topk(matrix, 8, 3)
        np.testing.assert_array_equal(results[2][0], expected_ids)

    def test_validation(self, rng):
        index = RecommendationIndex(make_store(rng.standard_normal((5, 2))))
        with pytest.raises(ServingError, match="out of range"):
            index.top_k(5, 2)
        with pytest.raises(ServingError, match="k must be"):
            index.top_k(0, 0)
        with pytest.raises(ServingError, match="cache_size"):
            RecommendationIndex(EmbeddingStore(), cache_size=-1)
        with pytest.raises(ServingError, match="metric"):
            RecommendationIndex(EmbeddingStore(), metric="euclid")


class TestConcurrentScans:
    """Every exact miss scans the blocks itself, on its caller's thread.

    Each test parks one caller inside a block visit and runs a second
    caller beside it, so the overlap is fixed rather than left to
    thread timing.
    """

    @staticmethod
    def _hold_second_visit(index: RecommendationIndex,
                           fail: bool = False):
        """Record ``(thread, first id)`` per visit and park the first
        caller to visit in its second visit until the returned event is
        set; with ``fail``, that caller's third visit raises."""
        visits: list[tuple[int, int]] = []
        held, release = threading.Event(), threading.Event()
        real = index._visit

        def visit(ids_block, rows, norms, query):
            me = threading.get_ident()
            visits.append((me, int(ids_block[0])))
            owner = visits[0][0]
            mine = sum(t == owner for t, _ in visits) if me == owner else 0
            if mine == 2:
                held.set()
                assert release.wait(timeout=30.0)
            if fail and mine == 3:
                raise RuntimeError("visit failed")
            real(ids_block, rows, norms, query)

        index._visit = visit
        return visits, held, release

    def _beside_parked(self, index, first, second, fail=False):
        """Run ``second`` while ``first`` is parked in its second visit;
        returns ``(visits, second finished meanwhile, answers)``."""
        visits, held, release = self._hold_second_visit(index, fail)
        out: dict[str, object] = {}

        def run(name, query):
            try:
                out[name] = query()
            except Exception as exc:  # noqa: BLE001 - asserted below
                out[name] = exc

        parked = threading.Thread(target=run, args=("first", first))
        parked.start()
        try:
            assert held.wait(timeout=30.0)
            beside = threading.Thread(target=run, args=("second", second))
            beside.start()
            beside.join(timeout=10.0)
            finished = not beside.is_alive()
        finally:
            release.set()
        for thread in (parked, beside):
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        return visits, finished, out

    @pytest.mark.parametrize("metric", ["dot", "cosine"])
    def test_caller_does_not_wait_for_a_parked_scan(self, rng, metric):
        matrix = rng.standard_normal((300, 8))
        # Both query rows tie with a row in every block, so each scan
        # must still keep the lowest tied ids.
        matrix[::3] = matrix[200] = 10.0 * matrix[0]
        store = make_store(matrix)
        index = RecommendationIndex(store, cache_size=0, block_size=50,
                                    metric=metric)
        want = {name: index._scan_node(store.snapshot(), node, 5)
                for name, node in (("first", 3), ("second", 200))}
        assert want["second"][0].tolist() == [0, 3, 6, 9, 12]
        visits, finished, out = self._beside_parked(
            index, lambda: index.top_k(3, 5), lambda: index.top_k(200, 5))
        assert finished, "second caller waited on the parked scan"
        # Each caller visited all six blocks in order on its own thread.
        by_thread: dict[int, list[int]] = {}
        for thread, start in visits:
            by_thread.setdefault(thread, []).append(start)
        assert list(by_thread.values()) == [list(range(0, 300, 50))] * 2
        for name, (ids, scores) in want.items():
            got_ids, got_scores = out[name]
            assert got_ids.tobytes() == ids.tobytes()
            assert got_scores.tobytes() == scores.tobytes()

    def test_publish_mid_scan_each_answers_from_its_own_snapshot(self, rng):
        """A publish while a scan is parked: neither answer mixes the
        two matrices."""
        old, new = rng.standard_normal((2, 200, 6))
        store = make_store(old)
        index = RecommendationIndex(store, cache_size=0, block_size=40)
        old_snapshot = store.snapshot()
        want_old = index._scan_node(old_snapshot, 9, 4)

        def after_publish():
            store.publish(new, generation=1)
            return index.top_k(9, 4)

        _, finished, out = self._beside_parked(
            index, lambda: index.top_k(9, 4), after_publish)
        assert finished
        want_new = index._scan_node(store.snapshot(), 9, 4)
        for (ids, scores), (want_ids, want_scores) in (
                (out["first"], want_old), (out["second"], want_new)):
            assert ids.tobytes() == want_ids.tobytes()
            assert scores.tobytes() == want_scores.tobytes()

    def test_many_callers_under_fast_thread_switching(self, rng):
        """More callers than cores, switching every 10 us: every answer
        still has the oracle's bytes."""
        matrix = rng.standard_normal((400, 6))
        store = make_store(matrix)
        index = RecommendationIndex(store, cache_size=0, block_size=32,
                                    metric="cosine")
        snapshot = store.snapshot()
        clients, per_client = 6, 25
        nodes = rng.integers(0, len(matrix), size=(clients, per_client))
        answers: dict[int, list] = {}

        def client(c: int) -> None:
            answers[c] = [index.top_k(int(node), 4) for node in nodes[c]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client, args=(c,))
                       for c in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for c in range(clients):
            for node, (ids, scores) in zip(nodes[c], answers[c]):
                want_ids, want_scores = index._scan_node(
                    snapshot, int(node), 4)
                assert ids.tobytes() == want_ids.tobytes()
                assert scores.tobytes() == want_scores.tobytes()

    def test_failed_scan_fails_only_its_caller(self, rng):
        """A scan's own exception reaches its caller unwrapped; a
        concurrent caller and the next query are unaffected."""
        matrix = rng.standard_normal((120, 4))
        index = RecommendationIndex(make_store(matrix), cache_size=0,
                                    block_size=30)
        _, finished, out = self._beside_parked(
            index, lambda: index.top_k(1, 3), lambda: index.top_k(2, 3),
            fail=True)
        assert finished
        assert type(out["first"]) is RuntimeError
        for got, want in zip(out["second"], brute_force_topk(matrix, 2, 3)):
            np.testing.assert_allclose(got, want)
        del index._visit
        ids, _ = index.top_k(1, 3)
        np.testing.assert_array_equal(ids, brute_force_topk(matrix, 1, 3)[0])


# ---------------------------------------------------------------------------
# ServingFrontend + freshness end-to-end
# ---------------------------------------------------------------------------
class TestServingFrontend:
    def test_score_link_matches_dot(self, rng):
        matrix = rng.standard_normal((12, 5))
        with ServingFrontend(make_store(matrix)) as frontend:
            score = frontend.score_link(3, 7, timeout=5.0)
        assert score == pytest.approx(float(matrix[3] @ matrix[7]))

    def test_score_link_out_of_range(self, rng):
        matrix = rng.standard_normal((4, 3))
        with ServingFrontend(make_store(matrix)) as frontend:
            with pytest.raises(ServingError, match="out of range"):
                frontend.score_link(0, 4, timeout=5.0)

    def test_top_k_and_default_k(self, rng):
        matrix = rng.standard_normal((15, 4))
        config = ServingConfig(default_k=3)
        with ServingFrontend(make_store(matrix), config) as frontend:
            ids, scores = frontend.top_k(2, timeout=5.0)
            assert len(ids) == 3
            expected_ids, _ = brute_force_topk(matrix, 2, 3)
            np.testing.assert_array_equal(ids, expected_ids)

    def test_top_k_outside_lifecycle_raises_on_miss(self, rng):
        """A cache miss needs a started, open frontend; a warm hit is
        answered from the cache either way."""
        matrix = rng.standard_normal((12, 4))
        frontend = ServingFrontend(make_store(matrix))
        with pytest.raises(ServingError, match="not started"):
            frontend.top_k(0, 3)
        frontend.start()
        warm = frontend.top_k(0, 3)
        frontend.close()
        assert frontend.top_k(0, 3) is warm
        with pytest.raises(ServingError, match="closed"):
            frontend.top_k(1, 3)

    def test_score_link_lifecycle_errors(self, rng):
        """A link score needs a started, open frontend, and a closed
        frontend cannot start again."""
        matrix = rng.standard_normal((12, 4))
        frontend = ServingFrontend(make_store(matrix))
        with pytest.raises(ServingError, match="not started"):
            frontend.score_link(0, 1)
        frontend.start()
        assert frontend.score_link(0, 1) == pytest.approx(
            float(matrix[0] @ matrix[1]))
        frontend.close()
        with pytest.raises(ServingError, match="closed"):
            frontend.score_link(0, 1)
        with pytest.raises(ServingError, match="closed"):
            frontend.start()

    @pytest.mark.parametrize("metric", ["dot", "cosine"])
    def test_concurrent_top_k_bit_identical_to_oracle(self, rng, metric):
        """Client threads scanning concurrently with the cache off must
        each get the single-query oracle's ids and score bytes: no
        answer may depend on what else was in flight."""
        matrix = rng.standard_normal((300, 8))
        store = make_store(matrix)
        oracle = RecommendationIndex(store, cache_size=0, block_size=64,
                                     metric=metric)
        config = ServingConfig(cache_size=0, block_size=64, metric=metric)
        clients, per_client = 3, 40
        nodes = rng.integers(0, len(matrix), size=(clients, per_client))
        answers: dict[int, list] = {}
        start = threading.Barrier(clients)

        def client(c: int) -> None:
            start.wait(timeout=30.0)
            answers[c] = [frontend.top_k(int(node), 7) for node in nodes[c]]

        with ServingFrontend(store, config) as frontend:
            threads = [threading.Thread(target=client, args=(c,))
                       for c in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
        for c in range(clients):
            assert len(answers[c]) == per_client
            for node, (ids, scores) in zip(nodes[c], answers[c]):
                want_ids, want_scores = oracle.top_k(int(node), 7)
                assert ids.tobytes() == want_ids.tobytes()
                assert scores.tobytes() == want_scores.tobytes()

    def test_config_validation(self):
        with pytest.raises(ServingError, match="default_k"):
            ServingConfig(default_k=0)
        with pytest.raises(ServingError, match="metric"):
            ServingConfig(metric="hamming")

    def test_no_stale_topk_after_append_and_publish(self, rng):
        """The ISSUE freshness contract, end to end.

        Warm the top-k cache on generation 0, append an edge batch,
        run the incremental update (which publishes), and verify the
        next top-k reflects the new snapshot — never the cached one.
        """
        src = rng.integers(0, 30, size=200)
        dst = rng.integers(0, 30, size=200)
        ts = np.sort(rng.random(200))
        edges = TemporalEdgeList(src[:150], dst[:150], ts[:150],
                                 num_nodes=30)
        batch = TemporalEdgeList(src[150:], dst[150:], ts[150:],
                                 num_nodes=30)
        dynamic = DynamicTemporalGraph(edges)
        store = EmbeddingStore()
        embedder = IncrementalEmbedder(
            dynamic,
            walk_config=WalkConfig(num_walks_per_node=2, max_walk_length=4),
            sgns_config=SgnsConfig(dim=4, epochs=1),
            seed=11,
            store=store,
        )
        embedder.rebuild()
        with ServingFrontend(store) as frontend:
            stale_ids, stale_scores = frontend.top_k(0, 5, timeout=5.0)
            assert frontend.index.cached(0, 5) is not None
            version_before = store.version

            dynamic.append(batch)
            embedder.update()  # publishes the post-append snapshot

            assert store.version > version_before
            assert store.generation == dynamic.generation == 1
            fresh_ids, fresh_scores = frontend.top_k(0, 5, timeout=5.0)
            expected_ids, expected_scores = brute_force_topk(
                np.asarray(store.snapshot().matrix), 0, 5)
            np.testing.assert_array_equal(fresh_ids, expected_ids)
            np.testing.assert_allclose(fresh_scores, expected_scores)

    def test_concurrent_load_and_metric_presence(self, rng):
        matrix = rng.standard_normal((60, 6))
        recorder = Recorder()
        with use_recorder(recorder):
            with ServingFrontend(make_store(matrix)) as frontend:
                report = run_load(frontend, num_requests=400, clients=4,
                                  topk_fraction=0.5, k=5, seed=3)
        assert report.requests >= 400
        assert report.errors == 0
        assert report.score_requests + report.topk_requests == (
            report.requests
        )
        assert report.qps > 0 and report.p99_ms >= report.p50_ms >= 0
        # The documented metric catalog actually shows up under load.
        for counter in ("serving.requests.score", "serving.requests.topk",
                        "serving.index.cache_misses",
                        "serving.index.gemm_rows",
                        "serving.store.publishes"):
            assert recorder.counters.get(counter, 0) > 0, counter
        for histogram in ("serving.latency.score_s",
                          "serving.latency.topk_s"):
            assert recorder.histograms[histogram].count > 0, histogram
        assert report.as_row()["errors"] == 0

    def test_run_load_validation(self, rng):
        matrix = rng.standard_normal((5, 2))
        with ServingFrontend(make_store(matrix)) as frontend:
            with pytest.raises(ServingError, match="num_requests"):
                run_load(frontend, num_requests=0)
            with pytest.raises(ServingError, match="clients"):
                run_load(frontend, clients=0)
            with pytest.raises(ServingError, match="topk_fraction"):
                run_load(frontend, topk_fraction=1.5)

    def test_run_load_issues_exactly_num_requests(self, rng):
        """Regression: every client tape was rounded up to
        ``ceil(num_requests / clients)``, so 10 requests over 4 clients
        issued 12.  The remainder must spread one request each over the
        first few clients instead."""
        matrix = rng.standard_normal((20, 4))
        with ServingFrontend(make_store(matrix)) as frontend:
            report = run_load(frontend, num_requests=10, clients=4,
                              topk_fraction=0.5, k=3, seed=0)
        assert report.requests == 10
        assert report.score_requests + report.topk_requests == 10

    def test_run_load_clean_run_emits_no_error_counter(self, rng):
        """Regression: the error counter was guarded with ``if errors:``
        on a ``[0] * clients`` list — always truthy — so every clean
        run exported a spurious ``loadgen.errors = 0``."""
        matrix = rng.standard_normal((20, 4))
        recorder = Recorder()
        with use_recorder(recorder):
            with ServingFrontend(make_store(matrix)) as frontend:
                report = run_load(frontend, num_requests=20, clients=3,
                                  topk_fraction=0.5, k=3, seed=0)
        assert report.errors == 0
        assert "loadgen.errors" not in recorder.counters

    def test_run_load_counts_errors_when_requests_fail(self):
        """The guard must not eat *real* errors: a frontend that always
        raises ServingError yields errors == requests and the counter."""

        class ExplodingFrontend:
            num_nodes = 10

            def top_k(self, node, k=None):
                raise ServingError("boom")

            def score_link(self, src, dst):
                raise ServingError("boom")

        recorder = Recorder()
        with use_recorder(recorder):
            report = run_load(ExplodingFrontend(), num_requests=9,
                              clients=2, topk_fraction=0.5, seed=0)
        assert report.requests == 9
        assert report.errors == 9
        assert recorder.counters["loadgen.errors"] == 9
