"""Tests for the sharded scatter/gather serving tier
(:mod:`repro.serving.sharding`).

The load-bearing contracts, each pinned here against the only ground
truth that matters — the single-process serving stack:

- **oracle bit-identicality**: ``ShardedFrontend.top_k`` returns the
  same ids, the same score *bits*, and the same lower-id tie-breaks as
  a :class:`~repro.serving.index.RecommendationIndex` over the
  unsharded matrix, for every plan strategy and shard count tested
  (including duplicate-row tie pileups and per-shard IVF at full
  probe), and ``score_link`` the same bits as the in-process frontend
  and a one-row einsum;
- **version atomicity**: with publishes racing a reader, every gather
  matches exactly one published matrix's oracle — a response mixing two
  versions across shards is impossible by construction;
- **degraded reads**: killing a worker leaves the tier answering from
  the surviving shards (the oracle restricted to surviving rows), with
  ``serving.shard.degraded_queries`` counting every partial gather.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.errors import ServingError
from repro.observability import Recorder, use_recorder
from repro.serving import (
    EmbeddingStore,
    IvfConfig,
    RecommendationIndex,
    ShardPlan,
    ShardedFrontend,
    ShardedPublisher,
    ShardedServingConfig,
    ServingFrontend,
    run_load,
)

pytestmark = pytest.mark.shards


def make_store(matrix: np.ndarray, generation: int = 0) -> EmbeddingStore:
    store = EmbeddingStore()
    store.publish(matrix, generation=generation)
    return store


def oracle_for(matrix: np.ndarray, metric: str = "dot",
               generation: int = 0) -> RecommendationIndex:
    return RecommendationIndex(make_store(matrix, generation),
                               cache_size=0, metric=metric)


def sharded(plan: ShardPlan, store: EmbeddingStore,
            config: ShardedServingConfig | None = None) -> ShardedFrontend:
    frontend = ShardedFrontend(plan, config).start()
    ShardedPublisher(frontend).attach(store)
    return frontend


class TestShardPlan:
    def test_hash_and_range_partition_the_id_space(self):
        for strategy in ("hash", "range"):
            plan = ShardPlan(4, strategy)
            owned = [plan.owned_ids(s, 1000) for s in range(4)]
            joined = np.concatenate(owned)
            np.testing.assert_array_equal(np.sort(joined), np.arange(1000))
            for shard, ids in enumerate(owned):
                # owned_ids ascending is what makes local row order
                # equal global id order (the tie-break transport).
                assert np.all(np.diff(ids) > 0) or len(ids) < 2
                np.testing.assert_array_equal(
                    plan.shard_of_many(ids, 1000), shard)

    def test_range_plan_rebalances_with_node_growth(self):
        plan = ShardPlan(3, "range")
        small = [len(plan.owned_ids(s, 90)) for s in range(3)]
        grown = [len(plan.owned_ids(s, 900)) for s in range(3)]
        assert small == [30, 30, 30]
        assert grown == [300, 300, 300]

    def test_hash_assignment_is_stable_under_growth(self):
        plan = ShardPlan(4, "hash")
        before = plan.shard_of_many(np.arange(100), 100)
        after = plan.shard_of_many(np.arange(100), 10_000)
        np.testing.assert_array_equal(before, after)

    def test_rejects_bad_plans(self):
        with pytest.raises(ServingError):
            ShardPlan(0, "hash")
        with pytest.raises(ServingError):
            ShardPlan(2, "modulo")
        with pytest.raises(ServingError):
            ShardPlan(2, "hash").owned_ids(2, 10)


class TestOracleBitIdenticality:
    @pytest.mark.parametrize("strategy", ["hash", "range"])
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 5])
    def test_topk_matches_single_process_oracle(self, strategy, num_shards):
        rng = np.random.default_rng(11)
        matrix = rng.standard_normal((157, 12))
        oracle = oracle_for(matrix)
        plan = ShardPlan(num_shards, strategy)
        with sharded(plan, make_store(matrix)) as frontend:
            for node in (0, 1, 78, 155, 156):
                ids, scores = frontend.top_k(node, 13)
                expected_ids, expected_scores = oracle.top_k(node, 13)
                np.testing.assert_array_equal(ids, expected_ids)
                # Bitwise, not allclose: the shard slices must score
                # exactly like the full-matrix scan.
                np.testing.assert_array_equal(scores, expected_scores)

    @pytest.mark.parametrize("strategy", ["hash", "range"])
    def test_cosine_metric_matches_oracle(self, strategy):
        rng = np.random.default_rng(5)
        matrix = rng.standard_normal((90, 6))
        matrix[17] = 0.0  # zero row: the norm-guard path
        oracle = oracle_for(matrix, metric="cosine")
        plan = ShardPlan(3, strategy)
        config = ShardedServingConfig(metric="cosine")
        with sharded(plan, make_store(matrix), config) as frontend:
            for node in (0, 17, 89):
                ids, scores = frontend.top_k(node, 7)
                expected_ids, expected_scores = oracle.top_k(node, 7)
                np.testing.assert_array_equal(ids, expected_ids)
                np.testing.assert_array_equal(scores, expected_scores)

    @pytest.mark.parametrize("strategy", ["hash", "range"])
    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_duplicate_row_ties_break_by_global_id(self, strategy,
                                                   num_shards):
        """Duplicate rows land on *different* shards; the merge must
        still admit exactly the lowest-global-id ties the oracle does.
        """
        rng = np.random.default_rng(7)
        prototypes = rng.standard_normal((4, 5))
        matrix = prototypes[rng.integers(0, 4, size=120)]
        oracle = oracle_for(matrix)
        plan = ShardPlan(num_shards, strategy)
        with sharded(plan, make_store(matrix)) as frontend:
            for node in (0, 11, 64, 119):
                ids, scores = frontend.top_k(node, 30)
                expected_ids, expected_scores = oracle.top_k(node, 30)
                np.testing.assert_array_equal(ids, expected_ids)
                np.testing.assert_array_equal(scores, expected_scores)

    def test_k_larger_than_store_clamps_like_oracle(self):
        rng = np.random.default_rng(3)
        matrix = rng.standard_normal((9, 4))
        oracle = oracle_for(matrix)
        with sharded(ShardPlan(4, "hash"), make_store(matrix)) as frontend:
            ids, scores = frontend.top_k(2, 50)
            expected_ids, expected_scores = oracle.top_k(2, 50)
            assert len(ids) == 8  # n - 1: self excluded
            np.testing.assert_array_equal(ids, expected_ids)
            np.testing.assert_array_equal(scores, expected_scores)

    def test_empty_shards_are_harmless(self):
        # 3 nodes over 5 shards: at least two range shards own nothing.
        rng = np.random.default_rng(4)
        matrix = rng.standard_normal((3, 4))
        oracle = oracle_for(matrix)
        with sharded(ShardPlan(5, "range"), make_store(matrix)) as frontend:
            for node in range(3):
                ids, scores = frontend.top_k(node, 2)
                expected_ids, expected_scores = oracle.top_k(node, 2)
                np.testing.assert_array_equal(ids, expected_ids)
                np.testing.assert_array_equal(scores, expected_scores)

    def test_per_shard_ivf_full_probe_matches_oracle(self):
        rng = np.random.default_rng(9)
        matrix = rng.standard_normal((600, 8))
        oracle = oracle_for(matrix)
        config = ShardedServingConfig(
            index="ivf",
            ann=IvfConfig(nlist=6, nprobe=6, min_index_nodes=32),
        )
        with sharded(ShardPlan(3, "range"), make_store(matrix),
                     config) as frontend:
            for node in (0, 299, 599):
                ids, scores = frontend.top_k(node, 10)
                expected_ids, expected_scores = oracle.top_k(node, 10)
                np.testing.assert_array_equal(ids, expected_ids)
                np.testing.assert_array_equal(scores, expected_scores)

    def test_per_shard_ivf_k_covering_a_remote_slice_matches_oracle(self):
        """A shard answering a remote query (its rows exclude nothing)
        needs ``min(k, n)`` results, not ``min(k, n - 1)``.  One row per
        cell with all but one cell probed leaves ``n - 1`` candidates:
        too few for ``k >= n``, so the shard must fall back to its
        exact scan instead of answering one row short."""
        rng = np.random.default_rng(15)
        matrix = rng.standard_normal((40, 6))
        oracle = oracle_for(matrix)
        config = ShardedServingConfig(
            index="ivf", cache_size=0,
            ann=IvfConfig(nlist=20, nprobe=19, train_iters=0,
                          min_index_nodes=1),
        )
        plan = ShardPlan(2, "range")
        assert len(plan.owned_ids(0, 40)) == 20
        with sharded(plan, make_store(matrix), config) as frontend:
            for node in (30, 39):  # owned by shard 1: remote to shard 0
                for k in (20, 39):
                    ids, scores = frontend.top_k(node, k)
                    expected_ids, expected_scores = oracle.top_k(node, k)
                    assert ids.tobytes() == expected_ids.tobytes()
                    assert scores.tobytes() == expected_scores.tobytes()
            counters = frontend.worker_metrics()["counters"]
        assert counters[
            "serving.ann.fallbacks.insufficient_candidates"] >= 4

    def test_per_shard_ivf_small_probe_is_well_formed(self):
        rng = np.random.default_rng(10)
        matrix = rng.standard_normal((800, 8))
        config = ShardedServingConfig(
            index="ivf",
            ann=IvfConfig(nlist=16, nprobe=3, min_index_nodes=32),
        )
        with sharded(ShardPlan(4, "hash"), make_store(matrix),
                     config) as frontend:
            ids, scores = frontend.top_k(42, 10)
            assert len(ids) == 10
            assert len(np.unique(ids)) == 10
            assert 42 not in ids
            assert np.all(np.diff(scores) <= 0)

    def test_score_link_matches_oracle_same_and_cross_shard(self):
        rng = np.random.default_rng(12)
        matrix = rng.standard_normal((64, 8))
        plan = ShardPlan(4, "range")
        with sharded(plan, make_store(matrix)) as frontend:
            pairs = [(0, 1),      # co-located on shard 0
                     (0, 63),     # cross-shard
                     (40, 40)]    # self-pair
            for src, dst in pairs:
                expected = float(np.einsum(
                    "bd,bd->b", matrix[src][None, :],
                    matrix[dst][None, :])[0])
                assert frontend.score_link(src, dst) == expected

    def test_score_link_bytes_match_in_process_and_einsum(self):
        """The in-process frontend, the router and a test-side one-row
        einsum give the same score bits, serially and from three
        concurrent client threads."""
        rng = np.random.default_rng(14)
        matrix = rng.standard_normal((200, 16))
        store = make_store(matrix)
        clients = 3
        pairs = rng.integers(0, len(matrix), size=(clients, 50, 2))
        answers: dict[int, list] = {}
        start = threading.Barrier(clients)

        def client(c: int) -> None:
            start.wait(timeout=30.0)
            answers[c] = [(inproc.score_link(src, dst),
                           router.score_link(src, dst))
                          for src, dst in pairs[c]]

        with ServingFrontend(store) as inproc, \
                sharded(ShardPlan(2, "hash"), store) as router:
            serial = [(inproc.score_link(src, dst),
                       router.score_link(src, dst))
                      for src, dst in pairs.reshape(-1, 2)]
            threads = [threading.Thread(target=client, args=(c,))
                       for c in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
        concurrent = [a for c in range(clients) for a in answers[c]]
        for answered in (serial, concurrent):
            for (src, dst), scores in zip(pairs.reshape(-1, 2), answered):
                want = np.einsum("bd,bd->b", matrix[src][None],
                                 matrix[dst][None])[0].tobytes()
                for score in scores:
                    assert np.float64(score).tobytes() == want

    def test_worker_lru_serves_identical_repeats(self):
        rng = np.random.default_rng(13)
        matrix = rng.standard_normal((100, 8))
        recorder = Recorder()
        with use_recorder(recorder):
            with sharded(ShardPlan(2, "hash"), make_store(matrix),
                         ShardedServingConfig(cache_size=16)) as frontend:
                first = frontend.top_k(7, 5)
                second = frontend.top_k(7, 5)
                np.testing.assert_array_equal(first[0], second[0])
                np.testing.assert_array_equal(first[1], second[1])
        assert recorder.counters.get("serving.shard.cache_hits", 0) >= 1


class TestVersionAtomicity:
    def test_publish_bumps_version_and_serves_new_matrix(self):
        rng = np.random.default_rng(20)
        first = rng.standard_normal((50, 6))
        second = rng.standard_normal((80, 6))
        frontend = ShardedFrontend(ShardPlan(3, "hash")).start()
        with frontend:
            publisher = ShardedPublisher(frontend)
            assert frontend.version == 0
            with pytest.raises(ServingError):
                frontend.top_k(0, 3)  # nothing published yet
            assert publisher.publish(first, generation=1) == 1
            assert frontend.num_nodes == 50
            assert publisher.publish(second, generation=2) == 2
            assert (frontend.version, frontend.generation) == (2, 2)
            oracle = oracle_for(second)
            ids, scores = frontend.top_k(79, 5)
            expected_ids, expected_scores = oracle.top_k(79, 5)
            np.testing.assert_array_equal(ids, expected_ids)
            np.testing.assert_array_equal(scores, expected_scores)

    def test_stale_generation_publish_is_rejected(self):
        rng = np.random.default_rng(21)
        with ShardedFrontend(ShardPlan(2, "hash")).start() as frontend:
            publisher = ShardedPublisher(frontend)
            publisher.publish(rng.standard_normal((10, 4)), generation=5)
            with pytest.raises(ServingError):
                publisher.publish(rng.standard_normal((10, 4)),
                                  generation=4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_non_finite_publish_is_rejected_before_any_install(self, bad):
        """A row whose norm is not finite (NaN, inf, or squares that
        overflow) is refused before a worker sees it: the workers'
        install count does not move, and the tier keeps answering at
        the previous version, bit-identically to its oracle."""
        rng = np.random.default_rng(22)
        matrix = rng.standard_normal((40, 4))
        oracle = oracle_for(matrix)
        with ShardedFrontend(ShardPlan(2, "hash")).start() as frontend:
            publisher = ShardedPublisher(frontend)
            version = publisher.publish(matrix, generation=1)
            installs = frontend.worker_metrics()["counters"][
                "serving.store.publishes"]
            poisoned = rng.standard_normal((40, 4))
            poisoned[17, 2] = bad
            with pytest.raises(ServingError, match="finite: row 17"):
                publisher.publish(poisoned, generation=2)
            assert frontend.version == version
            assert frontend.generation == 1
            assert frontend.worker_metrics()["counters"][
                "serving.store.publishes"] == installs
            for node in (0, 17, 39):
                ids, scores = frontend.top_k(node, 5)
                want_ids, want_scores = oracle.top_k(node, 5)
                assert ids.tobytes() == want_ids.tobytes()
                assert scores.tobytes() == want_scores.tobytes()

    def test_publish_freezes_a_writeable_caller_buffer(self):
        rng = np.random.default_rng(23)
        matrix = rng.standard_normal((60, 4))
        published = matrix.copy()
        oracle = oracle_for(published)
        plan = ShardPlan(2, "range")
        with ShardedFrontend(plan).start() as frontend:
            ShardedPublisher(frontend).publish(matrix, generation=1)
            # The caller reuses its buffer after the publish returned;
            # respawn and rebalance must still install the published
            # rows, and the router must still answer from them.
            matrix[:] = rng.standard_normal(matrix.shape)
            frontend.kill_replica(1, 0)
            assert frontend.respawn_replica(1, 0)
            for _ in range(2):
                for node in (0, 59):
                    ids, scores = frontend.top_k(node, 5)
                    expected_ids, expected_scores = oracle.top_k(node, 5)
                    np.testing.assert_array_equal(ids, expected_ids)
                    np.testing.assert_array_equal(scores, expected_scores)
                assert frontend.score_link(0, 59) == float(np.einsum(
                    "bd,bd->b", published[0][None, :],
                    published[59][None, :])[0])
                frontend.rebalance(ShardPlan(3, "hash"))

    def test_no_query_observes_mixed_versions(self):
        """Racing publisher: every gather equals exactly one version's
        oracle.  Version-v matrices are constant rank vectors, so any
        cross-version mix would surface as a score set drawn from two
        different constants."""
        num_nodes, dim, k = 60, 4, 8
        matrices = []
        for v in range(1, 7):
            matrix = np.full((num_nodes, dim), float(v))
            # Distinct per-row magnitudes keep the per-version oracle
            # ordering interesting while scores stay version-tagged.
            matrix *= (1.0 + np.arange(num_nodes) / num_nodes)[:, None]
            matrices.append(matrix)
        oracles = [oracle_for(matrix) for matrix in matrices]
        expected = {}
        for version, oracle in enumerate(oracles, start=1):
            for node in range(num_nodes):
                ids, scores = oracle.top_k(node, k)
                expected[(version, node)] = (ids, scores)

        frontend = ShardedFrontend(
            ShardPlan(3, "hash"),
            ShardedServingConfig(cache_size=0),
        ).start()
        with frontend:
            publisher = ShardedPublisher(frontend)
            publisher.publish(matrices[0], generation=0)
            mismatches: list[tuple] = []
            stop = threading.Event()

            def reader() -> None:
                rng = np.random.default_rng(99)
                while not stop.is_set():
                    node = int(rng.integers(0, num_nodes))
                    try:
                        ids, scores = frontend.top_k(node, k)
                    except ServingError:
                        # Versions churned past the one stale retry —
                        # an availability miss, never a mixed read.
                        continue
                    for version in range(1, len(matrices) + 1):
                        exp_ids, exp_scores = expected[(version, node)]
                        if (np.array_equal(ids, exp_ids)
                                and np.array_equal(scores, exp_scores)):
                            break
                    else:
                        mismatches.append((node, ids, scores))

            threads = [threading.Thread(target=reader) for _ in range(3)]
            for thread in threads:
                thread.start()
            for version in range(2, len(matrices) + 1):
                publisher.publish(matrices[version - 1], generation=0)
            stop.set()
            for thread in threads:
                thread.join()
            assert not mismatches, mismatches[:3]

    def test_publisher_attach_and_detach(self):
        rng = np.random.default_rng(22)
        store = make_store(rng.standard_normal((30, 4)), generation=1)
        with ShardedFrontend(ShardPlan(2, "range")).start() as frontend:
            publisher = ShardedPublisher(frontend)
            publisher.attach(store)  # warm store: published immediately
            assert frontend.num_nodes == 30
            store.publish(rng.standard_normal((40, 4)), generation=2)
            assert frontend.num_nodes == 40  # fan-out through subscribe
            publisher.detach()
            store.publish(rng.standard_normal((50, 4)), generation=3)
            assert frontend.num_nodes == 40  # detached: no fan-out


class TestDegradedMode:
    def test_killed_shard_serves_surviving_slices(self):
        rng = np.random.default_rng(30)
        matrix = rng.standard_normal((120, 8))
        plan = ShardPlan(3, "range")
        recorder = Recorder()
        with use_recorder(recorder):
            with sharded(plan, make_store(matrix)) as frontend:
                frontend.kill_shard(1)
                assert frontend.alive_shards == 2
                surviving = np.concatenate([
                    plan.owned_ids(0, 120), plan.owned_ids(2, 120),
                ])
                # The oracle restricted to surviving rows: reindex the
                # surviving slice, then translate back to global ids.
                oracle = oracle_for(matrix[surviving])
                query = 0  # owned by live shard 0
                local_query = int(np.searchsorted(surviving, query))
                ids, scores = frontend.top_k(query, 10)
                exp_local, exp_scores = oracle.top_k(local_query, 10)
                np.testing.assert_array_equal(ids, surviving[exp_local])
                np.testing.assert_array_equal(scores, exp_scores)
        assert recorder.counters.get(
            "serving.shard.degraded_queries", 0) >= 1

    def test_query_owned_by_dead_shard_degrades(self):
        rng = np.random.default_rng(31)
        matrix = rng.standard_normal((60, 4))
        plan = ShardPlan(3, "range")
        recorder = Recorder()
        with use_recorder(recorder):
            with sharded(plan, make_store(matrix)) as frontend:
                frontend.kill_shard(1)
                dead_node = int(plan.owned_ids(1, 60)[0])
                # The router holds the query row, so the surviving
                # shards still answer: the oracle scans the surviving
                # rows with the dead node's vector.
                surviving = np.concatenate([
                    plan.owned_ids(0, 60), plan.owned_ids(2, 60),
                ])
                oracle = oracle_for(matrix[surviving])
                ids, scores = frontend.top_k(dead_node, 5)
                exp_local, exp_scores = oracle.top_k_vector(
                    matrix[dead_node], 5)
                np.testing.assert_array_equal(ids, surviving[exp_local])
                np.testing.assert_array_equal(scores, exp_scores)
        assert recorder.counters.get(
            "serving.shard.degraded_queries", 0) == 1

    def test_score_link_falls_back_to_peer_shard(self):
        rng = np.random.default_rng(32)
        matrix = rng.standard_normal((60, 4))
        plan = ShardPlan(3, "range")
        with sharded(plan, make_store(matrix)) as frontend:
            frontend.kill_shard(0)
            frontend.kill_shard(2)
            # Both owning shards are dead; the router scores from the
            # matrix it holds, bit-identical to the single-process
            # frontend's einsum.
            for src, dst in ((int(plan.owned_ids(0, 60)[0]),
                              int(plan.owned_ids(2, 60)[0])),
                             (int(plan.owned_ids(1, 60)[0]),
                              int(plan.owned_ids(2, 60)[1]))):
                expected = float(np.einsum(
                    "bd,bd->b", matrix[src][None, :],
                    matrix[dst][None, :])[0])
                assert frontend.score_link(src, dst) == expected

    def test_publish_with_dead_shard_keeps_tier_live(self):
        rng = np.random.default_rng(33)
        plan = ShardPlan(3, "range")
        with ShardedFrontend(plan).start() as frontend:
            publisher = ShardedPublisher(frontend)
            publisher.publish(rng.standard_normal((30, 4)), generation=1)
            frontend.kill_shard(2)
            publisher.publish(rng.standard_normal((45, 4)), generation=2)
            assert frontend.num_nodes == 45
            live_node = int(plan.owned_ids(0, 45)[0])
            ids, _scores = frontend.top_k(live_node, 5)
            assert len(ids) == 5


class TestLoadAndMetrics:
    def test_run_load_over_sharded_frontend(self):
        rng = np.random.default_rng(40)
        matrix = rng.standard_normal((200, 8))
        recorder = Recorder()
        with use_recorder(recorder):
            with sharded(ShardPlan(2, "hash"),
                         make_store(matrix)) as frontend:
                report = run_load(frontend, num_requests=60, clients=4,
                                  topk_fraction=0.5, k=5, seed=1)
        assert report.requests == 60
        assert report.errors == 0
        counters = recorder.counters
        assert counters.get("serving.shard.requests.topk", 0) > 0
        assert counters.get("serving.shard.requests.score", 0) > 0
        assert counters.get("serving.shard.0.requests", 0) > 0
        assert counters.get("serving.shard.1.requests", 0) > 0
        assert counters.get("serving.shard.degraded_queries", 0) == 0
        fanin = recorder.histograms["serving.shard.gather_fanin"]
        assert fanin.count > 0 and fanin.mean == 2.0
        assert "serving.shard.router_overhead_s" in recorder.histograms
        assert counters.get("serving.shard.publishes", 0) == 1

    def test_config_validation(self):
        with pytest.raises(ServingError):
            ShardedServingConfig(default_k=0)
        with pytest.raises(ServingError):
            ShardedServingConfig(metric="euclid")
        with pytest.raises(ServingError):
            ShardedServingConfig(index="lsh")
        with pytest.raises(ServingError):
            ShardedServingConfig(keep_versions=0)
        with pytest.raises(ServingError):
            ShardedServingConfig(request_timeout=0.0)

    def test_publish_requires_started_frontend(self):
        frontend = ShardedFrontend(ShardPlan(2, "hash"))
        publisher = ShardedPublisher(frontend)
        with pytest.raises(ServingError):
            publisher.publish(np.ones((4, 2)))
