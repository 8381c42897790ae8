"""Tests for shard replication, failover, and live rebalancing
(:mod:`repro.serving.sharding`, PR 9).

The contracts pinned here, each against the single-process oracle:

- **replica failover**: with ``replication_factor=2``, killing one
  replica of *every* shard — before a query or between routing and
  reply — yields bit-identical top-k/score results with
  ``serving.shard.degraded_queries == 0``;
- **degraded-path metrics**: with no surviving sibling a mid-gather
  death is counted once as a gather drop *and* once as a degraded
  query, while a dead-then-irrelevant replica inflates neither;
- **live rebalance**: :meth:`ShardedFrontend.rebalance` migrates
  between plans under closed-loop load with zero query errors and zero
  mixed-plan responses (every response matches the oracle bit for
  bit), and publishes keep working across the flip;
- **close**: ``close()`` stops hung workers concurrently and joins
  receiver threads; queries on a closed frontend raise at once.
"""

from __future__ import annotations

import os
import signal
import threading
import time

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
    run_load,
)

pytestmark = pytest.mark.shards


def make_store(matrix: np.ndarray, generation: int = 0) -> EmbeddingStore:
    store = EmbeddingStore()
    store.publish(matrix, generation=generation)
    return store


def oracle_for(matrix: np.ndarray) -> RecommendationIndex:
    return RecommendationIndex(make_store(matrix), cache_size=0)


def sharded(plan: ShardPlan, store: EmbeddingStore,
            config: ShardedServingConfig | None = None) -> ShardedFrontend:
    frontend = ShardedFrontend(plan, config).start()
    ShardedPublisher(frontend).attach(store)
    return frontend


def einsum_score(a: np.ndarray, b: np.ndarray) -> float:
    """The router's scoring kernel (einsum, bitwise-commutative) — the
    oracle for score_link; BLAS ``@`` can differ in the last ulp."""
    return float(np.einsum("bd,bd->b", a[None, :], b[None, :])[0])


def kill_on(client, op: str):
    """Patch ``client`` so its next ``op`` request kills the worker
    first and then issues the doomed request — the death lands
    deterministically between routing (the router picked this replica
    while it was alive) and the reply, the window an up-front-only
    liveness check misses."""
    original = client.request_async

    def dying_request(request_op, payload):
        if request_op == op:
            client.kill()
        return original(request_op, payload)

    client.request_async = dying_request
    return client


class TestReplicaFailover:
    def test_kill_one_replica_of_every_shard_bit_identical(self):
        rng = np.random.default_rng(50)
        matrix = rng.standard_normal((143, 8))
        oracle = oracle_for(matrix)
        plan = ShardPlan(3, "hash")
        config = ShardedServingConfig(replication_factor=2, cache_size=0)
        recorder = Recorder()
        with use_recorder(recorder):
            with sharded(plan, make_store(matrix), config) as frontend:
                for shard in range(plan.num_shards):
                    frontend.kill_replica(shard, 0)
                assert frontend.alive_shards == 3
                assert frontend.alive_workers == 3
                for node in (0, 7, 71, 141, 142):
                    ids, scores = frontend.top_k(node, 11)
                    exp_ids, exp_scores = oracle.top_k(node, 11)
                    np.testing.assert_array_equal(ids, exp_ids)
                    np.testing.assert_array_equal(scores, exp_scores)
                src, dst = 3, 99
                assert (frontend.score_link(src, dst)
                        == einsum_score(matrix[src], matrix[dst]))
        counters = recorder.counters
        assert counters.get("serving.shard.degraded_queries", 0) == 0
        assert counters.get("serving.shard.gather_drops", 0) == 0

    def test_round_robin_spreads_reads_across_replicas(self):
        rng = np.random.default_rng(51)
        matrix = rng.standard_normal((80, 6))
        # Hash plan: query ownership alternates pseudo-randomly, so the
        # per-query vector fetch can't phase-lock the scatter's
        # round-robin cursor onto one replica.
        plan = ShardPlan(2, "hash")
        config = ShardedServingConfig(replication_factor=2, cache_size=0)
        recorder = Recorder()
        with use_recorder(recorder):
            with sharded(plan, make_store(matrix), config) as frontend:
                for node in range(20):
                    frontend.top_k(node, 5)
        counters = recorder.counters
        for shard in range(2):
            for replica in range(2):
                key = f"serving.shard.{shard}.replica.{replica}.requests"
                assert counters.get(key, 0) > 0, key

    def test_mid_gather_death_fails_over_to_sibling(self):
        rng = np.random.default_rng(52)
        matrix = rng.standard_normal((90, 6))
        oracle = oracle_for(matrix)
        plan = ShardPlan(2, "range")
        config = ShardedServingConfig(replication_factor=2, cache_size=0)
        recorder = Recorder()
        with use_recorder(recorder):
            with sharded(plan, make_store(matrix), config) as frontend:
                # Replica 0 of shard 1 dies after the topk scatter
                # reaches it; the router must re-issue to replica 1.
                kill_on(frontend._table.groups[1][0], "topk")
                ids, scores = frontend.top_k(0, 9)
                exp_ids, exp_scores = oracle.top_k(0, 9)
                np.testing.assert_array_equal(ids, exp_ids)
                np.testing.assert_array_equal(scores, exp_scores)
        counters = recorder.counters
        assert counters.get("serving.shard.replica.failovers", 0) >= 1
        assert counters.get("serving.shard.degraded_queries", 0) == 0
        assert counters.get("serving.shard.gather_drops", 0) == 0


class TestDegradedPathMetrics:
    def test_mid_gather_death_without_sibling_degrades_once(self):
        rng = np.random.default_rng(53)
        matrix = rng.standard_normal((120, 8))
        plan = ShardPlan(3, "range")
        recorder = Recorder()
        with use_recorder(recorder):
            with sharded(plan, make_store(matrix),
                         ShardedServingConfig(cache_size=0)) as frontend:
                kill_on(frontend._table.groups[1][0], "topk")
                query = 0  # owned by shard 0: the vector fetch survives
                ids, scores = frontend.top_k(query, 10)
                surviving = np.concatenate([
                    plan.owned_ids(0, 120), plan.owned_ids(2, 120),
                ])
                oracle = oracle_for(matrix[surviving])
                local_query = int(np.searchsorted(surviving, query))
                exp_local, exp_scores = oracle.top_k(local_query, 10)
                np.testing.assert_array_equal(ids, surviving[exp_local])
                np.testing.assert_array_equal(scores, exp_scores)
        counters = recorder.counters
        assert counters.get("serving.shard.gather_drops", 0) == 1
        assert counters.get("serving.shard.degraded_queries", 0) == 1

    def test_dead_but_irrelevant_replica_does_not_inflate_degraded(self):
        rng = np.random.default_rng(54)
        matrix = rng.standard_normal((100, 6))
        plan = ShardPlan(2, "hash")
        config = ShardedServingConfig(replication_factor=2, cache_size=0)
        recorder = Recorder()
        with use_recorder(recorder):
            with sharded(plan, make_store(matrix), config) as frontend:
                frontend.kill_replica(0, 1)
                for node in range(15):
                    frontend.top_k(node, 5)
        counters = recorder.counters
        # Every gather still answered from all shards: the dead
        # replica's sibling covered it, so nothing degraded and
        # nothing dropped.
        assert counters.get("serving.shard.degraded_queries", 0) == 0
        assert counters.get("serving.shard.gather_drops", 0) == 0
        fanin = recorder.histograms["serving.shard.gather_fanin"]
        assert fanin.mean == 2.0


class TestConcurrentClose:
    def test_close_with_hung_workers_is_concurrent_and_joins_receivers(
            self):
        rng = np.random.default_rng(59)
        matrix = rng.standard_normal((60, 4))
        config = ShardedServingConfig(stop_timeout=0.5)
        frontend = sharded(ShardPlan(3, "range"), make_store(matrix),
                           config)
        clients = frontend._table.all_clients()
        # SIGSTOP leaves each worker alive but unresponsive: the stop
        # request and SIGTERM both stall, forcing the full
        # join/terminate/kill escalation per worker (SIGKILL is the
        # only signal a stopped process can't ignore).
        for client in clients:
            os.kill(client._process.pid, signal.SIGSTOP)
        start = time.monotonic()
        frontend.close()
        wall = time.monotonic() - start
        # Serial escalation would cost >= 3 x (0.5 + 1.0) s; concurrent
        # close bounds it by one worker's escalation.
        assert wall < 4.0, f"close took {wall:.2f}s — stops ran serially?"
        for client in clients:
            assert not client.alive
            assert not client._receiver.is_alive()
        frontend.close()  # idempotent

    def test_queries_on_closed_frontend_raise_at_once(self):
        rng = np.random.default_rng(62)
        frontend = sharded(ShardPlan(2, "hash"),
                           make_store(rng.standard_normal((30, 4))))
        frontend.close()
        calls = (lambda: frontend.top_k(0, 3),
                 lambda: frontend.score_link(0, 1),
                 frontend.worker_metrics)
        for call in calls:
            errors: list[BaseException] = []

            def run(call=call) -> None:
                try:
                    call()
                except BaseException as exc:
                    errors.append(exc)

            # A daemon thread bounds the wall time: a query that spins
            # on the retired routing table must fail here, not hang.
            thread = threading.Thread(target=run, daemon=True)
            thread.start()
            thread.join(3.0)
            assert not thread.is_alive(), "query on a closed frontend hung"
            assert len(errors) == 1
            assert isinstance(errors[0], ServingError)

    def test_close_is_idempotent_and_cheap_when_healthy(self):
        rng = np.random.default_rng(60)
        frontend = sharded(ShardPlan(2, "hash"),
                           make_store(rng.standard_normal((30, 4))))
        start = time.monotonic()
        frontend.close()
        assert time.monotonic() - start < 3.0
        frontend.close()


class TestRebalance:
    def test_rebalance_preserves_oracle_under_load(self):
        rng = np.random.default_rng(61)
        matrix = rng.standard_normal((240, 8))
        oracle = oracle_for(matrix)
        expected = {node: oracle.top_k(node, 8) for node in range(240)}
        recorder = Recorder()
        with use_recorder(recorder):
            with sharded(ShardPlan(2, "hash"), make_store(matrix),
                         ShardedServingConfig(cache_size=0)) as frontend:
                stop = threading.Event()
                failures: list = []

                def reader() -> None:
                    local = np.random.default_rng(
                        threading.get_ident() % 2**32)
                    while not stop.is_set():
                        node = int(local.integers(0, 240))
                        try:
                            ids, scores = frontend.top_k(node, 8)
                        except ServingError as exc:
                            failures.append((node, "error", str(exc)))
                            continue
                        exp_ids, exp_scores = expected[node]
                        if not (np.array_equal(ids, exp_ids)
                                and np.array_equal(scores, exp_scores)):
                            failures.append((node, "mismatch", ids))

                threads = [threading.Thread(target=reader)
                           for _ in range(3)]
                for thread in threads:
                    thread.start()
                try:
                    report = frontend.rebalance(ShardPlan(3, "range"))
                    assert frontend.plan.num_shards == 3
                    second = frontend.rebalance(ShardPlan(2, "range"))
                finally:
                    stop.set()
                    for thread in threads:
                        thread.join()
                # Zero query errors and zero mixed-plan responses: every
                # answer matched the oracle bit for bit across two plan
                # flips under concurrent load.
                assert not failures, failures[:3]
                assert report.seconds > 0
                assert report.old_plan.num_shards == 2
                assert report.new_plan.num_shards == 3
                assert second.drained
                # The new plan serves queries with full fan-in.
                ids, scores = frontend.top_k(5, 8)
                np.testing.assert_array_equal(ids, expected[5][0])
        counters = recorder.counters
        assert counters.get("serving.shard.rebalance.count", 0) == 2
        assert counters.get("serving.shard.degraded_queries", 0) == 0
        assert "serving.shard.rebalance.seconds" in recorder.histograms

    def test_publish_after_rebalance(self):
        rng = np.random.default_rng(62)
        first = rng.standard_normal((60, 4))
        second = rng.standard_normal((80, 4))
        store = make_store(first, generation=1)
        with sharded(ShardPlan(2, "hash"), store) as frontend:
            frontend.rebalance(ShardPlan(3, "hash"))
            store.publish(second, generation=2)
            assert frontend.num_nodes == 80
            oracle = oracle_for(second)
            ids, scores = frontend.top_k(17, 9)
            exp_ids, exp_scores = oracle.top_k(17, 9)
            np.testing.assert_array_equal(ids, exp_ids)
            np.testing.assert_array_equal(scores, exp_scores)

    def test_rebalance_before_first_publish(self):
        with ShardedFrontend(ShardPlan(2, "hash")).start() as frontend:
            report = frontend.rebalance(ShardPlan(3, "range"))
            assert report.install_seconds == 0.0
            publisher = ShardedPublisher(frontend)
            publisher.publish(np.eye(6), generation=0)
            ids, _scores = frontend.top_k(0, 3)
            assert len(ids) == 3

    def test_rebalance_with_replicas_and_strategy_change(self):
        rng = np.random.default_rng(63)
        matrix = rng.standard_normal((90, 6))
        oracle = oracle_for(matrix)
        config = ShardedServingConfig(replication_factor=2)
        with sharded(ShardPlan(3, "range"), make_store(matrix),
                     config) as frontend:
            frontend.rebalance(ShardPlan(2, "hash"))
            assert frontend.alive_workers == 4  # 2 shards x 2 replicas
            frontend.kill_replica(1, 0)
            ids, scores = frontend.top_k(42, 7)
            exp_ids, exp_scores = oracle.top_k(42, 7)
            np.testing.assert_array_equal(ids, exp_ids)
            np.testing.assert_array_equal(scores, exp_scores)

    def test_rebalance_requires_started_frontend(self):
        frontend = ShardedFrontend(ShardPlan(2, "hash"))
        with pytest.raises(ServingError):
            frontend.rebalance(ShardPlan(3, "hash"))
        with pytest.raises(ServingError):
            ShardedFrontend(ShardPlan(2, "hash")).start().rebalance(4)


class TestWorkerMetricsAggregation:
    def test_worker_metrics_merge_back_to_router(self):
        rng = np.random.default_rng(64)
        matrix = rng.standard_normal((120, 8))
        recorder = Recorder()
        with use_recorder(recorder):
            with sharded(ShardPlan(2, "hash"), make_store(matrix),
                         ShardedServingConfig(cache_size=0)) as frontend:
                run_load(frontend, num_requests=30, clients=2,
                         topk_fraction=1.0, k=5, seed=2)
                doc = frontend.worker_metrics()
        # The merged doc carries worker-internal counters that would
        # otherwise die with the worker processes.
        assert doc["counters"]["serving.index.gemm_rows"] > 0
        assert doc["counters"]["serving.store.publishes"] >= 2
        # ...and the ambient recorder got them under the workers prefix.
        counters = recorder.counters
        prefixed = "serving.shard.workers.serving.index.gemm_rows"
        assert counters[prefixed] == doc["counters"]["serving.index.gemm_rows"]
        assert recorder.gauges["serving.shard.workers.reporting"] == 2

    def test_worker_metrics_sum_across_replicas_and_skip_dead(self):
        rng = np.random.default_rng(65)
        matrix = rng.standard_normal((80, 6))
        config = ShardedServingConfig(replication_factor=2, cache_size=0)
        recorder = Recorder()
        with use_recorder(recorder):
            with sharded(ShardPlan(2, "hash"), make_store(matrix),
                         config) as frontend:
                for node in range(10):
                    frontend.top_k(node, 5)
                frontend.kill_replica(0, 0)
                doc = frontend.worker_metrics()
        # 3 of 4 workers survive; each installed the publish once.
        assert doc["counters"]["serving.store.publishes"] == 3
        assert recorder.gauges["serving.shard.workers.reporting"] == 3

    def test_worker_index_and_ann_counters_reach_the_router(self):
        """Each worker's index answers through the cached request path
        and books its IVF builds, so the merged document carries
        non-zero ``serving.index.cache_*`` and ``serving.ann.*``."""
        rng = np.random.default_rng(66)
        matrix = rng.standard_normal((200, 8))
        config = ShardedServingConfig(
            index="ivf",
            ann=IvfConfig(nlist=4, nprobe=2, min_index_nodes=16,
                          recall_sample_every=1),
        )
        with sharded(ShardPlan(2, "hash"), make_store(matrix),
                     config) as frontend:
            first = frontend.top_k(7, 5)
            second = frontend.top_k(7, 5)
            doc = frontend.worker_metrics()
        assert first[0].tobytes() == second[0].tobytes()
        counters = doc["counters"]
        for name in ("serving.ann.builds", "serving.ann.queries",
                     "serving.ann.recall_samples",
                     "serving.index.cache_hits",
                     "serving.index.cache_misses"):
            assert counters.get(name, 0) > 0, name
        assert counters["serving.index.cache_hits"] == 2  # one per shard

    def test_histogram_merge_is_exact(self):
        from repro.observability import Histogram
        left = Histogram()
        right = Histogram()
        combined = Histogram()
        for value in (1.0, 5.0, 2.0):
            left.observe(value)
            combined.observe(value)
        for value in (9.0, 0.5):
            right.observe(value)
            combined.observe(value)
        left.merge_state(right.state())
        assert left.count == combined.count
        assert left.total == combined.total
        assert left.min == combined.min
        assert left.max == combined.max
        assert left.summary() == combined.summary()
        # Merging an empty histogram is a no-op (no inf min leakage).
        before = left.summary()
        left.merge_state(Histogram().state())
        assert left.summary() == before


class TestReplicationConfig:
    def test_config_validation(self):
        with pytest.raises(ServingError):
            ShardedServingConfig(replication_factor=0)
        with pytest.raises(ServingError):
            ShardedServingConfig(stop_timeout=0.0)
        config = ShardedServingConfig(replication_factor=3)
        assert config.replication_factor == 3

    def test_replicated_load_run_is_clean(self):
        rng = np.random.default_rng(66)
        matrix = rng.standard_normal((150, 8))
        plan = ShardPlan(2, "hash")
        config = ShardedServingConfig(replication_factor=2)
        recorder = Recorder()
        with use_recorder(recorder):
            with sharded(plan, make_store(matrix), config) as frontend:
                report = run_load(frontend, num_requests=60, clients=4,
                                  topk_fraction=0.5, k=5, seed=3)
        assert report.requests == 60
        assert report.errors == 0
        counters = recorder.counters
        assert counters.get("serving.shard.degraded_queries", 0) == 0
        fanin = recorder.histograms["serving.shard.gather_fanin"]
        assert fanin.mean == 2.0


class TestDeadReplicaRotation:
    """Regression (PR 10 satellite): ``live_replicas`` must rotate over
    the *live* subset.  The old code rotated over the full group and
    filtered afterwards, so a dead replica's every pick collapsed onto
    whichever sibling followed it in the rotation — a deterministic 2:1
    load skew at R=3 — and nothing counted the skipped picks."""

    def test_rotation_balances_around_dead_replica(self):
        rng = np.random.default_rng(67)
        matrix = rng.standard_normal((90, 6))
        # Range plan so shard 0 owns [0, 45): querying only those nodes
        # keeps the anchor fetch off shard 1, whose cursor then advances
        # exactly once per query (at scatter) — the balance assertion
        # below is deterministic, not statistical.
        plan = ShardPlan(2, "range")
        config = ShardedServingConfig(replication_factor=3, cache_size=0)
        recorder = Recorder()
        with use_recorder(recorder):
            with sharded(plan, make_store(matrix), config) as frontend:
                frontend.kill_replica(1, 1)
                for node in range(30):
                    ids, _scores = frontend.top_k(node, 5)
                    assert len(ids) == 5
        counters = recorder.counters
        picks = [counters.get(
            f"serving.shard.1.replica.{replica}.requests", 0.0)
            for replica in range(3)]
        assert picks[1] == 0  # the dead slot never chosen
        assert picks[0] + picks[2] == 30
        # Live siblings alternate: the dead slot's share is split
        # evenly, not dumped onto its rotation successor (old behavior:
        # 10 vs 20).
        assert abs(picks[0] - picks[2]) <= 1
        assert counters["serving.shard.replica.skipped_dead"] >= 30
        assert counters.get("serving.shard.degraded_queries", 0) == 0
