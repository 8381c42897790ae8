"""Tests for the control-plane autoscaler
(:mod:`repro.serving.controlplane`, PR 10).

The contracts pinned here:

- **auto-respawn**: a killed replica is detected by the health sweep
  and replaced by a fresh worker holding the *served* version's slice;
  recovery is invisible to readers (answers stay bit-identical to the
  single-process oracle) and killing one replica of every shard under
  closed-loop load costs zero errors and zero degraded queries;
- **crash-loop circuit breaker**: a worker that dies on every respawn
  (the ``controlplane.respawn`` fault site) burns exponential-backoff
  attempts up to ``max_respawns``, then the breaker trips — the tier
  stays up degraded, never hangs or fork-loops, and
  ``serving.controlplane.respawn_giveup`` records the give-up;
- **skew policy**: sustained per-shard request-rate skew (hysteresis
  over ``skew_observations`` sweeps, ``rebalance_cooldown`` between
  moves) triggers a live rebalance whose plan comes from
  :meth:`ControlPlane.choose_plan`; transient skew and idle tiers
  never trigger;
- **publish/respawn serialization**: a publish racing a respawn yields
  one consistent version — the replacement can never serve a slice the
  router no longer routes (both paths hold ``_publish_lock`` end to
  end).

Everything runs ``step()`` synchronously under an injected clock (the
``TokenBucket`` pattern), so no test waits on wall-clock supervision.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.errors import ServingError
from repro.faults import FaultPlan
from repro.observability import Recorder, use_recorder
from repro.serving import (
    ControlPlane,
    ControlPlaneConfig,
    EmbeddingStore,
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


class FakeClock:
    """Manually advanced monotonic clock for synchronous ``step()``."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def plane_for(frontend: ShardedFrontend, clock: FakeClock,
              fault_plan: FaultPlan | None = None,
              **knobs) -> ControlPlane:
    return ControlPlane(frontend, ControlPlaneConfig(**knobs),
                        fault_plan=fault_plan, clock=clock)


class TestRespawn:
    def test_respawn_restores_replication_bit_identical(self):
        rng = np.random.default_rng(70)
        matrix = rng.standard_normal((120, 8))
        oracle = oracle_for(matrix)
        plan = ShardPlan(2, "hash")
        config = ShardedServingConfig(replication_factor=2, cache_size=0)
        clock = FakeClock()
        recorder = Recorder()
        with use_recorder(recorder):
            with sharded(plan, make_store(matrix), config) as frontend:
                plane = plane_for(frontend, clock)
                for shard in range(plan.num_shards):
                    frontend.kill_replica(shard, 0)
                assert frontend.alive_workers == 2
                report = plane.step()
                assert report.respawned == 2
                assert frontend.alive_workers == 4
                # The replacements hold the served version: kill the
                # *surviving* original of every shard so only respawned
                # workers answer, and check against the oracle.
                for shard in range(plan.num_shards):
                    frontend.kill_replica(shard, 1)
                for node in (0, 17, 64, 119):
                    ids, scores = frontend.top_k(node, 9)
                    exp_ids, exp_scores = oracle.top_k(node, 9)
                    np.testing.assert_array_equal(ids, exp_ids)
                    np.testing.assert_array_equal(scores, exp_scores)
        counters = recorder.counters
        assert counters["serving.controlplane.respawns"] == 2
        assert counters.get("serving.shard.degraded_queries", 0) == 0
        hist = recorder.histograms["serving.controlplane.recovery_seconds"]
        assert hist.count == 2

    def test_kill_every_shard_under_load_is_invisible(self):
        """The acceptance drill: R=2, one replica of every shard killed
        mid-load with the control plane supervising — zero errors, zero
        degraded queries, one respawn per kill, post-recovery answers
        bit-identical to the oracle."""
        rng = np.random.default_rng(71)
        matrix = rng.standard_normal((150, 8))
        oracle = oracle_for(matrix)
        plan = ShardPlan(2, "hash")
        config = ShardedServingConfig(replication_factor=2, cache_size=0)
        recorder = Recorder()
        with use_recorder(recorder):
            with sharded(plan, make_store(matrix), config) as frontend:
                plane = ControlPlane(
                    frontend,
                    ControlPlaneConfig(health_period=0.02)).start()
                killed = threading.Event()

                def killer() -> None:
                    for shard in range(plan.num_shards):
                        frontend.kill_replica(shard, shard % 2)
                    killed.set()

                chaos = threading.Timer(0.05, killer)
                chaos.start()
                try:
                    report = run_load(frontend, num_requests=600,
                                      clients=4, topk_fraction=0.5,
                                      k=8, seed=4)
                finally:
                    chaos.cancel()
                    killed.wait(5.0)
                    # Bounded wait for the supervisor to finish
                    # recovering before we stop it.
                    for _ in range(200):
                        if frontend.alive_workers == 4:
                            break
                        threading.Event().wait(0.02)
                    plane.close()
                assert report.errors == 0
                assert frontend.alive_workers == 4
                for node in (3, 77, 149):
                    ids, scores = frontend.top_k(node, 10)
                    exp_ids, exp_scores = oracle.top_k(node, 10)
                    np.testing.assert_array_equal(ids, exp_ids)
                    np.testing.assert_array_equal(scores, exp_scores)
        counters = recorder.counters
        assert counters["serving.controlplane.respawns"] == 2
        assert counters.get("serving.shard.degraded_queries", 0) == 0
        assert counters.get("serving.shard.gather_drops", 0) == 0

    def test_respawn_skips_live_slot(self):
        rng = np.random.default_rng(72)
        matrix = rng.standard_normal((40, 4))
        with sharded(ShardPlan(2, "hash"), make_store(matrix)) as frontend:
            assert frontend.respawn_replica(0, 0) is False
            with pytest.raises(ServingError):
                frontend.respawn_replica(9, 0)
            with pytest.raises(ServingError):
                frontend.respawn_replica(0, 5)

    def test_replacement_dying_mid_install_is_stopped_and_raises(self):
        rng = np.random.default_rng(74)
        matrix = rng.standard_normal((40, 4))
        with sharded(ShardPlan(2, "hash"), make_store(matrix)) as frontend:
            frontend.kill_replica(0, 0)
            spawned = []
            spawn = frontend._spawn_worker

            def spawn_dying_on_install(*args, **kwargs):
                client = spawn(*args, **kwargs)
                send = client.request_async

                def request_async(op, payload):
                    if op == "install":
                        client.kill()
                    return send(op, payload)

                client.request_async = request_async
                spawned.append(client)
                return client

            frontend._spawn_worker = spawn_dying_on_install
            with pytest.raises(ServingError):
                frontend.respawn_replica(0, 0)
            (replacement,) = spawned
            assert not replacement._process.is_alive()
            assert frontend._table.groups[0][0] is not replacement
            assert not frontend._table.groups[0][0].alive

    def test_respawned_worker_serves_post_publish_version(self):
        """A publish landing while a replica is dead must win: the
        later respawn re-slices the *new* matrix under the *new*
        version, not the one current when the replica died."""
        rng = np.random.default_rng(73)
        first = rng.standard_normal((60, 4))
        second = rng.standard_normal((60, 4))
        store = make_store(first, generation=1)
        config = ShardedServingConfig(replication_factor=2, cache_size=0)
        clock = FakeClock()
        with sharded(ShardPlan(2, "range"), store, config) as frontend:
            frontend.kill_replica(0, 0)
            store.publish(second, generation=2)
            plane = plane_for(frontend, clock)
            assert plane.step().respawned == 1
            frontend.kill_replica(0, 1)  # only the respawn serves shard 0
            oracle = oracle_for(second)
            for node in (0, 29, 59):
                ids, scores = frontend.top_k(node, 7)
                exp_ids, exp_scores = oracle.top_k(node, 7)
                np.testing.assert_array_equal(ids, exp_ids)
                np.testing.assert_array_equal(scores, exp_scores)

    def test_step_noop_on_unstarted_or_closed_frontend(self):
        frontend = ShardedFrontend(ShardPlan(2, "hash"))
        plane = plane_for(frontend, FakeClock())
        assert plane.step().slots_seen == []
        started = ShardedFrontend(ShardPlan(2, "hash")).start()
        started.close()
        assert plane_for(started, FakeClock()).step().slots_seen == []


class TestPublishRespawnRace:
    def test_publish_racing_respawn_yields_one_consistent_version(self):
        """Satellite 1: both paths serialize on ``_publish_lock``, so
        whichever order the race resolves in, the tier ends fully on
        the published version — never a mix of old and new slices."""
        rng = np.random.default_rng(74)
        first = rng.standard_normal((80, 6))
        second = rng.standard_normal((80, 6))
        store = make_store(first, generation=1)
        config = ShardedServingConfig(replication_factor=2, cache_size=0)
        recorder = Recorder()
        with use_recorder(recorder):
            with sharded(ShardPlan(2, "hash"), store, config) as frontend:
                frontend.kill_replica(0, 0)
                barrier = threading.Barrier(2)
                errors: list = []

                def publisher() -> None:
                    try:
                        barrier.wait(5.0)
                        store.publish(second, generation=2)
                    except BaseException as exc:
                        errors.append(exc)

                def respawner() -> None:
                    try:
                        barrier.wait(5.0)
                        frontend.respawn_replica(0, 0)
                    except BaseException as exc:
                        errors.append(exc)

                threads = [threading.Thread(target=publisher),
                           threading.Thread(target=respawner)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(30.0)
                assert not errors, errors
                assert frontend.version == 2
                assert frontend.alive_workers == 4
                # Force every shard-0 read through the respawned
                # worker: it must hold the published version.
                frontend.kill_replica(0, 1)
                oracle = oracle_for(second)
                for node in (0, 40, 79):
                    ids, scores = frontend.top_k(node, 9)
                    exp_ids, exp_scores = oracle.top_k(node, 9)
                    np.testing.assert_array_equal(ids, exp_ids)
                    np.testing.assert_array_equal(scores, exp_scores)
        # One consistent version end to end: nothing ever answered
        # stale and no gather dropped a shard.
        counters = recorder.counters
        assert counters.get("serving.shard.stale_retries", 0) == 0
        assert counters.get("serving.shard.gather_drops", 0) == 0


class TestCrashLoop:
    def test_circuit_breaker_trips_after_max_respawns(self):
        """Satellite 3: a worker dying on every respawn trips the
        breaker after ``max_respawns`` attempts; the tier stays up
        degraded (sibling keeps answering) instead of hanging."""
        rng = np.random.default_rng(75)
        matrix = rng.standard_normal((60, 6))
        config = ShardedServingConfig(replication_factor=2, cache_size=0)
        clock = FakeClock()
        crash_always = FaultPlan.parse("controlplane.respawn:crash:0:99")
        recorder = Recorder()
        with use_recorder(recorder):
            with sharded(ShardPlan(2, "hash"), make_store(matrix),
                         config) as frontend:
                plane = plane_for(frontend, clock,
                                  fault_plan=crash_always,
                                  max_respawns=3, respawn_backoff=0.1)
                frontend.kill_replica(0, 1)
                failures = 0
                for _ in range(6):
                    report = plane.step()
                    failures += report.respawn_failures
                    clock.advance(10.0)  # clear every backoff window
                assert failures == 3
                # Breaker tripped: later sweeps never attempt again.
                after = plane.step()
                assert after.respawn_failures == 0
                assert after.dead_slots == 1
                # Degraded, not hung: the sibling still answers with
                # full fan-in and the other shard is untouched.
                ids, _scores = frontend.top_k(5, 7)
                assert len(ids) == 7
                assert frontend.alive_workers == 3
        counters = recorder.counters
        assert counters["serving.controlplane.respawn_failures"] == 3
        assert counters["serving.controlplane.respawn_giveup"] == 1
        assert counters.get("serving.controlplane.respawns", 0) == 0
        assert counters.get("serving.shard.degraded_queries", 0) == 0

    def test_backoff_gates_attempts_between_sweeps(self):
        rng = np.random.default_rng(76)
        matrix = rng.standard_normal((40, 4))
        config = ShardedServingConfig(replication_factor=2)
        clock = FakeClock()
        crash_always = FaultPlan.parse("controlplane.respawn:crash:*:99")
        with sharded(ShardPlan(2, "hash"), make_store(matrix),
                     config) as frontend:
            plane = plane_for(frontend, clock, fault_plan=crash_always,
                              max_respawns=5, respawn_backoff=1.0,
                              backoff_multiplier=2.0)
            frontend.kill_replica(1, 0)
            assert plane.step().respawn_failures == 1
            # Clock has not advanced: the slot is inside its backoff
            # window, so the next sweeps only observe, never respawn.
            assert plane.step().respawn_failures == 0
            clock.advance(0.5)
            assert plane.step().respawn_failures == 0
            clock.advance(0.6)  # past the 1.0 s first backoff
            assert plane.step().respawn_failures == 1
            # Second failure doubled the window: 2.0 s now.
            clock.advance(1.5)
            assert plane.step().respawn_failures == 0
            clock.advance(0.6)
            assert plane.step().respawn_failures == 1

    def test_crash_loop_recovers_when_fault_clears(self):
        rng = np.random.default_rng(77)
        matrix = rng.standard_normal((50, 4))
        oracle = oracle_for(matrix)
        config = ShardedServingConfig(replication_factor=2, cache_size=0)
        clock = FakeClock()
        crash_twice = FaultPlan.parse("controlplane.respawn:crash:0:2")
        with sharded(ShardPlan(2, "range"), make_store(matrix),
                     config) as frontend:
            plane = plane_for(frontend, clock, fault_plan=crash_twice,
                              max_respawns=5, respawn_backoff=0.1)
            frontend.kill_replica(0, 0)
            outcomes = []
            for _ in range(3):
                report = plane.step()
                outcomes.append((report.respawned,
                                 report.respawn_failures))
                clock.advance(10.0)
            # Two injected crashes, then the third attempt sticks.
            assert outcomes == [(0, 1), (0, 1), (1, 0)]
            assert frontend.alive_workers == 4
            frontend.kill_replica(0, 1)
            ids, scores = frontend.top_k(2, 6)
            exp_ids, exp_scores = oracle.top_k(2, 6)
            np.testing.assert_array_equal(ids, exp_ids)
            np.testing.assert_array_equal(scores, exp_scores)

    def test_healthy_streak_restores_attempt_budget(self):
        rng = np.random.default_rng(78)
        matrix = rng.standard_normal((40, 4))
        config = ShardedServingConfig(replication_factor=2)
        clock = FakeClock()
        with sharded(ShardPlan(2, "hash"), make_store(matrix),
                     config) as frontend:
            plane = plane_for(frontend, clock, max_respawns=2,
                              respawn_backoff=0.1, healthy_reset_s=5.0)
            frontend.kill_replica(0, 0)
            assert plane.step().respawned == 1
            state = plane._slots[(0, 0)]
            assert state.attempts == 1
            # Alive for longer than healthy_reset_s: budget restored.
            plane.step()
            clock.advance(6.0)
            plane.step()
            assert state.attempts == 0

    def test_health_fault_site_skips_sweep(self):
        rng = np.random.default_rng(79)
        matrix = rng.standard_normal((40, 4))
        config = ShardedServingConfig(replication_factor=2)
        clock = FakeClock()
        faulty = FaultPlan.parse("controlplane.health:error:*:1")
        recorder = Recorder()
        with use_recorder(recorder):
            with sharded(ShardPlan(2, "hash"), make_store(matrix),
                         config) as frontend:
                plane = plane_for(frontend, clock, fault_plan=faulty)
                frontend.kill_replica(0, 0)
                first = plane.step()
                assert first.faulted and first.respawned == 0
                second = plane.step()  # the fault only fires once
                assert not second.faulted and second.respawned == 1
        assert recorder.counters["serving.controlplane.health_faults"] == 1


class TestSkewPolicy:
    @staticmethod
    def _drive_requests(recorder: Recorder, per_shard: dict[int, float]
                        ) -> None:
        for shard, count in per_shard.items():
            recorder.counter(f"serving.shard.{shard}.requests", count)

    def test_sustained_skew_triggers_rebalance(self):
        rng = np.random.default_rng(80)
        matrix = rng.standard_normal((90, 6))
        oracle = oracle_for(matrix)
        clock = FakeClock()
        recorder = Recorder()
        with use_recorder(recorder):
            with sharded(ShardPlan(2, "range"), make_store(matrix),
                         ShardedServingConfig(cache_size=0)) as frontend:
                plane = plane_for(frontend, clock, skew_threshold=1.8,
                                  skew_observations=2, min_requests=10,
                                  rebalance_cooldown=0.0)
                plane.step()  # baseline sweep
                self._drive_requests(recorder, {0: 100, 1: 2})
                first = plane.step()
                assert first.skewed and first.rebalanced_to is None
                self._drive_requests(recorder, {0: 100, 1: 2})
                second = plane.step()
                assert second.rebalanced_to == ShardPlan(2, "hash")
                assert frontend.plan.strategy == "hash"
                ids, scores = frontend.top_k(11, 8)
                exp_ids, exp_scores = oracle.top_k(11, 8)
                np.testing.assert_array_equal(ids, exp_ids)
                np.testing.assert_array_equal(scores, exp_scores)
        counters = recorder.counters
        assert counters["serving.controlplane.skew_observations"] == 2
        assert counters["serving.controlplane.rebalance_decisions"] == 1
        assert counters["serving.shard.rebalance.count"] == 1

    def test_transient_skew_resets_hysteresis(self):
        rng = np.random.default_rng(81)
        matrix = rng.standard_normal((60, 4))
        clock = FakeClock()
        recorder = Recorder()
        with use_recorder(recorder):
            with sharded(ShardPlan(2, "range"),
                         make_store(matrix)) as frontend:
                plane = plane_for(frontend, clock, skew_threshold=1.8,
                                  skew_observations=2, min_requests=10,
                                  rebalance_cooldown=0.0)
                plane.step()
                self._drive_requests(recorder, {0: 100, 1: 2})
                assert plane.step().skewed
                self._drive_requests(recorder, {0: 50, 1: 50})
                assert not plane.step().skewed  # streak broken
                self._drive_requests(recorder, {0: 100, 1: 2})
                report = plane.step()  # streak restarts at 1: no move
                assert report.skewed and report.rebalanced_to is None
                assert frontend.plan.strategy == "range"

    def test_cooldown_blocks_back_to_back_rebalances(self):
        rng = np.random.default_rng(82)
        matrix = rng.standard_normal((60, 4))
        clock = FakeClock()
        recorder = Recorder()
        with use_recorder(recorder):
            with sharded(ShardPlan(2, "range"),
                         make_store(matrix)) as frontend:
                plane = plane_for(frontend, clock, skew_threshold=1.5,
                                  skew_observations=1, min_requests=10,
                                  rebalance_cooldown=30.0, max_shards=4)
                plane.step()
                self._drive_requests(recorder, {0: 100, 1: 2})
                assert plane.step().rebalanced_to is not None
                # Immediately skewed again (hash plan now: the move
                # would widen the tier) — but the cooldown holds it.
                self._drive_requests(recorder, {0: 100, 1: 2})
                assert plane.step().rebalanced_to is None
                self._drive_requests(recorder, {0: 100, 1: 2})
                clock.advance(31.0)
                assert plane.step().rebalanced_to == ShardPlan(4, "hash")
        assert recorder.counters[
            "serving.controlplane.rebalance_decisions"] == 2

    def test_idle_tier_is_never_skewed(self):
        rng = np.random.default_rng(83)
        matrix = rng.standard_normal((40, 4))
        clock = FakeClock()
        recorder = Recorder()
        with use_recorder(recorder):
            with sharded(ShardPlan(2, "range"),
                         make_store(matrix)) as frontend:
                plane = plane_for(frontend, clock, skew_threshold=1.5,
                                  skew_observations=1, min_requests=50)
                plane.step()
                # Heavy *ratio* but tiny volume: below min_requests.
                self._drive_requests(recorder, {0: 30, 1: 1})
                report = plane.step()
                assert not report.skewed
                assert frontend.plan.strategy == "range"

    def test_catalog_growth_widens_the_tier(self):
        rng = np.random.default_rng(84)
        small = rng.standard_normal((60, 4))
        big = rng.standard_normal((200, 4))
        store = make_store(small, generation=1)
        clock = FakeClock()
        recorder = Recorder()
        with use_recorder(recorder):
            with sharded(ShardPlan(2, "hash"), store) as frontend:
                plane = plane_for(frontend, clock, nodes_per_shard=50,
                                  max_shards=8)
                assert plane.step().rebalanced_to is None  # 60/50 -> 2
                store.publish(big, generation=2)
                report = plane.step()  # ceil(200/50) = 4 shards
                assert report.rebalanced_to == ShardPlan(4, "hash")
                assert frontend.plan.num_shards == 4
                oracle = oracle_for(big)
                ids, scores = frontend.top_k(123, 9)
                exp_ids, exp_scores = oracle.top_k(123, 9)
                np.testing.assert_array_equal(ids, exp_ids)
                np.testing.assert_array_equal(scores, exp_scores)

    def test_choose_plan_policy(self):
        clock = FakeClock()
        frontend = ShardedFrontend(ShardPlan(2, "hash"))
        plane = plane_for(frontend, clock, max_shards=4)
        assert (plane.choose_plan(ShardPlan(3, "range"), 90, [9, 1, 1])
                == ShardPlan(3, "hash"))
        assert (plane.choose_plan(ShardPlan(2, "hash"), 90, [9, 1])
                == ShardPlan(4, "hash"))
        # At the cap, skew is accepted: no move proposed.
        assert plane.choose_plan(ShardPlan(4, "hash"), 90,
                                 [9, 1, 1, 1]) is None


class TestControlPlaneLifecycle:
    def test_thread_start_close_idempotent(self):
        rng = np.random.default_rng(85)
        matrix = rng.standard_normal((40, 4))
        with sharded(ShardPlan(2, "hash"), make_store(matrix)) as frontend:
            plane = ControlPlane(frontend,
                                 ControlPlaneConfig(health_period=0.01))
            assert plane.start() is plane
            assert plane.start() is plane  # idempotent
            threading.Event().wait(0.05)
            plane.close()
            plane.close()  # idempotent

    def test_context_manager_supervises(self):
        rng = np.random.default_rng(86)
        matrix = rng.standard_normal((40, 4))
        config = ShardedServingConfig(replication_factor=2)
        recorder = Recorder()
        with use_recorder(recorder):
            with sharded(ShardPlan(2, "hash"), make_store(matrix),
                         config) as frontend:
                with ControlPlane(
                        frontend,
                        ControlPlaneConfig(health_period=0.02)):
                    frontend.kill_replica(0, 0)
                    for _ in range(150):
                        if frontend.alive_workers == 4:
                            break
                        threading.Event().wait(0.02)
                    assert frontend.alive_workers == 4
        assert recorder.counters["serving.controlplane.respawns"] >= 1

    def test_rebalance_resets_slot_state(self):
        rng = np.random.default_rng(87)
        matrix = rng.standard_normal((60, 4))
        clock = FakeClock()
        with sharded(ShardPlan(2, "hash"), make_store(matrix)) as frontend:
            plane = plane_for(frontend, clock, max_respawns=1)
            plane.step()
            plane._slots[(0, 0)].gave_up = True
            frontend.rebalance(ShardPlan(3, "range"))
            report = plane.step()  # new table: supervision restarts
            assert len(report.slots_seen) == 3
            assert not plane._slots[(0, 0)].gave_up

    def test_config_validation(self):
        with pytest.raises(ServingError):
            ControlPlaneConfig(health_period=0.0)
        with pytest.raises(ServingError):
            ControlPlaneConfig(max_respawns=0)
        with pytest.raises(ServingError):
            ControlPlaneConfig(skew_threshold=1.0)
        with pytest.raises(ServingError):
            ControlPlaneConfig(skew_observations=0)
        with pytest.raises(ServingError):
            ControlPlaneConfig(rebalance_cooldown=-1.0)
        with pytest.raises(ServingError):
            ControlPlaneConfig(backoff_multiplier=0.5)
        with pytest.raises(ServingError):
            ControlPlaneConfig(min_requests=0)
        with pytest.raises(ServingError):
            ControlPlaneConfig(nodes_per_shard=0)
        with pytest.raises(ServingError):
            ControlPlaneConfig(max_shards=0)
        assert ControlPlaneConfig(max_respawns=7).max_respawns == 7
