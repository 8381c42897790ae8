"""Extension bench — sharded scatter/gather serving: QPS vs shard count.

The sharded tier (:mod:`repro.serving.sharding`) claims that
partitioning the embedding space across worker processes converts
per-query scan time into parallel per-shard scans, at the cost of a
scatter/gather round-trip per request.  This
bench drives an exact-scan top-k workload (the worst case for the
router: every request pays the full fan-out, no result caching, no hot
set) against a 10^5-node store at 1, 2, and 4 shards and reports
aggregate QPS, client-side latency percentiles, and the router-side
``serving.shard.*`` breakdown.

Gate: 4 shards must deliver >= 2x the aggregate top-k QPS of the
1-shard configuration — enforced when the host has >= 4 cores to run
the workers on.  Speedup on this host is bounded by its core count, so the JSON record carries
``cpu_count`` to tell "the tier does not scale" apart from "the
machine has one core"; the fan-out correctness invariants (zero
errors, zero degraded gathers, full fan-in at every shard count) are
enforced unconditionally.

Two availability sections ride along (PR 9): killing one replica of
every shard mid-run under ``replication_factor=2`` must cost zero
errors and zero degraded queries (answers stay bit-identical to the
oracle), and a live ``rebalance()`` under closed-loop load must
complete with zero errors while the sampler records the rebalance
wall-time and the in-flight QPS dip.  All sections accumulate into
``bench_results/serving_shards.json``.
"""

import json
import os
import threading
import time

import numpy as np

from repro.bench import ExperimentRecorder, render_table
from repro.observability import Recorder, use_recorder
from repro.serving import (
    EmbeddingStore,
    RecommendationIndex,
    ShardPlan,
    ShardedFrontend,
    ShardedPublisher,
    ShardedServingConfig,
    run_load,
)

from conftest import emit

NUM_NODES = 100_000
DIM = 64
CLIENTS = 16
REQUESTS = 1_500
SHARD_COUNTS = (1, 2, 4)

# No result cache and a uniform (hot-set-free) pure top-k workload:
# every request pays a full per-shard scan, so the curve isolates the
# scatter/gather scaling instead of cache behavior.
CONFIG = ShardedServingConfig(cache_size=0, default_k=10)


def _recorder_with_existing() -> ExperimentRecorder:
    """``serving_shards`` recorder pre-seeded with the saved record.

    ``ExperimentRecorder.save`` overwrites the whole file, and three
    test functions contribute sections to it — each loads what the
    others already saved so the sections accumulate in any run order.
    """
    recorder = ExperimentRecorder("serving_shards")
    path = recorder.results_dir / "serving_shards.json"
    if path.exists():
        with open(path, encoding="utf-8") as handle:
            recorder.data.update(json.load(handle))
    return recorder


def _oracle_check(frontend, matrix: np.ndarray, nodes, k: int = 10) -> None:
    """Assert the tier answers bit-identically to the oracle for
    ``nodes``."""
    store = EmbeddingStore()
    store.publish(matrix, generation=0)
    oracle = RecommendationIndex(store, cache_size=0)
    for node in nodes:
        ids, scores = frontend.top_k(int(node), k)
        exp_ids, exp_scores = oracle.top_k(int(node), k)
        np.testing.assert_array_equal(ids, exp_ids)
        np.testing.assert_array_equal(scores, exp_scores)


def _cores_available() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _build_matrix() -> np.ndarray:
    rng = np.random.default_rng(81)
    return rng.standard_normal((NUM_NODES, DIM))


def _drive(matrix: np.ndarray, num_shards: int,
           num_requests: int = REQUESTS):
    """One closed-loop run at ``num_shards``; returns (report, recorder)."""
    recorder = Recorder()
    with use_recorder(recorder):
        with ShardedFrontend(ShardPlan(num_shards, "range"),
                             CONFIG) as frontend:
            ShardedPublisher(frontend).publish(matrix, generation=0)
            report = run_load(
                frontend,
                num_requests=num_requests,
                clients=CLIENTS,
                topk_fraction=1.0,
                hot_fraction=0.0,
                seed=82,
            )
    return report, recorder


def _row(num_shards, report, recorder):
    fanin = recorder.histograms.get("serving.shard.gather_fanin")
    overhead = recorder.histograms.get("serving.shard.router_overhead_s")
    return {
        "shards": num_shards,
        "qps": round(report.qps, 1),
        "p50 ms": round(report.p50_ms, 3),
        "p99 ms": round(report.p99_ms, 3),
        "mean fan-in": round(fanin.mean, 2) if fanin else 0.0,
        "router ms": (round(overhead.mean * 1e3, 3)
                      if overhead and overhead.count else 0.0),
        "degraded": int(
            recorder.counters.get("serving.shard.degraded_queries", 0)),
        "errors": report.errors,
    }


def test_serving_shard_scaling(benchmark):
    matrix = _build_matrix()
    benchmark.pedantic(
        lambda: _drive(matrix, 2, num_requests=300),
        rounds=1, iterations=1,
    )

    rows = []
    reports = {}
    for num_shards in SHARD_COUNTS:
        report, recorder = _drive(matrix, num_shards)
        reports[num_shards] = report
        rows.append(_row(num_shards, report, recorder))
        assert report.errors == 0
        assert recorder.counters.get(
            "serving.shard.degraded_queries", 0) == 0
        fanin = recorder.histograms["serving.shard.gather_fanin"]
        assert fanin.mean == float(num_shards)

    cores = _cores_available()
    emit("")
    emit(render_table(
        rows,
        title=f"Sharded serving: aggregate top-k QPS vs shard count "
              f"({cores} cores available)",
    ))
    speedup = reports[4].qps / reports[1].qps
    emit(f"4-shard aggregate QPS speedup over 1 shard: {speedup:.2f}x")
    if cores >= 4:
        assert speedup >= 2.0, (
            f"4-shard speedup {speedup:.2f}x < 2x "
            f"({reports[4].qps:.0f} vs {reports[1].qps:.0f} qps)"
        )
    else:
        emit(f"speedup gate skipped: {cores} core(s) cannot run 4 "
             f"workers in parallel")

    recorder = _recorder_with_existing()
    recorder.add("cpu_count", cores)
    for row in rows:
        recorder.add(f"shards_{row['shards']}", row)
    recorder.add("speedup", {
        "four_shards_over_one": speedup,
        "gate_enforced": cores >= 4,
    })
    recorder.save()


AVAIL_NODES = 20_000


def test_serving_replica_kill_availability(benchmark):
    """Kill one replica of every shard mid-run at R=2: zero errors,
    zero degraded queries, answers stay bit-identical to the oracle."""
    rng = np.random.default_rng(83)
    matrix = rng.standard_normal((AVAIL_NODES, DIM))
    plan = ShardPlan(2, "range")
    config = ShardedServingConfig(cache_size=0, default_k=10,
                                  replication_factor=2)
    recorder = Recorder()
    with use_recorder(recorder):
        with ShardedFrontend(plan, config) as frontend:
            ShardedPublisher(frontend).publish(matrix, generation=0)
            killed = threading.Event()

            def killer() -> None:
                time.sleep(0.15)
                for shard in range(plan.num_shards):
                    frontend.kill_replica(shard, 0)
                killed.set()

            thread = threading.Thread(target=killer, daemon=True)
            thread.start()
            report = benchmark.pedantic(
                lambda: run_load(frontend, num_requests=2_000,
                                 clients=CLIENTS, topk_fraction=1.0,
                                 hot_fraction=0.0, seed=84),
                rounds=1, iterations=1,
            )
            thread.join()
            assert killed.is_set()
            assert frontend.alive_workers == plan.num_shards
            # The halved tier still answers bit for bit.
            _oracle_check(frontend, matrix, (0, 1, 9_999, 19_999))
    degraded = int(recorder.counters.get(
        "serving.shard.degraded_queries", 0))
    failovers = int(recorder.counters.get(
        "serving.shard.replica.failovers", 0))
    assert report.errors == 0
    assert degraded == 0
    emit("")
    emit(f"replica kill: one replica of each of {plan.num_shards} "
         f"shards killed mid-run — {report.qps:.0f} qps, "
         f"{report.errors} errors, {degraded} degraded, "
         f"{failovers} failovers")

    saved = _recorder_with_existing()
    saved.add("replica_kill", {
        "shards": plan.num_shards,
        "replicas": config.replication_factor,
        "killed_replicas": plan.num_shards,
        "qps": round(report.qps, 1),
        "p99_ms": round(report.p99_ms, 3),
        "errors": report.errors,
        "degraded_queries": degraded,
        "failovers": failovers,
    })
    saved.save()


def test_serving_rebalance_availability(benchmark):
    """Live rebalance 2 -> 4 shards under closed-loop load: zero
    errors, zero degraded queries; records the rebalance wall-time and
    the in-flight QPS dip."""
    rng = np.random.default_rng(85)
    matrix = rng.standard_normal((AVAIL_NODES, DIM))
    config = ShardedServingConfig(cache_size=0, default_k=10)
    recorder = Recorder()
    samples: list[tuple[float, float]] = []
    window: list[float] = []
    stop_sampling = threading.Event()

    def sampler() -> None:
        while not stop_sampling.wait(0.05):
            samples.append((
                time.monotonic(),
                recorder.counters.get("serving.shard.requests.topk", 0),
            ))

    with use_recorder(recorder):
        with ShardedFrontend(ShardPlan(2, "range"), config) as frontend:
            ShardedPublisher(frontend).publish(matrix, generation=0)

            def rebalancer() -> None:
                time.sleep(0.3)
                t0 = time.monotonic()
                rebalanced = frontend.rebalance(ShardPlan(4, "range"))
                window.extend((t0, time.monotonic(),
                               rebalanced.seconds,
                               rebalanced.install_seconds))

            threads = [threading.Thread(target=sampler, daemon=True),
                       threading.Thread(target=rebalancer, daemon=True)]
            for thread in threads:
                thread.start()
            report = benchmark.pedantic(
                lambda: run_load(frontend, num_requests=3_000,
                                 clients=CLIENTS, topk_fraction=1.0,
                                 hot_fraction=0.0, seed=86),
                rounds=1, iterations=1,
            )
            stop_sampling.set()
            for thread in threads:
                thread.join()
            assert frontend.plan.num_shards == 4
            # The migrated tier still answers bit for bit.
            _oracle_check(frontend, matrix, (7, 4_242, 19_998))
    degraded = int(recorder.counters.get(
        "serving.shard.degraded_queries", 0))
    assert report.errors == 0
    assert degraded == 0
    assert len(window) == 4, "rebalance did not run inside the load window"
    t_start, t_end, rebalance_s, install_s = window

    # Per-sample-interval QPS: baseline outside the rebalance window vs
    # the worst interval overlapping it (recorded, not gated — the dip
    # is hardware- and load-dependent).
    in_dip, out = [], []
    for (t0, c0), (t1, c1) in zip(samples, samples[1:]):
        if t1 <= t0:
            continue
        qps = (c1 - c0) / (t1 - t0)
        (in_dip if t0 <= t_end and t1 >= t_start else out).append(qps)
    baseline = float(np.median(out)) if out else 0.0
    dip = float(min(in_dip)) if in_dip else baseline
    emit("")
    emit(f"rebalance 2 -> 4 shards under load: {rebalance_s:.3f}s wall "
         f"({install_s:.3f}s install), {report.errors} errors, "
         f"{degraded} degraded; QPS {baseline:.0f} baseline -> "
         f"{dip:.0f} worst in-flight interval")

    saved = _recorder_with_existing()
    saved.add("rebalance", {
        "from_shards": 2,
        "to_shards": 4,
        "rebalance_seconds": round(rebalance_s, 4),
        "install_seconds": round(install_s, 4),
        "qps": round(report.qps, 1),
        "errors": report.errors,
        "degraded_queries": degraded,
        "baseline_interval_qps": round(baseline, 1),
        "min_inflight_interval_qps": round(dip, 1),
        "dip_fraction": (round(1.0 - dip / baseline, 4)
                         if baseline > 0 else 0.0),
    })
    saved.save()
