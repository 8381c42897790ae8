"""Extension bench — online serving throughput: single vs batched vs cached.

The serving layer (:mod:`repro.serving`) claims that micro-batching
amortizes per-request overhead the way Fig. 5's sentence batching
amortizes kernel launches, and that the generation-keyed top-k cache
eliminates GEMM work entirely on warm hits.  This bench measures both
claims with the closed-loop load generator against the same embedding
snapshot:

- ``single``  — ``max_batch_size=1``, no cache: every link score is its
  own batch (the degenerate baseline);
- ``batched`` — micro-batching on, no cache: isolates the batching win;
  top-k never batches, so its ``batched`` row is the shared-pass scan;
- ``cached``  — LRU top-k cache on under a hot-skewed workload: adds
  the memoization win.

Reported per config: achieved QPS, client-side latency percentiles,
mean link-score flush size, and GEMM rows evaluated.  Saved to
``bench_results/serving_throughput.json``.
"""

import numpy as np

from repro.bench import ExperimentRecorder, render_table
from repro.embedding import SgnsConfig
from repro.graph import DynamicTemporalGraph, generators
from repro.observability import Recorder, use_recorder
from repro.serving import (
    EmbeddingStore,
    ServingConfig,
    ServingFrontend,
    run_load,
)
from repro.tasks.incremental import IncrementalEmbedder
from repro.walk import WalkConfig

from conftest import emit

NUM_NODES = 5_000
NUM_EDGES = 50_000
CLIENTS = 16
REQUESTS = 8_000

SINGLE = ServingConfig(max_batch_size=1, cache_size=0)
BATCHED = ServingConfig(max_batch_size=16, max_delay=0.002, cache_size=0)
CACHED = ServingConfig(max_batch_size=16, max_delay=0.002, cache_size=4096)


def _build_store() -> EmbeddingStore:
    edges = generators.erdos_renyi_temporal(NUM_NODES, NUM_EDGES, seed=71)
    dynamic = DynamicTemporalGraph(edges.sorted_by_time())
    store = EmbeddingStore()
    IncrementalEmbedder(
        dynamic,
        walk_config=WalkConfig(num_walks_per_node=3, max_walk_length=6),
        sgns_config=SgnsConfig(dim=16, epochs=1),
        seed=72,
        store=store,
    ).rebuild()
    return store


def _drive(store, config, topk_fraction, num_requests=REQUESTS):
    """One load run under an isolated recorder; returns (report, recorder)."""
    recorder = Recorder()
    with use_recorder(recorder):
        with ServingFrontend(store, config) as frontend:
            report = run_load(
                frontend,
                num_requests=num_requests,
                clients=CLIENTS,
                topk_fraction=topk_fraction,
                seed=73,
            )
    return report, recorder


def _row(name, workload, report, recorder):
    batch_hist = recorder.histograms.get("serving.batch.size")
    return {
        "config": name,
        "workload": workload,
        "qps": round(report.qps, 1),
        "p50 ms": round(report.p50_ms, 3),
        "p99 ms": round(report.p99_ms, 3),
        "mean link batch": (round(batch_hist.mean, 2) if batch_hist
                            else 0.0),
        "gemm rows": int(
            recorder.counters.get("serving.index.gemm_rows", 0)
        ),
        "cache hits": int(
            recorder.counters.get("serving.index.cache_hits", 0)
        ),
    }


def test_serving_throughput(benchmark):
    store = _build_store()
    benchmark.pedantic(
        lambda: _drive(store, BATCHED, 0.0, num_requests=500),
        rounds=1, iterations=1,
    )

    # Batching claim: a score-only workload (pure per-request overhead,
    # negligible math) is where micro-batching matters most.
    single_score, single_rec = _drive(store, SINGLE, 0.0)
    batched_score, batched_rec = _drive(store, BATCHED, 0.0)

    # Caching claim: a top-k-heavy hot-skewed workload is where the LRU
    # result cache matters most.
    batched_topk, batched_topk_rec = _drive(store, BATCHED, 1.0)
    cached_topk, cached_topk_rec = _drive(store, CACHED, 1.0)

    rows = [
        _row("single", "score-only", single_score, single_rec),
        _row("batched", "score-only", batched_score, batched_rec),
        _row("batched", "top-k hot", batched_topk, batched_topk_rec),
        _row("cached", "top-k hot", cached_topk, cached_topk_rec),
    ]
    emit("")
    emit(render_table(
        rows, title="Online serving: micro-batching and top-k caching"
    ))

    # Micro-batched throughput must beat single-request by >= 3x.
    speedup = batched_score.qps / single_score.qps
    emit(f"micro-batch speedup (score-only): {speedup:.2f}x")
    assert speedup >= 3.0, (
        f"micro-batching speedup {speedup:.2f}x < 3x "
        f"({batched_score.qps:.0f} vs {single_score.qps:.0f} qps)"
    )
    # Batching actually happened, and the cache actually hit.
    batch_hist = batched_rec.histograms["serving.batch.size"]
    assert batch_hist.mean > 2.0
    assert cached_topk_rec.counters["serving.index.cache_hits"] > 0
    assert (
        cached_topk_rec.counters.get("serving.index.gemm_rows", 0)
        < batched_topk_rec.counters.get("serving.index.gemm_rows", 0)
    )
    assert single_score.errors == 0 and batched_score.errors == 0
    assert batched_topk.errors == 0 and cached_topk.errors == 0

    # Warm top-k hit: repeat query adds exactly zero GEMM rows.
    warm_recorder = Recorder()
    with use_recorder(warm_recorder):
        with ServingFrontend(store, CACHED) as frontend:
            cold_ids, cold_scores = frontend.top_k(0, 10)
            rows_after_cold = warm_recorder.counters["serving.index.gemm_rows"]
            warm_ids, warm_scores = frontend.top_k(0, 10)
            rows_after_warm = warm_recorder.counters["serving.index.gemm_rows"]
    assert rows_after_warm == rows_after_cold
    assert warm_recorder.counters["serving.index.cache_hits"] == 1
    assert np.array_equal(cold_ids, warm_ids)
    assert np.array_equal(cold_scores, warm_scores)

    recorder = ExperimentRecorder("serving_throughput")
    for row in rows:
        recorder.add(f"{row['config']}/{row['workload']}", row)
    recorder.add("speedup", {"micro_batch_score_only": speedup})
    recorder.save()
