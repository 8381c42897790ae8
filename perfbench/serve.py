"""``serve_sharded`` and ``serve_inproc``: the top-k read path.

Both read the same seeded float64 catalog with the same request tape:
mostly ``top_k``, a minority of ``score_link``, issued by closed-loop
client threads (no more than ``nproc``).  Query nodes are a seeded
permutation of the catalog, so no node repeats within a run: every
result-cache lookup misses and the scan (plus, when sharded, the RPC
transport) does the work — deterministically, which keeps the traced
run's per-query counts exact.

``serve_sharded`` is a 2-shard, R=1, hash-plan ``ShardedFrontend``
(runnable, but not gated: README.md gives its spread);
``serve_inproc`` is the in-process ``ServingFrontend`` (scan plus
``BatchScheduler`` micro-batching, no transport), the no-change
control for sharding-transport changes.
"""

from __future__ import annotations

import gc
import itertools
import os
import threading
import time

import numpy as np

from perfbench.core import (
    Result,
    Tracer,
    add_latency,
    children_pss_mb,
    median,
    self_peak_rss_mb,
)

TOP_K = 10
SCORE_SHARE = 0.1
PROFILES = {
    "full": {"nodes": 100_000, "dim": 64, "setups": 5, "warmup": 100,
             "traced": 600, "check_every": 40, "index_reps": 30},
    "tiny": {"nodes": 4_000, "dim": 16, "setups": 2, "warmup": 20,
             "traced": 60, "check_every": 5, "index_reps": 5},
}

LAYERS = {
    True: ("serving.router_overhead_ms", "serving.worker_service_ms",
           "serving.vector_fetches_per_query", "serving.gemm_rows_per_query",
           "serving.index_topk_ms", "serving.index_topk_slice_ms",
           "trace.overhead_pct"),
    False: ("serving.batch_size", "serving.batch_wait_ms",
            "serving.cache_hit_ratio", "serving.gemm_rows_per_query",
            "serving.index_topk_ms", "serving.index_topk_slice_ms",
            "trace.overhead_pct"),
}


def make_inputs(seed: int, nodes: int, dim: int):
    """Catalog plus tape: ``kinds[i]`` is True for a ``score_link``;
    request ``i`` queries ``perm[i]`` (and ``perm[-1 - i]`` as the link
    target), so the tape holds ``nodes // 2`` requests."""
    rng = np.random.default_rng(seed)
    catalog = rng.standard_normal((nodes, dim))
    perm = rng.permutation(nodes)
    kinds = rng.random(nodes // 2) < SCORE_SHARE
    return catalog, perm, kinds


def add_index_topk(result: Result, matrix: np.ndarray, rng,
                   reps: int = 30) -> None:
    """Time ``RecommendationIndex.top_k`` directly on the full catalog
    and on shard 0's slice of a 2-shard hash plan (cache off)."""
    from repro.serving import EmbeddingStore, RecommendationIndex, ShardPlan

    owned = ShardPlan(2, "hash").owned_ids(0, len(matrix))
    for name, rows in (("serving.index_topk_ms", matrix),
                       ("serving.index_topk_slice_ms", matrix[owned])):
        store = EmbeddingStore()
        store.publish(rows, generation=0)
        index = RecommendationIndex(store, cache_size=0)
        nodes = rng.integers(0, len(rows), size=reps + 1)
        index.top_k(int(nodes[0]), TOP_K)  # warm-up
        times = []
        for node in nodes[1:]:
            t0 = time.perf_counter()
            index.top_k(int(node), TOP_K)
            times.append(time.perf_counter() - t0)
        result.add(name, median(times) * 1e3, "ms",
                   f"p50 of {reps} single queries on {len(rows)}x"
                   f"{rows.shape[1]} rows")


class _Tier:
    """One set-up of the read path under test."""

    def __init__(self, sharded: bool, catalog: np.ndarray) -> None:
        from repro.serving import (EmbeddingStore, ServingFrontend,
                                   ShardedFrontend, ShardedPublisher,
                                   ShardPlan)

        if sharded:
            self.frontend = ShardedFrontend(ShardPlan(2, "hash")).start()
            try:
                ShardedPublisher(self.frontend).publish(catalog,
                                                        generation=0)
            except BaseException:
                self.frontend.close()
                raise
        else:
            store = EmbeddingStore()
            self.frontend = ServingFrontend(store).start()
            store.publish(catalog, generation=0)

    def close(self) -> None:
        self.frontend.close()


def _drive(frontend, perm, kinds, first: int, stop: int, deadline: float,
           clients: int, tracer: Tracer, check_every: int):
    """Closed loop over tape positions ``[first, stop)`` until
    ``deadline``; returns per-request records ``(position, is_score,
    latency, sampled answer or None, completion time)``."""
    positions = itertools.count(first)
    records: list[tuple[int, bool, float, object, float]] = []
    failures: list[str] = []
    lock = threading.Lock()
    n = len(perm)

    def client() -> None:
        mine = []
        while time.perf_counter() < deadline:
            i = next(positions)
            if i >= stop:
                break
            score = bool(kinds[i])
            t0 = time.perf_counter()
            try:
                with tracer.op(i, "score_link" if score else "top_k"):
                    if score:
                        answer = frontend.score_link(int(perm[i]),
                                                     int(perm[n - 1 - i]))
                    else:
                        answer = frontend.top_k(int(perm[i]), TOP_K)
            except Exception as exc:  # counted as a failed request
                with lock:
                    failures.append(f"request {i}: {exc!r}")
                continue
            done = time.perf_counter()
            mine.append((i, score, done - t0,
                         answer if i % check_every == 0 else None, done))
        with lock:
            records.extend(mine)

    threads = [threading.Thread(target=client, name=f"client-{c}")
               for c in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, failures


def completions_per_window(offsets: list[float], window: float
                           ) -> list[float]:
    """Requests completed in each whole second of the timed window.

    The median of these is the throughput: one stalled second (a host
    hiccup, a garbage collection) moves it far less than it moves the
    mean rate over the window.  A window shorter than a second (the
    tape ran out) yields its mean rate.
    """
    counts = [0.0] * int(window)
    if not counts:
        return [len(offsets) / window]
    for offset in offsets:
        if 0 <= offset < len(counts):
            counts[int(offset)] += 1
    return counts


def _check(result: Result, records, catalog, perm, sharded: bool) -> int:
    """Sampled answers vs the single-process oracle; returns the count.

    The sharded tier promises ids and score bits equal to the oracle.
    In process, a micro-batch of m > 1 queries scores with one matrix
    product whose rounding differs from the single-query kernel, so
    there ids must match and scores agree to 1e-12 relative.
    """
    from repro.serving import EmbeddingStore, RecommendationIndex

    store = EmbeddingStore()
    store.publish(catalog, generation=0)
    oracle = RecommendationIndex(store, cache_size=0)
    n = len(perm)
    checked = 0
    for i, score, _elapsed, answer, _done in records:
        if answer is None:
            continue
        checked += 1
        if score:
            a, b = catalog[perm[i]], catalog[perm[n - 1 - i]]
            want = float(np.einsum("bd,bd->b", a[None, :], b[None, :])[0])
            ok = answer == want if sharded else np.isclose(
                answer, want, rtol=1e-12, atol=0.0)
        else:
            ids, scores = answer
            want_ids, want_scores = oracle.top_k(int(perm[i]), TOP_K)
            ok = np.array_equal(ids, want_ids) and (
                scores.tobytes() == want_scores.tobytes() if sharded
                else np.allclose(scores, want_scores, rtol=1e-12, atol=0.0))
        if not ok:
            result.mismatch(f"request {i} ({'score_link' if score else 'top_k'}"
                            f") differs from the oracle")
    return checked


def run(seed: int, seconds: float, trace: bool, profile: str, out_dir,
        sharded: bool) -> Result:
    cfg = PROFILES[profile]
    catalog, perm, kinds = make_inputs(seed, cfg["nodes"], cfg["dim"])
    clients = min(2, len(os.sched_getaffinity(0)))
    result = Result()
    tracer = Tracer()

    setups, tier = [], None
    for _ in range(cfg["setups"]):
        if tier is not None:
            tier.close()
            # Free it before the next set-up allocates and forks, so the
            # new workers never share pages that are freed later.
            tier = None
            gc.collect()
        t0 = time.perf_counter()
        tier = _Tier(sharded, catalog)
        setups.append(time.perf_counter() - t0)

    try:
        warm = cfg["warmup"]
        _drive(tier.frontend, perm, kinds, 0, warm, float("inf"), clients,
               tracer, cfg["check_every"])
        if trace:
            phase = _traced_phase(tier.frontend, perm, kinds, warm, clients,
                                  tracer, cfg, sharded)
            records, failures = phase["records"], phase["failures"]
        else:
            start = time.perf_counter()
            records, failures = _drive(tier.frontend, perm, kinds, warm,
                                       len(kinds), start + seconds, clients,
                                       tracer, cfg["check_every"])
            window = time.perf_counter() - start
        peak_mb = self_peak_rss_mb() + (children_pss_mb() if sharded else 0)
    finally:
        tier.close()

    for message in failures:
        result.mismatch(message)
    result.attempted = len(records) + len(failures)
    checked = _check(result, records, catalog, perm, sharded)
    print(f"  input: {cfg['nodes']}x{cfg['dim']} float64 catalog, "
          f"{clients} closed-loop clients, {SCORE_SHARE:.0%} score_link; "
          f"{checked} sampled answers checked against the oracle")

    if trace:
        name = "serve_sharded" if sharded else "serve_inproc"
        tracer.write_jsonl(out_dir / f"trace-{name}-seed{seed}.jsonl")
        _layers(result, phase, sharded)
        add_index_topk(result, catalog, np.random.default_rng([seed, 2]),
                       cfg["index_reps"])
        return result

    topk = [r[2] for r in records if not r[1]]
    score = [r[2] for r in records if r[1]]
    result.add("setup_s", median(setups), "s",
               f"median of {len(setups)} set-ups (start frontend + publish "
               f"catalog): {', '.join(f'{s:.3f}' for s in setups)}")
    result.add("peak_rss_mb", peak_mb, "MiB",
               "benchmark process VmHWM" + (" + shard workers' PSS at the "
                                            "end of the timed region"
                                            if sharded else ""))
    add_latency(result, "op_p50_ms", "op_tail_ms", topk, "top_k requests")
    add_latency(result, "score_p50_ms", None, score, "score_link requests")
    per_second = completions_per_window(
        [r[4] - start for r in records], window)
    result.add("throughput_per_s", median(per_second), "requests/s",
               f"median over {len(per_second)} one-second windows; "
               f"{len(records)} requests in {window:.2f} s")
    return result


def _traced_phase(frontend, perm, kinds, first: int, clients: int,
                  tracer: Tracer, cfg, sharded: bool) -> dict:
    """Alternate untraced and traced blocks of requests.

    Alternating (rather than one untraced block, then one traced block)
    exposes both to the same host conditions, so their difference is
    the tracing overhead and not the host's drift.  The ``Recorder`` is
    installed for the traced blocks only; worker-side counters, which
    the workers keep for their whole lifetime, are read before and
    after and cover both kinds of block.
    """
    from repro.observability import Recorder, use_recorder

    block = cfg["traced"] // 4
    recorder = Recorder()
    before = frontend.worker_metrics() if sharded else None
    out = {"records": [], "failures": [], "traced": [], "recorder": recorder,
           "seconds": {False: 0.0, True: 0.0}}
    for b in range(8):
        traced = b % 2 == 1
        tracer.enabled = traced
        start = first + b * block
        t0 = time.perf_counter()
        with use_recorder(recorder if traced else None):
            records, failures = _drive(frontend, perm, kinds, start,
                                       start + block, float("inf"), clients,
                                       tracer, cfg["check_every"])
        out["seconds"][traced] += time.perf_counter() - t0
        out["records"] += records
        out["failures"] += failures
        if traced:
            out["traced"] += records
    tracer.enabled = False
    if sharded:
        after = frontend.worker_metrics()
        out["worker_gemm_rows"] = (
            after["counters"].get("serving.index.gemm_rows", 0)
            - before["counters"].get("serving.index.gemm_rows", 0))
    return out


def hist_mean(recorder, prefix: str, suffix: str) -> tuple[float, int]:
    """Mean and count over every histogram named ``prefix...suffix``."""
    total, count = 0.0, 0
    for name, hist in recorder.histograms.items():
        if name.startswith(prefix) and name.endswith(suffix):
            total += hist.total
            count += hist.count
    return (total / count if count else 0.0), count


def add_shard_layers(result: Result, recorder, requests: int,
                     gemm_rows: float, topk: int) -> None:
    """Router and worker figures of a sharded tier, program-reported.

    ``recorder`` saw ``requests`` routed requests; ``gemm_rows`` is the
    workers' ``serving.index.gemm_rows`` growth over ``topk`` top-k
    requests (workers count for their whole lifetime).
    """
    mean, count = hist_mean(recorder, "serving.shard.router_overhead_s", "")
    result.add("serving.router_overhead_ms", mean * 1e3, "ms",
               f"program-reported gather wall minus slowest worker, mean "
               f"of {count}")
    mean, count = hist_mean(recorder, "serving.shard.", ".seconds")
    result.add("serving.worker_service_ms", mean * 1e3, "ms",
               f"program-reported worker service time, mean of {count} "
               f"shard sub-requests")
    fetches = recorder.counters.get("serving.shard.vector_fetches", 0)
    result.add("serving.vector_fetches_per_query", fetches / requests,
               "count", f"{fetches:.0f} fetches / {requests} requests")
    result.add("serving.gemm_rows_per_query", gemm_rows / topk, "rows",
               f"worker serving.index.gemm_rows / {topk} top_k")


def _layers(result: Result, phase: dict, sharded: bool) -> None:
    recorder, traced = phase["recorder"], phase["traced"]
    n = len(traced)
    counters = recorder.counters
    topk = sum(1 for r in traced if not r[1])
    base = f"{n} traced requests, {topk} top_k"
    untraced_s, traced_s = phase["seconds"][False], phase["seconds"][True]
    result.add("trace.overhead_pct", 100.0 * (traced_s / untraced_s - 1.0),
               "%", f"wall of 4 traced vs 4 untraced alternating blocks of "
               f"{n // 4} requests")
    if sharded:
        add_shard_layers(result, recorder, n, phase["worker_gemm_rows"],
                         sum(1 for r in phase["records"] if not r[1]))
        return
    hits = counters.get("serving.index.cache_hits", 0)
    misses = counters.get("serving.index.cache_misses", 0)
    lookups = hits + misses
    size, batches = hist_mean(recorder, "serving.batch.size", "")
    wait, waits = hist_mean(recorder, "serving.batch.wait_s", "")
    result.add("serving.batch_size", size, "requests",
               f"mean over {batches} flushed micro-batches")
    result.add("serving.batch_wait_ms", wait * 1e3, "ms",
               f"mean over {waits} queued requests")
    result.add("serving.cache_hit_ratio", hits / lookups if lookups else 0.0,
               "ratio", f"{hits:.0f} hits / {lookups:.0f} top_k lookups")
    rows = counters.get("serving.index.gemm_rows", 0)
    result.add("serving.gemm_rows_per_query", rows / topk if topk else 0,
               "rows", f"serving.index.gemm_rows / {base}")
