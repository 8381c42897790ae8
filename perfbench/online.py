"""``online_ingest``: one edge batch from enqueue to a routed answer.

A closed loop with one batch in flight: each op puts one batch on an
``IngestQueue``; the ``StreamController`` drain thread appends it to the
WAL (fsync on) and the ``DynamicTemporalGraph``, its ``EveryNEdges``
policy (keyed on edges, never on time) triggers
``IncrementalEmbedder.update``, whose publish fans out through
``ShardedPublisher.attach`` to a 2-shard tier.  The op ends when a
routed ``top_k`` for a node of the batch answers at the new version.
An O(delta) refresh shows here and not in ``batch_lp``; this is also the
write side of the tier ``serve_sharded`` reads.

For the traced run the benchmark passes subclasses of the WAL, graph,
embedder and publisher whose public methods open benchmark spans
around the inherited call; nothing inside the program changes.
"""

from __future__ import annotations

import gc
import shutil
import threading
import time

import numpy as np

from perfbench.core import (
    SPILL_TOLERANCE_S,
    Result,
    Tracer,
    add_latency,
    breakdown,
    children_pss_mb,
    email_graph,
    mean_self_ms,
    median,
    self_peak_rss_mb,
)
from perfbench.serve import add_index_topk, add_shard_layers

EMBED_SEED = 11
TOP_K = 10
WAIT_S = 60.0
PROFILES = {
    # ~8.5k nodes, ~115k base edges.
    "full": {"scale": 0.1, "batch": 64, "setups": 2, "warmup": 5,
             "traced": 30, "checks": 16},
    "tiny": {"scale": 0.01, "batch": 16, "setups": 2, "warmup": 2,
             "traced": 4, "checks": 4},
}

LAYERS = ("stream.wal_append_ms", "stream.wal_bytes", "graph.append_ms",
          "graph.snapshot_ms", "tasks.update_ms", "tasks.affected_nodes",
          "serving.publish_ms", "serving.route_topk_ms", "stream.handoff_ms",
          "walk.steps", "embedding.pairs", "embedding.train_ms",
          "serving.index_topk_ms", "serving.index_topk_slice_ms",
          "serving.router_overhead_ms", "serving.worker_service_ms",
          "serving.vector_fetches_per_query", "serving.gemm_rows_per_query",
          "trace.overhead_pct", "trace.unattributed_pct")


def live_batch(base, seed: int, index: int, size: int):
    """Batch ``index`` of the live tape: endpoints resampled from the
    base graph's edges, timestamps strictly after everything before."""
    from repro.graph import TemporalEdgeList

    rng = np.random.default_rng([seed, 0, index])
    n = len(base)
    t_last = float(base.timestamps.max())
    stamps = t_last + 1.0 + index * size + np.arange(size, dtype=np.float64)
    return TemporalEdgeList(base.src[rng.integers(0, n, size)],
                            base.dst[rng.integers(0, n, size)], stamps,
                            num_nodes=base.num_nodes)


def _traced_classes(tracer: Tracer):
    from repro.graph import DynamicTemporalGraph
    from repro.serving import ShardedPublisher
    from repro.stream import WriteAheadLog
    from repro.tasks.incremental import IncrementalEmbedder

    class TracedWal(WriteAheadLog):
        def append(self, edges):
            with tracer.span("stream.wal_append"):
                return super().append(edges)

    class TracedGraph(DynamicTemporalGraph):
        def append(self, new_edges):
            with tracer.span("graph.append"):
                return super().append(new_edges)

        def graph(self):
            with tracer.span("graph.snapshot"):
                return super().graph()

    class TracedEmbedder(IncrementalEmbedder):
        def update(self):
            with tracer.span("tasks.update"):
                return super().update()

    class TracedPublisher(ShardedPublisher):
        def publish(self, matrix, generation=0):
            with tracer.span("serving.publish"):
                return super().publish(matrix, generation)

    return TracedWal, TracedGraph, TracedEmbedder, TracedPublisher


def _worker_gemm_rows(frontend) -> float:
    return frontend.worker_metrics()["counters"].get(
        "serving.index.gemm_rows", 0.0)


class _Stack:
    """One set-up of the online path: graph, embedder, tier, publisher."""

    def __init__(self, base, classes) -> None:
        from repro.serving import EmbeddingStore, ShardedFrontend, ShardPlan

        _wal_cls, graph_cls, embedder_cls, publisher_cls = classes
        self.dynamic = graph_cls(base)
        self.store = EmbeddingStore()
        self.embedder = embedder_cls(self.dynamic, seed=EMBED_SEED,
                                     store=self.store)
        self.frontend = ShardedFrontend(ShardPlan(2, "hash"))
        try:
            self.frontend.start()
            self.embedder.rebuild()
            self.publisher = publisher_cls(self.frontend)
            self.publisher.attach(self.store)  # the first publish
        except BaseException:
            self.frontend.close()
            raise

    def close(self) -> None:
        self.publisher.detach()
        self.frontend.close()


def run(seed: int, seconds: float, trace: bool, profile: str,
        out_dir) -> Result:
    from repro.graph import DynamicTemporalGraph
    from repro.observability import Recorder, use_recorder
    from repro.serving import ShardedPublisher
    from repro.stream import (EveryNEdges, IngestQueue, StreamController,
                              WriteAheadLog)
    from repro.tasks.incremental import IncrementalEmbedder

    cfg = PROFILES[profile]
    size = cfg["batch"]
    base = email_graph(cfg["scale"], seed)
    tracer = Tracer()
    classes = (_traced_classes(tracer) if trace else
               (WriteAheadLog, DynamicTemporalGraph, IncrementalEmbedder,
                ShardedPublisher))
    result = Result()

    setups, stack = [], None
    for _ in range(cfg["setups"]):
        if stack is not None:
            stack.close()
            # Free it before the next set-up allocates and forks, so the
            # new workers never share pages that are freed later.
            stack = None
            gc.collect()
        t0 = time.perf_counter()
        stack = _Stack(base, classes)
        setups.append(time.perf_counter() - t0)

    wal_dir = out_dir / f"wal-online_ingest-seed{seed}"
    shutil.rmtree(wal_dir, ignore_errors=True)
    published = threading.Event()
    stack.store.subscribe(lambda _snapshot: published.set())
    queue = IngestQueue(max_edges=4 * size, policy="block")
    controller = StreamController(
        stack.dynamic, queue, wal=classes[0](wal_dir, sync=True),
        embedder=stack.embedder, policy=EveryNEdges(size),
        final_refresh=False)
    sent = []
    recorder = Recorder()

    def tick(index: int) -> float:
        batch = live_batch(base, seed, index, size)
        sent.append(batch)
        published.clear()
        t0 = time.perf_counter()
        with tracer.op(index):
            queue.put(batch)
            if not published.wait(WAIT_S):
                raise TimeoutError(f"batch {index} never reached the tier")
            with tracer.span("serving.route_topk"):
                stack.frontend.top_k(int(batch.src[0]), TOP_K)
        elapsed = time.perf_counter() - t0
        if stack.frontend.version != index + 2:
            result.mismatch(f"tick {index} answered at version "
                            f"{stack.frontend.version}, not {index + 2}")
        return elapsed

    durations: list[float] = []
    untraced: list[float] = []
    traced_ticks: list[int] = []
    try:
        with controller:
            ticks = 0
            for _ in range(cfg["warmup"]):
                tick(ticks)
                ticks += 1
            if trace:
                # Untraced and traced ticks alternate, so both see the
                # same host conditions and the graph at the same size.
                rows_before = _worker_gemm_rows(stack.frontend)
                for i in range(2 * cfg["traced"]):
                    tracer.enabled = traced = i % 2 == 1
                    with use_recorder(recorder if traced else None):
                        elapsed = tick(ticks)
                    if traced:
                        durations.append(elapsed)
                        traced_ticks.append(ticks)
                    else:
                        untraced.append(elapsed)
                    ticks += 1
                tracer.enabled = False
                gemm_rows = _worker_gemm_rows(stack.frontend) - rows_before
            else:
                start = time.perf_counter()
                while time.perf_counter() - start < seconds:
                    result.attempted += 1
                    try:
                        durations.append(tick(ticks))
                    except TimeoutError as exc:
                        result.mismatch(str(exc))
                        break
                    ticks += 1
            if trace:
                result.attempted = len(durations)
            peak_mb = self_peak_rss_mb() + children_pss_mb()
        _check(result, stack, wal_dir, sent, ticks, cfg, seed)
        final = np.array(stack.store.snapshot().matrix)
    finally:
        stack.close()
        shutil.rmtree(wal_dir, ignore_errors=True)

    print(f"  input: base {base.num_nodes} nodes, {len(base)} edges; "
          f"{ticks} ticks of {size} edges ({cfg['warmup']} warm-up)")
    if trace:
        _layers(result, tracer, recorder, stack, traced_ticks, untraced,
                durations, final, out_dir, seed)
        add_shard_layers(result, recorder, len(durations), gemm_rows,
                         len(durations) + len(untraced))
        return result
    result.add("setup_s", median(setups), "s",
               f"median of {len(setups)} set-ups (spawn tier + rebuild + "
               f"first publish): {', '.join(f'{s:.3f}' for s in setups)}")
    result.add("peak_rss_mb", peak_mb, "MiB",
               "benchmark process VmHWM + shard workers' PSS at the end "
               "of the timed region")
    add_latency(result, "op_p50_ms", "op_tail_ms", durations, "ticks")
    result.add("throughput_per_s", size / median(durations), "edges/s",
               f"{size} edges / median tick seconds")
    return result


def _check(result: Result, stack: _Stack, wal_dir, sent, ticks: int, cfg,
           seed: int) -> None:
    """WAL replay, final version and routed answers vs the oracle."""
    from repro.serving import EmbeddingStore, RecommendationIndex
    from repro.stream import replay

    replayed = replay(wal_dir)
    if len(replayed.batches) != len(sent) or not all(
            np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)
            and a.timestamps.tobytes() == b.timestamps.tobytes()
            for a, b in zip(replayed.batches, sent)):
        result.mismatch(f"WAL replay ({len(replayed.batches)} batches) "
                        f"differs from the {len(sent)} acked batches")
    if stack.frontend.version != ticks + 1:
        result.mismatch(f"final routed version {stack.frontend.version} "
                        f"!= ticks + 1 = {ticks + 1}")
    oracle_store = EmbeddingStore()
    oracle_store.publish(stack.store.snapshot().matrix, generation=0)
    oracle = RecommendationIndex(oracle_store, cache_size=0)
    rng = np.random.default_rng([seed, 1])
    nodes = np.concatenate([b.src for b in sent] + [b.dst for b in sent])
    for node in rng.choice(nodes, size=cfg["checks"], replace=False):
        ids, scores = stack.frontend.top_k(int(node), TOP_K)
        want_ids, want_scores = oracle.top_k(int(node), TOP_K)
        if not (np.array_equal(ids, want_ids)
                and scores.tobytes() == want_scores.tobytes()):
            result.mismatch(f"routed top-{TOP_K} of node {node} differs "
                            f"from the single-process oracle")


def _layers(result: Result, tracer: Tracer, recorder, stack: _Stack,
            traced_ticks: list[int], untraced: list[float],
            traced: list[float], final, out_dir, seed: int) -> None:

    tracer.write_jsonl(out_dir / f"trace-online_ingest-seed{seed}.jsonl")
    ops = breakdown(tracer.spans)
    n = len(ops)
    base = f"mean over {n} traced ticks"
    for name in ("stream.wal_append", "graph.append", "graph.snapshot",
                 "tasks.update", "serving.publish", "serving.route_topk"):
        result.add(f"{name}_ms", mean_self_ms(ops, name), "ms",
                   f"self time, {base}")
    layer_sum = sum(sum(o.self_seconds.values()) for o in ops.values()) / n
    untraced_mean = sum(untraced) / len(untraced)
    traced_mean = sum(traced) / len(traced)
    result.add("stream.handoff_ms", 1e3 * (untraced_mean - layer_sum), "ms",
               f"untraced mean tick {untraced_mean * 1e3:.2f} ms minus "
               f"traced mean layer sum {layer_sum * 1e3:.2f} ms")
    result.add("trace.overhead_pct", 100.0 * (traced_mean / untraced_mean
                                              - 1.0), "%",
               f"{len(traced)} traced vs {len(untraced)} untraced ticks, "
               f"alternating")
    unattributed = sum(o.root_self for o in ops.values()) / n
    result.add("trace.unattributed_pct", 100.0 * unattributed / traced_mean,
               "%", "tick wall not covered by a layer span (queue, drain "
               "thread wake, publish event)")
    counters = recorder.counters
    result.add("stream.wal_bytes", counters.get("stream.wal.bytes", 0) / n,
               "bytes", f"per tick, {base} (Recorder)")
    result.add("walk.steps", counters.get("walk.steps", 0) / n, "count",
               f"per tick, {base} (Recorder)")
    result.add("embedding.pairs", counters.get("sgns.pairs", 0) / n,
               "count", f"sgns.pairs per tick, {base} (Recorder)")
    result.add("embedding.train_ms",
               1e3 * recorder.span_seconds("sgns_epoch") / n, "ms",
               "program-reported sgns_epoch spans per tick; inside "
               "tasks.update")
    # reports[0] is the set-up's rebuild; tick t produced reports[t + 1].
    reports = [stack.embedder.reports[t + 1] for t in traced_ticks]
    result.add("tasks.affected_nodes",
               sum(r.affected_nodes for r in reports) / len(reports),
               "count", f"UpdateReport.affected_nodes, {base}")
    spill = max(o.spill for o in ops.values())
    if spill > SPILL_TOLERANCE_S:
        print(f"  note: a layer span ran {spill * 1e3:.2f} ms outside its "
              f"tick (tolerance {SPILL_TOLERANCE_S * 1e3:.0f} ms)")
    add_index_topk(result, final, np.random.default_rng([seed, 2]))
