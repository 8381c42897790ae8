"""``batch_lp``: the paper's Table III path, one link-prediction run per op.

Each op is ``Pipeline(PipelineConfig()).run_link_prediction(edges,
seed)`` with a fixed pipeline seed on the ``ia_email_like(scale=0.02)``
graph, its nodes relabeled by the benchmark seed (serial; the defaults
K=10, L=6, d=8).
``embedding`` and ``nn`` do almost all the work while ``stream`` and
``serving`` sit idle, so this is the no-change control for every
online-path change.

The traced run replays the op as its four public calls —
``TemporalGraph.from_edge_list``, ``make_walk_engine(...).run``,
``train_embeddings`` and ``LinkPredictionTask.run`` — each in its own
span, and requires the AUC to match the pipeline's bit for bit, which
shows the decomposition is the same computation.
"""

from __future__ import annotations

import time

from perfbench.core import (
    Result,
    Tracer,
    add_latency,
    breakdown,
    email_graph,
    mean_self_ms,
    median,
    self_peak_rss_mb,
)

PIPELINE_SEED = 7
PROFILES = {
    # ~1.7k nodes, 22,961 edges.
    "full": {"scale": 0.02, "auc_floor": 0.8, "traced_ops": 2},
    "tiny": {"scale": 0.002, "auc_floor": 0.5, "traced_ops": 2},
}

#: Per-layer metrics this workload measures (the rest read 0 here).
LAYERS = ("graph.csr_build_ms", "walk.run_ms", "walk.steps",
          "embedding.train_ms", "embedding.pairs", "embedding.pairs_per_s",
          "tasks.linkpred_ms", "tasks.prep_ms", "nn.train_ms",
          "tasks.test_ms", "trace.overhead_pct", "trace.unattributed_pct")


def _check_auc(result: Result, aucs: list[float], floor: float) -> None:
    if any(a < floor for a in aucs):
        result.mismatch(f"AUC below the floor {floor}: {min(aucs)!r}",
                        sum(a < floor for a in aucs))
    if len(set(aucs)) != 1:
        result.mismatch(f"AUC differs between ops of one run: "
                        f"{sorted(set(aucs))!r}", len(aucs) - 1)


def run(seed: int, seconds: float, trace: bool, profile: str,
        out_dir) -> Result:
    cfg = PROFILES[profile]
    t0 = time.perf_counter()
    from repro import Pipeline, PipelineConfig
    import_s = time.perf_counter() - t0

    edges = email_graph(cfg["scale"], seed)
    result = Result()

    def op():
        return Pipeline(PipelineConfig()).run_link_prediction(
            edges, seed=PIPELINE_SEED).task_result.auc

    t0 = time.perf_counter()
    aucs = [op()]  # warm-up: lazy imports, allocator and cache state
    warmup_s = time.perf_counter() - t0

    if trace:
        _run_traced(result, edges, cfg, op, aucs, out_dir, seed)
        _check_auc(result, aucs, cfg["auc_floor"])
        return result

    durations: list[float] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        try:
            aucs.append(op())
        except Exception as exc:  # a failed op is counted, not fatal
            result.mismatch(f"op raised {exc!r}")
        durations.append(time.perf_counter() - t0)
    result.attempted = len(durations)
    _check_auc(result, aucs, cfg["auc_floor"])

    print(f"  input: {edges.num_nodes} nodes, {len(edges)} edges; "
          f"pipeline seed {PIPELINE_SEED}; AUC {aucs[0]!r}")
    result.add("setup_s", import_s + warmup_s, "s",
               f"import repro {import_s:.3f} s + one warm-up op "
               f"{warmup_s:.3f} s")
    result.add("peak_rss_mb", self_peak_rss_mb(), "MiB",
               "VmHWM of the single benchmark process")
    add_latency(result, "op_p50_ms", "op_tail_ms", durations, "ops")
    result.add("throughput_per_s", len(edges) / median(durations),
               "edges/s", "input edges / median op seconds")
    result.add("auc", aucs[0], "1", f"LP test AUC, identical over "
               f"{len(aucs)} ops incl. warm-up")
    return result


def _run_traced(result: Result, edges, cfg, op, aucs, out_dir,
                seed: int) -> None:
    from repro import LinkPredictionTask, TemporalGraph, train_embeddings
    from repro.observability import Recorder, use_recorder
    from repro.rng import make_rng
    from repro.tasks import PipelineConfig
    from repro.walk.batched import make_walk_engine

    n = cfg["traced_ops"]
    pcfg = PipelineConfig()
    tracer = Tracer()
    tracer.enabled = True
    untraced, steps, pairs, task_results = [], [], [], []
    for i in range(n):
        # An untraced pipeline op, then the same op traced: alternating
        # exposes both to the same host conditions.
        t0 = time.perf_counter()
        aucs.append(op())
        untraced.append(time.perf_counter() - t0)
        recorder = Recorder()
        with use_recorder(recorder), tracer.op(i):
            rng = make_rng(PIPELINE_SEED)
            with tracer.span("graph.csr_build"):
                graph = TemporalGraph.from_edge_list(edges)
            with tracer.span("walk.run"):
                corpus = make_walk_engine(graph, sampler=pcfg.sampler).run(
                    pcfg.walk, seed=rng)
            with tracer.span("embedding.train"):
                embeddings, _stats = train_embeddings(
                    corpus, graph.num_nodes, config=pcfg.sgns,
                    batch_sentences=pcfg.batch_sentences, seed=rng)
            with tracer.span("tasks.linkpred"):
                task = LinkPredictionTask(pcfg.link_prediction).run(
                    embeddings, edges, seed=rng)
        aucs.append(task.auc)
        task_results.append(task)
        steps.append(recorder.counters.get("walk.steps", 0.0))
        pairs.append(recorder.counters.get("sgns.pairs", 0.0))
    result.attempted = len(aucs)
    tracer.write_jsonl(out_dir / f"trace-batch_lp-seed{seed}.jsonl")

    ops = breakdown(tracer.spans)
    traced_wall = sum(o.wall for o in ops.values()) / len(ops)
    untraced_wall = sum(untraced) / len(untraced)
    train_ms = mean_self_ms(ops, "embedding.train")
    base = f"mean over {n} traced ops"
    for name in ("graph.csr_build", "walk.run", "embedding.train",
                 "tasks.linkpred"):
        result.add(f"{name}_ms", mean_self_ms(ops, name), "ms",
                   f"self time, {base}")
    result.add("walk.steps", steps[0], "count", "per op (Recorder)")
    result.add("embedding.pairs", pairs[0], "count",
               "sgns.pairs per op (Recorder)")
    result.add("embedding.pairs_per_s", pairs[0] / (train_ms / 1e3),
               "pairs/s", "embedding.pairs / embedding.train_ms")
    for metric, field in (("tasks.prep_ms", "data_prep_seconds"),
                          ("nn.train_ms", "train_seconds"),
                          ("tasks.test_ms", "test_seconds")):
        value = sum(getattr(t, field) for t in task_results) / n
        result.add(metric, value * 1e3, "ms",
                   f"program-reported TaskResult.{field}, {base}")
    result.add("trace.overhead_pct", 100.0 * (traced_wall / untraced_wall
                                              - 1.0), "%",
               f"traced mean op {traced_wall * 1e3:.1f} ms vs untraced "
               f"{untraced_wall * 1e3:.1f} ms ({n} ops each, alternating)")
    unattributed = sum(o.root_self for o in ops.values()) / len(ops)
    result.add("trace.unattributed_pct", 100.0 * unattributed / traced_wall,
               "%", "op wall not covered by a layer span")
    if len(set(steps)) != 1 or len(set(pairs)) != 1:
        result.mismatch(f"work counts differ between identical ops: "
                        f"steps {steps}, pairs {pairs}")
