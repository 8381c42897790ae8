"""Command-line interface.

The paper's artifact drives everything through shell scripts
(``build_linkpred_run.sh`` etc.) plus two Python utilities
(``preprocess_dataset.py``, ``generate_synthetic.py``).  This module is
the equivalent front door:

- ``repro generate``    — synthetic graphs (Table II shapes or plain ER)
  written as ``.wel`` / labeled ``.npz`` bundles;
- ``repro preprocess``  — clean a raw edge list into normalized ``.wel``
  (strip comments, normalize timestamps), like the artifact's script;
- ``repro linkpred``    — end-to-end link prediction on a ``.wel`` file
  or a named dataset shape;
- ``repro nodeclass``   — end-to-end node classification on a labeled
  ``.npz`` bundle or a named dataset shape;
- ``repro characterize``— the hardware study (instruction mixes, GPU
  stalls, thread scaling) on a synthetic ER graph;
- ``repro serve-sim``, ``repro stream-sim``, ``repro pipeline-sim`` —
  three presets of one online-deployment runner (:func:`_run_sim`):
  split an edge stream into an initial graph and live batches, build
  the incremental embedder, serve it (the in-process frontend at
  ``--shards 1``, the replicated sharded tier of
  :mod:`repro.serving.sharding` above), feed the live batches through
  the bounded ingest queue into the
  :class:`~repro.stream.controller.StreamController` (optional WAL
  append, then graph apply, then policy-driven refresh), and drive
  the tier with a closed-loop load generator.  ``serve-sim`` defaults
  to one shard with no live batches and refreshes after every batch
  (``--update-batches``); ``stream-sim`` always logs to a WAL, offers
  every backpressure and refresh policy, and ``--replay-only``
  recovers and reports a previous run's WAL (how the CI stream-smoke
  job verifies crash recovery); ``pipeline-sim`` always runs the
  :class:`~repro.serving.controlplane.ControlPlane` over the sharded
  tier, which respawns chaos kills.  ``--autoscale``,
  ``--kill-replica``, ``--replicas > 1`` and ``--rebalance-every``
  act on the sharded tier and are rejected at ``--shards 1``.

Every command takes ``--seed`` and the pipeline hyperparameters the
artifact exposes (walks, walk length, dimension, epochs...).  Run
``python -m repro <command> --help`` for details.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import sys
import threading
import time
from contextlib import ExitStack, closing, contextmanager
from typing import Iterator, Sequence

import numpy as np

from repro.bench.tables import render_table
from repro.embedding.trainer import SgnsConfig
from repro.errors import ReproError
from repro.graph import (
    TemporalEdgeList,
    TemporalGraph,
    compute_stats,
    generators,
)
from repro.graph.io import LabeledTemporalDataset, read_wel, write_wel
from repro.observability import Recorder, get_recorder, use_recorder
from repro.stream.wal import DEFAULT_SEGMENT_MAX_BYTES
from repro.tasks.link_prediction import LinkPredictionConfig
from repro.tasks.node_classification import NodeClassificationConfig
from repro.tasks.pipeline import Pipeline, PipelineConfig
from repro.tasks.training import TrainSettings
from repro.walk.config import WalkConfig

LP_SHAPES = ("ia-email", "wiki-talk", "stackoverflow")
NC_SHAPES = ("dblp3", "dblp5", "brain")


def _add_observability_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("observability")
    group.add_argument("--metrics-out", default=None, metavar="FILE",
                       help="write run counters/gauges/histograms as JSON "
                            "(see docs/observability.md)")
    group.add_argument("--trace-out", default=None, metavar="FILE",
                       help="write the span trace as JSONL, one span per "
                            "line (see docs/observability.md)")


def _add_pipeline_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "pipeline hyperparameters (paper defaults: K=10, L=6, d=8)"
    )
    group.add_argument("--walks", type=int, default=10,
                       help="random walks per node (K)")
    group.add_argument("--length", type=int, default=6,
                       help="maximum walk length in nodes (L)")
    group.add_argument("--bias", default="softmax-recency",
                       choices=["uniform", "softmax-late",
                                "softmax-recency", "linear"],
                       help="Eq. 1 transition bias")
    group.add_argument("--sampler", default="cdf",
                       choices=["cdf", "gumbel"],
                       help="walk step kernel: exact inverse-CDF (cdf) "
                            "or paper-faithful scan (gumbel)")
    group.add_argument("--dim", type=int, default=8,
                       help="embedding dimension (d)")
    group.add_argument("--w2v-epochs", type=int, default=5,
                       help="word2vec epochs")
    group.add_argument("--batch-sentences", type=int, default=1024,
                       help="word2vec batch size in sentences "
                            "(1 = sentence-at-a-time)")
    lp = LinkPredictionConfig().training
    nc = NodeClassificationConfig().training
    group.add_argument("--epochs", type=int, default=None,
                       help=f"classifier training epochs (default: the "
                            f"task's own, {lp.epochs} for linkpred, "
                            f"{nc.epochs} for nodeclass)")
    group.add_argument("--lr", type=float, default=None,
                       help=f"classifier learning rate (default: the "
                            f"task's own, {lp.learning_rate} for linkpred, "
                            f"{nc.learning_rate} for nodeclass)")
    group.add_argument("--target-accuracy", type=float, default=None,
                       help="stop training at this validation accuracy "
                            "(default: train every epoch)")
    group.add_argument("--directed", action="store_true",
                       help="walk the directed stream (default mirrors "
                            "each edge)")
    fault = parser.add_argument_group("checkpoint and resume")
    fault.add_argument("--checkpoint-dir", default=None,
                       help="persist each phase's artifact here (atomic, "
                            "keyed by config fingerprint + seed)")
    fault.add_argument("--resume", action="store_true",
                       help="load completed phases from --checkpoint-dir "
                            "instead of recomputing them")
    _add_observability_arguments(parser)
    parser.add_argument("--seed", type=int, default=0)


@contextmanager
def _observability(args: argparse.Namespace) -> Iterator[Recorder | None]:
    """Install an ambient recorder when --metrics-out/--trace-out ask
    for one, and flush the requested files on the way out (including on
    error, so a failed run still leaves a usable partial trace)."""
    metrics_out = getattr(args, "metrics_out", None)
    trace_out = getattr(args, "trace_out", None)
    if not metrics_out and not trace_out:
        yield None
        return
    recorder = Recorder()
    try:
        with use_recorder(recorder):
            yield recorder
    finally:
        if metrics_out:
            recorder.write_metrics(metrics_out)
            print(f"wrote metrics: {metrics_out}")
        if trace_out:
            recorder.write_trace(trace_out)
            print(f"wrote trace: {trace_out}")


def _training_from_args(args: argparse.Namespace,
                        default: TrainSettings) -> TrainSettings:
    """``default`` with only the classifier flags given on the command
    line replaced, so each task keeps its own schedule otherwise."""
    given = {name: value for name, value in (
        ("epochs", args.epochs), ("learning_rate", args.lr),
        ("target_accuracy", args.target_accuracy),
    ) if value is not None}
    return dataclasses.replace(default, **given)


def _pipeline_from_args(args: argparse.Namespace) -> Pipeline:
    config = PipelineConfig(
        walk=WalkConfig(
            num_walks_per_node=args.walks,
            max_walk_length=args.length,
            bias=args.bias,
        ),
        sgns=SgnsConfig(dim=args.dim, epochs=args.w2v_epochs),
        batch_sentences=args.batch_sentences,
        sampler=args.sampler,
        treat_undirected=not args.directed,
        link_prediction=LinkPredictionConfig(training=_training_from_args(
            args, LinkPredictionConfig().training)),
        node_classification=NodeClassificationConfig(
            training=_training_from_args(
                args, NodeClassificationConfig().training)),
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
    )
    return Pipeline(config)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_generate(args: argparse.Namespace) -> int:
    """``repro generate``: write a synthetic dataset to disk."""
    if args.dataset:
        data = generators.dataset_by_name(
            args.dataset, scale=args.scale, seed=args.seed
        )
        if isinstance(data, LabeledTemporalDataset):
            if not args.output.endswith(".npz"):
                print("error: labeled datasets must be written to .npz",
                      file=sys.stderr)
                return 2
            data.save(args.output)
            print(f"wrote {args.output}: {data.edges.num_nodes} nodes, "
                  f"{len(data.edges)} edges, {data.num_classes} classes")
        else:
            write_wel(data.sorted_by_time(), args.output)
            print(f"wrote {args.output}: {data.num_nodes} nodes, "
                  f"{len(data)} edges")
    else:
        edges = generators.erdos_renyi_temporal(
            args.nodes, args.edges, seed=args.seed
        )
        write_wel(edges.sorted_by_time(), args.output)
        print(f"wrote {args.output}: {edges.num_nodes} nodes, "
              f"{len(edges)} edges (Erdos-Renyi)")
    return 0


def cmd_preprocess(args: argparse.Namespace) -> int:
    """``repro preprocess``: normalize a raw edge list into .wel."""
    edges = read_wel(args.input, normalize=True)
    write_wel(edges.sorted_by_time(), args.output)
    print(f"wrote {args.output}: {edges.num_nodes} nodes, {len(edges)} "
          "edges, timestamps normalized to [0, 1]")
    return 0


def cmd_linkpred(args: argparse.Namespace) -> int:
    """``repro linkpred``: end-to-end link prediction."""
    if args.input:
        edges = read_wel(args.input)
        source = args.input
    else:
        edges = generators.dataset_by_name(args.dataset, seed=args.seed)
        source = f"{args.dataset} (synthetic shape)"
    stats = compute_stats(TemporalGraph.from_edge_list(edges))
    print(f"input: {source} — {stats.num_nodes} nodes, "
          f"{stats.num_edges} temporal edges")
    with _observability(args):
        result = _pipeline_from_args(args).run_link_prediction(
            edges, seed=args.seed
        )
    if result.cached_phases:
        print("cached phases: " + ", ".join(result.cached_phases))
    print(result.summary())
    return 0


def cmd_nodeclass(args: argparse.Namespace) -> int:
    """``repro nodeclass``: end-to-end node classification."""
    if args.input:
        dataset = LabeledTemporalDataset.load(args.input)
        source = args.input
    else:
        dataset = generators.dataset_by_name(args.dataset, seed=args.seed)
        source = f"{args.dataset} (synthetic shape)"
    print(f"input: {source} — {dataset.edges.num_nodes} nodes, "
          f"{len(dataset.edges)} edges, {dataset.num_classes} classes")
    with _observability(args):
        result = _pipeline_from_args(args).run_node_classification(
            dataset, seed=args.seed
        )
    if result.cached_phases:
        print("cached phases: " + ", ".join(result.cached_phases))
    print(result.summary())
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """``repro sweep``: Fig. 8-style hyperparameter sweep."""
    from repro.tasks.sweeps import sweep_dataset

    values = [int(v) for v in args.values.split(",")]
    if args.input:
        if args.input.endswith(".npz"):
            dataset = LabeledTemporalDataset.load(args.input)
        else:
            dataset = read_wel(args.input)
        source = args.input
    else:
        dataset = generators.dataset_by_name(args.dataset, seed=args.seed)
        source = f"{args.dataset} (synthetic shape)"
    print(f"sweeping {args.parameter} over {values} on {source} "
          f"({len(args.seeds.split(','))} seeds)")
    with _observability(args):
        result = sweep_dataset(
            dataset, args.parameter, values,
            seeds=tuple(int(s) for s in args.seeds.split(",")),
            base_walk=WalkConfig(num_walks_per_node=args.walks,
                                 max_walk_length=args.length, bias=args.bias),
            base_sgns=SgnsConfig(dim=args.dim, epochs=args.w2v_epochs),
        )
    print(render_table(result.rows(), title=f"accuracy vs {args.parameter}"))
    print(f"saturation point (1% tolerance): "
          f"{result.saturation_point(0.01)}")
    return 0


def cmd_characterize(args: argparse.Namespace) -> int:
    """``repro characterize``: the hardware study tables."""
    from repro.embedding.batched import BatchedSgnsTrainer
    from repro.hwmodel import (
        classifier_kernel,
        profile_classifier,
        profile_random_walk,
        profile_word2vec,
        scaling_curve,
        walk_kernel,
        word2vec_kernel,
    )
    from repro.walk.engine import TemporalWalkEngine

    edges = generators.erdos_renyi_temporal(args.nodes, args.edges,
                                            seed=args.seed)
    graph = TemporalGraph.from_edge_list(edges)
    print(f"synthetic ER graph: {graph.num_nodes} nodes, "
          f"{graph.num_edges} edges")

    with _observability(args):
        engine = TemporalWalkEngine(graph, sampler=args.sampler)
        with get_recorder().span("rwalk"):
            corpus = engine.run(
                WalkConfig(num_walks_per_node=args.walks,
                           max_walk_length=args.length, bias=args.bias),
                seed=args.seed,
            )
        walk_stats = engine.last_stats
        sgns = SgnsConfig(dim=args.dim, epochs=1)
        trainer = BatchedSgnsTrainer(sgns,
                                     batch_sentences=args.batch_sentences)
        with get_recorder().span("word2vec"):
            trainer.train(corpus, graph.num_nodes, seed=args.seed + 1)
        w2v_stats = trainer.last_stats
    dims = [(2 * args.dim, 32), (32, 1)]

    profiles = [
        profile_random_walk(walk_stats),
        profile_word2vec(w2v_stats, sgns),
        profile_classifier("train", dims, 10 * graph.num_edges, 128, True),
        profile_classifier("test", dims, graph.num_edges, 1024, False),
    ]
    print()
    print(render_table(
        [{"kernel": p.name, **{k: round(v, 3) for k, v in
                               p.fractions().items()}} for p in profiles],
        title="Dynamic instruction mix (Fig. 9 analogue)",
    ))

    kernels = [
        walk_kernel(walk_stats, graph),
        word2vec_kernel(w2v_stats, sgns, graph.num_nodes,
                        args.batch_sentences),
        classifier_kernel("train", dims, 128, 10 * graph.num_edges, True),
        classifier_kernel("test", dims, 1024, graph.num_edges, False),
    ]
    rows = []
    for kernel in kernels:
        report = kernel.report()
        rows.append({
            "kernel": report.name,
            "dominant stall": report.stalls.dominant(),
            "sm util": round(report.sm_utilization, 4),
            "time (s)": report.time_seconds,
        })
    print()
    print(render_table(rows, title="Modeled GPU kernels (Fig. 11 analogue)"))

    work = walk_stats.work_per_start_node + 1.0
    curve = scaling_curve(work, [1, 2, 4, 8, 16, 32, 64, 128])
    print()
    print(render_table(
        [{"threads": t, "speedup": round(s, 1)} for t, s in curve.items()],
        title="Walk-kernel thread scaling, work stealing (Fig. 10 analogue)",
    ))
    return 0


def _shard_row(recorder) -> dict:
    """One summary row of router-side ``serving.shard.*`` metrics.

    Covers publishes, fan-out, overhead, degradation, replica
    failovers, and rebalances; worker-internal metrics are pulled over
    separately by ``ShardedFrontend.worker_metrics`` and rendered by
    :func:`_worker_row`.
    """
    counters = recorder.counters
    fanin = recorder.histograms.get("serving.shard.gather_fanin")
    overhead = recorder.histograms.get("serving.shard.router_overhead_s")
    install = recorder.histograms.get("serving.shard.install_s")
    return {
        "publishes": int(counters.get("serving.shard.publishes", 0)),
        "version": int(recorder.gauges.get("serving.shard.version", 0)),
        "install s": round(install.total, 3) if install else 0.0,
        "topk": int(counters.get("serving.shard.requests.topk", 0)),
        "score": int(counters.get("serving.shard.requests.score", 0)),
        "mean fan-in": round(fanin.mean, 2) if fanin else 0.0,
        "router ms": (round(overhead.mean * 1e3, 3)
                      if overhead and overhead.count else 0.0),
        "degraded": int(
            counters.get("serving.shard.degraded_queries", 0)),
        "failovers": int(
            counters.get("serving.shard.replica.failovers", 0)),
        "rebalances": int(
            counters.get("serving.shard.rebalance.count", 0)),
        "stale retries": int(
            counters.get("serving.shard.stale_retries", 0)),
        "cache hits": int(counters.get("serving.shard.cache_hits", 0)),
    }


def _per_shard_rows(recorder, num_shards: int, wall: float) -> list[dict]:
    """Per-shard QPS / worker latency rows from the router's counters."""
    rows = []
    for shard in range(num_shards):
        requests = int(
            recorder.counters.get(f"serving.shard.{shard}.requests", 0))
        seconds = recorder.histograms.get(f"serving.shard.{shard}.seconds")
        rows.append({
            "shard": shard,
            "requests": requests,
            "qps": round(requests / wall, 1) if wall > 0 else 0.0,
            "mean ms": (round(seconds.mean * 1e3, 3)
                        if seconds and seconds.count else 0.0),
        })
    return rows


def _worker_row(recorder) -> dict:
    """Aggregated worker-internal metrics (``serving.shard.workers.*``).

    These counters accumulate inside the shard worker processes and are
    merged back by ``ShardedFrontend.worker_metrics`` at the end of the
    run — per-shard index GEMM rows, slice installs, and ANN internals
    that previously died with the workers.
    """
    counters = recorder.counters
    prefix = "serving.shard.workers."
    hits = counters.get(prefix + "serving.index.cache_hits", 0)
    misses = counters.get(prefix + "serving.index.cache_misses", 0)
    return {
        "workers": int(recorder.gauges.get(prefix + "reporting", 0)),
        "slice installs": int(
            counters.get(prefix + "serving.store.publishes", 0)),
        "gemm rows": int(
            counters.get(prefix + "serving.index.gemm_rows", 0)),
        "index cache hits": int(hits),
        "index cache misses": int(misses),
        "ann builds": int(counters.get(prefix + "serving.ann.builds", 0)),
        "ann queries": int(
            counters.get(prefix + "serving.ann.queries", 0)),
    }


def _parse_kill_replica(spec: str, num_shards: int,
                        num_replicas: int) -> tuple[int, int, float]:
    """Parse ``--kill-replica SHARD[:REPLICA[:DELAY_S]]``."""
    parts = spec.split(":")
    if len(parts) > 3:
        raise SystemExit(
            f"--kill-replica expects SHARD[:REPLICA[:DELAY_S]], "
            f"got {spec!r}")
    try:
        shard = int(parts[0])
        replica = int(parts[1]) if len(parts) > 1 else 0
        delay = float(parts[2]) if len(parts) > 2 else 0.2
    except ValueError:
        raise SystemExit(
            f"--kill-replica expects SHARD[:REPLICA[:DELAY_S]], "
            f"got {spec!r}") from None
    if not 0 <= shard < num_shards:
        raise SystemExit(
            f"--kill-replica shard {shard} out of range "
            f"[0, {num_shards})")
    if not 0 <= replica < num_replicas:
        raise SystemExit(
            f"--kill-replica replica {replica} out of range "
            f"[0, {num_replicas})")
    if delay < 0:
        raise SystemExit(f"--kill-replica delay must be >= 0, got {delay}")
    return shard, replica, delay


def _controlplane(args: argparse.Namespace, frontend, fault_plan):
    """Build the control plane from the policy knobs (started on enter)."""
    from repro.serving import ControlPlane, ControlPlaneConfig

    config = ControlPlaneConfig(
        health_period=args.health_period,
        max_respawns=args.max_respawns,
        skew_threshold=args.skew_threshold,
        skew_observations=args.skew_observations,
        rebalance_cooldown=args.rebalance_cooldown,
    )
    print(f"  control plane: sweeping every {config.health_period:.2f}s "
          f"(max {config.max_respawns} respawns/slot, skew >= "
          f"{config.skew_threshold:.1f}x over "
          f"{config.skew_observations} sweeps)")
    return ControlPlane(frontend, config, fault_plan=fault_plan)


def _settle_controlplane(frontend, controlplane, want_workers: int,
                         timeout: float = 10.0) -> None:
    """Give the control plane time to finish in-flight recovery.

    A chaos kill landing near the end of the load run would otherwise
    race shutdown: the drill's whole point is to observe the respawn,
    so the clean path waits (bounded) until every slot is live again —
    or the circuit breaker gave up on one — before stopping the loop.
    """
    recorder = get_recorder()
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        gave_up = recorder.counters.get(
            "serving.controlplane.respawn_giveup", 0)
        if frontend.alive_workers >= want_workers or gave_up:
            return
        time.sleep(controlplane.config.health_period)


def _controlplane_row(recorder) -> dict:
    """One summary row of the ``serving.controlplane.*`` metrics."""
    counters = recorder.counters
    prefix = "serving.controlplane."
    latency = recorder.histograms.get(prefix + "decision_latency_s")
    recovery = recorder.histograms.get(prefix + "recovery_seconds")
    return {
        "sweeps": int(counters.get(prefix + "sweeps", 0)),
        "respawns": int(counters.get(prefix + "respawns", 0)),
        "respawn failures": int(
            counters.get(prefix + "respawn_failures", 0)),
        "give-ups": int(counters.get(prefix + "respawn_giveup", 0)),
        "skew obs": int(counters.get(prefix + "skew_observations", 0)),
        "rebalances": int(
            counters.get(prefix + "rebalance_decisions", 0)),
        "dead workers": int(
            recorder.gauges.get(prefix + "dead_workers", 0)),
        "decision ms": (round(latency.mean * 1e3, 3)
                        if latency and latency.count else 0.0),
        "recovery s": (round(recovery.mean, 3)
                       if recovery and recovery.count else 0.0),
    }


def _add_controlplane_arguments(parser: argparse.ArgumentParser,
                                autoscale_flag: bool) -> None:
    """Control-plane policy knobs (shared by serve-sim and pipeline-sim).

    ``serve-sim`` gates the plane behind ``--autoscale``;
    ``pipeline-sim`` always runs it (it *is* the end-to-end loop).
    """
    group = parser.add_argument_group("control plane")
    if autoscale_flag:
        group.add_argument("--autoscale", action="store_true",
                           help="supervise the sharded tier: auto-respawn "
                                "dead replicas and rebalance on sustained "
                                "load skew (requires --shards > 1)")
    group.add_argument("--health-period", type=float, default=0.1,
                       help="seconds between control-plane health sweeps")
    group.add_argument("--max-respawns", type=int, default=5,
                       help="respawn attempts per replica slot before the "
                            "circuit breaker gives up (tier stays "
                            "degraded, never fork-loops)")
    group.add_argument("--skew-threshold", type=float, default=3.0,
                       help="max/mean per-shard request-rate ratio that "
                            "counts as skew")
    group.add_argument("--skew-observations", type=int, default=3,
                       help="consecutive skewed sweeps before a rebalance "
                            "is armed (hysteresis)")
    group.add_argument("--rebalance-cooldown", type=float, default=5.0,
                       help="minimum seconds between control-plane "
                            "rebalances (no flapping)")



def _ann_config(args: argparse.Namespace):
    """Build the IvfConfig for ``--index ivf`` runs (None otherwise)."""
    if args.index != "ivf":
        return None
    from repro.serving import IvfConfig

    return IvfConfig(
        nlist=args.nlist,
        nprobe=args.nprobe,
        recall_sample_every=args.ann_recall_every,
    )


def _ann_row(recorder) -> dict:
    """One summary row of the ``serving.ann.*`` recorder metrics."""
    counters = recorder.counters
    recall_hist = recorder.histograms.get("serving.ann.recall_at_k")
    build_hist = recorder.histograms.get("serving.ann.build_seconds")
    return {
        "builds": int(counters.get("serving.ann.builds", 0)),
        "build s": round(build_hist.total, 3) if build_hist else 0.0,
        "bytes": int(recorder.gauges.get("serving.ann.bytes", 0)),
        "ann queries": int(counters.get("serving.ann.queries", 0)),
        "cells probed": int(counters.get("serving.ann.cells_probed", 0)),
        "candidates": int(
            counters.get("serving.ann.candidates_scored", 0)),
        "fallbacks": int(counters.get("serving.ann.fallbacks", 0)),
        "recall samples": int(counters.get("serving.ann.recall_samples", 0)),
        "sampled recall": (round(recall_hist.mean, 3)
                           if recall_hist and recall_hist.count else ""),
    }


def _split_stream(ordered: TemporalEdgeList, holdback: float, batches: int
                  ) -> tuple[TemporalEdgeList, list[TemporalEdgeList]]:
    """Split a time-ordered stream into the initial graph and live batches.

    The last ``holdback`` fraction of the stream arrives as ``batches``
    live batches of ``held // batches`` edges each (at least one), the
    last batch taking the rest.  When there are more batches than
    held-back edges the stream runs out first: every held-back edge
    still arrives exactly once and no batch is empty.  ``batches <= 0``
    holds nothing back.
    """
    if batches <= 0:
        return ordered, []
    total = len(ordered)
    cut = int((1 - holdback) * total)
    step = max(1, (total - cut) // batches)
    bounds = [*range(cut, total, step)[:batches], total]
    live = [ordered.take(np.arange(start, stop))
            for start, stop in zip(bounds, bounds[1:])]
    return ordered.take(np.arange(cut)), live


def _check_sharded_flags(args: argparse.Namespace) -> None:
    """Reject the flags that only act on the sharded tier at one shard."""
    if args.shards > 1:
        return
    for flag, is_set in (("--autoscale (the control plane)", args.autoscale),
                         ("--kill-replica", args.kill_replica is not None),
                         ("--replicas", args.replicas > 1),
                         ("--rebalance-every", args.rebalance_every > 0)):
        if is_set:
            raise SystemExit(f"{flag} requires --shards > 1 (it acts on "
                             f"the sharded tier), got --shards {args.shards}")


@contextmanager
def _serving_tier(args: argparse.Namespace, store) -> Iterator:
    """Open the frontend the load runs against.

    One shard is the in-process :class:`ServingFrontend` reading
    ``store`` directly; more is the replicated sharded tier,
    which a :class:`ShardedPublisher` keeps in step with ``store``.
    """
    from repro.serving import (
        ServingConfig,
        ServingFrontend,
        ShardPlan,
        ShardedFrontend,
        ShardedPublisher,
        ShardedServingConfig,
    )

    if args.shards <= 1:
        config = ServingConfig(
            default_k=args.k,
            cache_size=args.cache_size,
            index=args.index,
            ann=_ann_config(args),
        )
        with ServingFrontend(store, config) as frontend:
            if frontend.ann is not None:
                # Serve the initial snapshot from the IVF index from the
                # first request (later publishes rebuild async).
                ready = frontend.ann.wait_ready(timeout=60.0)
                index = frontend.ann.current
                if ready and index is not None:
                    print(f"  ann: IVF index v{index.version} — "
                          f"{index.nlist} cells, nprobe {index.nprobe}, "
                          f"{index.nbytes / 1e6:.2f} MB, built in "
                          f"{index.build_seconds:.3f}s")
                else:
                    print("  ann: index not ready, serving exact fallback "
                          "until the build lands")
            yield frontend
        return
    plan = ShardPlan(args.shards, args.shard_plan)
    config = ShardedServingConfig(
        default_k=args.k,
        cache_size=args.cache_size,
        index=args.index,
        ann=_ann_config(args),
        replication_factor=args.replicas,
    )
    with ShardedFrontend(plan, config) as frontend:
        publisher = ShardedPublisher(frontend)
        # Installs the warm snapshot now and fans out every refresh the
        # stream controller publishes.
        publisher.attach(store)
        print(f"  shards: {plan.num_shards} x {args.replicas} workers "
              f"({plan.strategy} plan), serving version {frontend.version}")
        yield frontend
        # Pull worker-internal recorder state back to the router before
        # the workers go away.
        frontend.worker_metrics()
        publisher.detach()


def _chaos_threads(args: argparse.Namespace, frontend,
                   stop: threading.Event) -> list[threading.Thread]:
    """The ``--kill-replica`` and ``--rebalance-every`` drills, unstarted."""
    threads = []
    if args.kill_replica is not None:
        shard_id, replica, delay = _parse_kill_replica(
            args.kill_replica, args.shards, args.replicas)

        def killer() -> None:
            if not stop.wait(delay):
                frontend.kill_replica(shard_id, replica)
                print(f"  chaos: killed shard {shard_id} replica {replica} "
                      f"after {delay:.2f}s")

        threads.append(threading.Thread(target=killer, daemon=True,
                                        name="sim-kill"))
    if args.rebalance_every > 0:
        from repro.serving import ShardPlan

        other = "range" if args.shard_plan == "hash" else "hash"

        def rebalancer() -> None:
            strategies = itertools.cycle([other, args.shard_plan])
            while not stop.wait(args.rebalance_every):
                strategy = next(strategies)
                rebalanced = frontend.rebalance(
                    ShardPlan(args.shards, strategy))
                print(f"  rebalance: -> {strategy} plan in "
                      f"{rebalanced.seconds:.3f}s "
                      f"(drained={rebalanced.drained})")

        threads.append(threading.Thread(target=rebalancer, daemon=True,
                                        name="sim-rebalance"))
    return threads


def _run_sim(args: argparse.Namespace) -> int:
    """``serve-sim`` / ``stream-sim`` / ``pipeline-sim``: the online loop.

    The three commands are presets of this one runner; they differ only
    in the flags they expose and their defaults.  It splits the edge
    stream into an initial graph and live batches, optionally logs to a
    WAL, builds the incremental embedder, opens one serving tier,
    optionally runs the control plane and chaos drills, feeds the live
    batches through the ingest queue into the
    :class:`~repro.stream.controller.StreamController` while a
    closed-loop load generator queries the tier, and prints a summary
    table for each stage that ran.
    """
    from repro.faults import FaultPlan
    from repro.graph import DynamicTemporalGraph
    from repro.serving import EmbeddingStore, run_load
    from repro.stream import (
        AffectedFraction,
        EveryNEdges,
        IngestQueue,
        MaxStaleness,
        StreamController,
        WriteAheadLog,
    )
    from repro.tasks.incremental import IncrementalEmbedder

    if args.replay_only:
        dynamic, result = StreamController.recover(args.wal_dir)
        print(render_table(
            [{
                "segments": result.segments,
                "batches": len(result.batches),
                "edges": result.total_edges,
                "nodes": dynamic.num_nodes,
                "generation": dynamic.generation,
                "truncated bytes": result.truncated_bytes,
                "replay s": round(result.seconds, 4),
            }],
            title=f"recovered from WAL {args.wal_dir}",
        ))
        return 0
    _check_sharded_flags(args)

    if args.input:
        edges = read_wel(args.input)
        source = args.input
    else:
        edges = generators.erdos_renyi_temporal(args.nodes, args.edges,
                                                seed=args.seed)
        source = f"ER {args.nodes}x{args.edges} (synthetic)"
    initial, batches = _split_stream(edges.sorted_by_time(), args.holdback,
                                     args.batches)
    if args.refresh_policy == "staleness":
        policy = MaxStaleness(args.staleness_seconds)
    elif args.refresh_policy == "affected":
        policy = AffectedFraction(args.affected_fraction)
    else:
        policy = EveryNEdges(args.refresh_edges)

    fault_plan = FaultPlan.from_env()
    with _observability(args) as obs_recorder:
        recorder = obs_recorder if obs_recorder is not None else Recorder()
        with use_recorder(recorder), ExitStack() as stack:
            wal = None
            if args.wal_dir:
                wal = stack.enter_context(closing(WriteAheadLog(
                    args.wal_dir, segment_max_bytes=args.wal_segment_bytes,
                    sync=not args.no_wal_sync, fault_plan=fault_plan)))
            # The initial graph is WAL-logged too (as the first batch),
            # so --replay-only reconstructs the *entire* graph and the
            # recovered generation sequence matches the live one.
            dynamic = DynamicTemporalGraph()
            if len(initial):
                if wal is not None:
                    wal.append(initial)
                dynamic.append(initial)
            store = EmbeddingStore()
            embedder = IncrementalEmbedder(
                dynamic,
                walk_config=WalkConfig(num_walks_per_node=args.walks,
                                       max_walk_length=args.length,
                                       bias=args.bias),
                sgns_config=SgnsConfig(dim=args.dim,
                                       epochs=args.w2v_epochs),
                seed=args.seed,
                store=store,
                sampler=args.sampler,
            )
            build_start = time.perf_counter()
            embedder.rebuild()
            print(f"input: {source} — {dynamic.num_nodes} nodes, "
                  f"{dynamic.num_edges} edges initial; embeddings in "
                  f"{time.perf_counter() - build_start:.2f}s; "
                  f"{len(batches)} live batches to stream"
                  + (f"; WAL at {args.wal_dir}" if wal is not None
                     else ""))

            frontend = stack.enter_context(_serving_tier(args, store))
            controlplane = None
            if args.autoscale:
                controlplane = stack.enter_context(
                    _controlplane(args, frontend, fault_plan))
            stop = threading.Event()
            threads = _chaos_threads(args, frontend, stop)
            controller = None
            if batches:
                queue = IngestQueue(max_edges=args.queue_edges,
                                    policy=args.backpressure,
                                    rate_limit=args.rate_limit)
                # Entered last, so it stops first: the final drain and
                # refresh still publish to a live tier.
                controller = stack.enter_context(StreamController(
                    dynamic, queue, wal=wal, embedder=embedder,
                    policy=policy, fault_plan=fault_plan))

                def produce() -> None:
                    for edge_batch in batches:
                        if args.batch_interval > 0:
                            time.sleep(args.batch_interval)
                        queue.put(edge_batch)

                threads.append(threading.Thread(target=produce, daemon=True,
                                                name="sim-producer"))
            for thread in threads:
                thread.start()
            report = run_load(
                frontend,
                num_requests=args.requests,
                clients=args.clients,
                topk_fraction=args.topk_fraction,
                k=args.k,
                seed=args.seed,
            )
            stop.set()
            for thread in threads:
                thread.join()
            if controlplane is not None:
                _settle_controlplane(frontend, controlplane,
                                     args.shards * args.replicas)

        counters = recorder.counters
        tables = [([report.as_row()], "Closed-loop load (client side)")]
        if controller is not None:
            stats = controller.stats
            tables.append(([{
                "batches": stats.batches_applied,
                "edges": stats.edges_applied,
                "refreshes": stats.refreshes,
                "refresh s": round(stats.refresh_seconds, 2),
                "dropped": queue.dropped_batches,
                "rejected": queue.rejected_batches,
                "wal bytes": int(counters.get("stream.wal.bytes", 0)),
                "segments": wal.segment_count if wal is not None else 0,
                "generation": dynamic.generation,
            }], f"Streaming ingest ({args.backpressure} backpressure, "
                f"{policy.name} refresh)"))
        if args.shards > 1:
            tables += [
                ([_shard_row(recorder)], "Sharded tier (recorder)"),
                (_per_shard_rows(recorder, args.shards, report.seconds),
                 "Per-shard breakdown (recorder)"),
                ([_worker_row(recorder)],
                 "Worker internals (aggregated over replicas)"),
            ]
            if controlplane is not None:
                tables.append(([_controlplane_row(recorder)],
                               "Control plane (recorder)"))
        else:
            hits = counters.get("serving.index.cache_hits", 0)
            misses = counters.get("serving.index.cache_misses", 0)
            tables.append(([{
                "publishes": int(counters.get("serving.store.publishes", 0)),
                "served generation": int(store.generation),
                "cache hit rate": (round(hits / (hits + misses), 3)
                                   if hits + misses else 0.0),
                "gemm rows": int(counters.get("serving.index.gemm_rows", 0)),
            }], "Serving internals (recorder)"))
            if args.index == "ivf":
                tables.append(([_ann_row(recorder)],
                               "ANN index internals (recorder)"))
        for rows, title in tables:
            print()
            print(render_table(rows, title=title))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_input_arguments(parser: argparse.ArgumentParser, nodes: int,
                         edges: int) -> None:
    """The edge stream a sim command runs on: a file or synthetic ER."""
    parser.add_argument("--input", default=None,
                        help=".wel temporal graph (omit for synthetic ER)")
    parser.add_argument("--nodes", type=int, default=nodes,
                        help="ER nodes when --input is omitted")
    parser.add_argument("--edges", type=int, default=edges,
                        help="ER edges when --input is omitted")


def _add_embedding_arguments(parser: argparse.ArgumentParser, walks: int,
                             length: int, w2v_epochs: int) -> None:
    """Hyperparameters of the sims' incremental embedder."""
    group = parser.add_argument_group("embedding hyperparameters")
    group.add_argument("--sampler", default="cdf",
                       choices=["cdf", "gumbel"],
                       help="walk kernel for incremental refresh walks")
    group.add_argument("--walks", type=int, default=walks,
                       help="random walks per node (K)")
    group.add_argument("--length", type=int, default=length,
                       help="maximum walk length in nodes (L)")
    group.add_argument("--bias", default="softmax-recency",
                       choices=["uniform", "softmax-late",
                                "softmax-recency", "linear"],
                       help="Eq. 1 transition bias")
    group.add_argument("--dim", type=int, default=8,
                       help="embedding dimension (d)")
    group.add_argument("--w2v-epochs", type=int, default=w2v_epochs,
                       help="word2vec epochs")


def _add_load_arguments(group, clients: int, requests: int) -> None:
    """The closed-loop load generator's knobs."""
    group.add_argument("--clients", type=int, default=clients,
                       help="closed-loop client threads")
    group.add_argument("--requests", type=int, default=requests,
                       help="total requests across all clients")
    group.add_argument("--topk-fraction", type=float, default=0.5,
                       help="fraction of requests that are top-k (rest "
                            "are link scores)")
    group.add_argument("--k", type=int, default=10,
                       help="recommendations per top-k request")


def _add_frontend_arguments(group) -> None:
    """Cache and index knobs of the serving frontend."""
    group.add_argument("--cache-size", type=int, default=4096,
                       help="top-k LRU cache entries (0 disables)")
    group.add_argument("--index", default="exact",
                       choices=["exact", "ivf"],
                       help="top-k index: exact blocked scan (oracle) or "
                            "approximate IVF probing")
    group.add_argument("--nlist", type=int, default=None,
                       help="IVF cell count (default: ~sqrt(nodes))")
    group.add_argument("--nprobe", type=int, default=8,
                       help="IVF cells probed per query (= nlist probes "
                            "everything: exact results)")
    group.add_argument("--ann-recall-every", type=int, default=100,
                       help="shadow-check every Nth ANN query against the "
                            "exact oracle and record its recall (0 = off)")


def _add_shard_arguments(group, shards: int, replicas: int) -> None:
    """Layout of the sharded tier and its kill drill."""
    group.add_argument("--shards", type=int, default=shards,
                       help="shard worker processes (>1 serves through the "
                            "scatter/gather sharded tier)")
    group.add_argument("--shard-plan", default="hash",
                       choices=["hash", "range"],
                       help="node-id partitioner for --shards > 1")
    group.add_argument("--replicas", type=int, default=replicas,
                       help="worker replicas per shard slice (reads fan "
                            "out round-robin and fail over to a live "
                            "sibling; requires --shards > 1)")
    group.add_argument("--kill-replica", default=None,
                       metavar="SHARD[:REPLICA[:DELAY_S]]",
                       help="chaos drill: hard-kill one shard worker "
                            "DELAY_S seconds (default 0.2) into the load "
                            "run; a running control plane respawns it "
                            "(requires --shards > 1)")


def _add_ingest_arguments(group, refresh_edges: int, batches: int) -> None:
    """Ingest queue, every-n refresh, and the live-batch generator."""
    group.add_argument("--queue-edges", type=int, default=50_000,
                       help="ingest queue bound, in edges")
    group.add_argument("--refresh-edges", type=int, default=refresh_edges,
                       help="every-n refresh: edges per incremental "
                            "refresh")
    group.add_argument("--batches", type=int, default=batches,
                       help="live batches the generator streams (40%% of "
                            "the input is held back for them)")
    group.add_argument("--batch-interval", type=float, default=0.02,
                       help="seconds between generated batches")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Random walk-based temporal graph learning "
                    "(IISWC 2021 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic dataset")
    gen.add_argument("--dataset", choices=LP_SHAPES + NC_SHAPES,
                     help="Table II dataset shape (omit for plain ER)")
    gen.add_argument("--scale", type=float, default=None,
                     help="size scale for dataset shapes")
    gen.add_argument("--nodes", type=int, default=10_000,
                     help="ER node count")
    gen.add_argument("--edges", type=int, default=100_000,
                     help="ER edge count")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", required=True,
                     help=".wel for edge lists, .npz for labeled datasets")
    gen.set_defaults(func=cmd_generate)

    pre = sub.add_parser("preprocess",
                         help="normalize a raw edge list into .wel")
    pre.add_argument("-i", "--input", required=True)
    pre.add_argument("-o", "--output", required=True)
    pre.set_defaults(func=cmd_preprocess)

    lp = sub.add_parser("linkpred", help="run end-to-end link prediction")
    src = lp.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help=".wel temporal graph")
    src.add_argument("--dataset", choices=LP_SHAPES,
                     help="synthetic Table II shape")
    _add_pipeline_arguments(lp)
    lp.set_defaults(func=cmd_linkpred)

    nc = sub.add_parser("nodeclass",
                        help="run end-to-end node classification")
    src = nc.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help=".npz labeled dataset bundle")
    src.add_argument("--dataset", choices=NC_SHAPES,
                     help="synthetic Table II shape")
    _add_pipeline_arguments(nc)
    nc.set_defaults(func=cmd_nodeclass)

    sweep = sub.add_parser("sweep",
                           help="Fig. 8-style hyperparameter sweep")
    src = sweep.add_mutually_exclusive_group(required=True)
    src.add_argument("--input",
                     help=".wel graph (LP) or .npz labeled bundle (NC)")
    src.add_argument("--dataset", choices=LP_SHAPES + NC_SHAPES,
                     help="synthetic Table II shape")
    sweep.add_argument("--parameter", required=True,
                       choices=["num_walks", "walk_length", "dimension"])
    sweep.add_argument("--values", required=True,
                       help="comma-separated values, e.g. 1,2,4,8")
    sweep.add_argument("--seeds", default="11,31",
                       help="comma-separated seeds to average over")
    _add_pipeline_arguments(sweep)
    sweep.set_defaults(func=cmd_sweep)

    hw = sub.add_parser("characterize",
                        help="hardware study on a synthetic ER graph")
    hw.add_argument("--nodes", type=int, default=20_000)
    hw.add_argument("--edges", type=int, default=400_000)
    _add_pipeline_arguments(hw)
    hw.set_defaults(func=cmd_characterize)

    # The three sim commands are presets of one runner: each exposes its
    # own flags and defaults, and set_defaults() fills in what it fixes.
    serve = sub.add_parser(
        "serve-sim",
        help="online serving simulation (embedding store + serving "
             "frontend under closed-loop load)",
    )
    _add_input_arguments(serve, nodes=2_000, edges=20_000)
    _add_embedding_arguments(serve, walks=5, length=6, w2v_epochs=2)
    load = serve.add_argument_group("serving and load")
    _add_load_arguments(load, clients=8, requests=5_000)
    _add_frontend_arguments(load)
    _add_shard_arguments(load, shards=1, replicas=1)
    load.add_argument("--rebalance-every", type=float, default=0.0,
                      metavar="SECONDS",
                      help="live-rebalance the sharded tier between "
                           "hash and range plans at this interval "
                           "during the load run (0 disables; requires "
                           "--shards > 1)")
    load.add_argument("--update-batches", dest="batches", type=int,
                      default=0, metavar="UPDATE_BATCHES",
                      help="hold back 30%% of the stream and replay it "
                           "as this many live edge batches through the "
                           "ingest queue and stream controller, one "
                           "incremental refresh per batch")
    load.add_argument("--update-interval", dest="batch_interval",
                      type=float, default=0.05, metavar="UPDATE_INTERVAL",
                      help="seconds between live edge batches")
    _add_controlplane_arguments(serve, autoscale_flag=True)
    _add_observability_arguments(serve)
    serve.add_argument("--seed", type=int, default=0)
    serve.set_defaults(func=_run_sim, holdback=0.3, replay_only=False,
                       wal_dir=None, queue_edges=sys.maxsize,
                       backpressure="block", rate_limit=None,
                       refresh_policy="every-n", refresh_edges=1)

    stream = sub.add_parser(
        "stream-sim",
        help="durable streaming-ingest simulation (WAL + bounded queue + "
             "policy-driven refresh under closed-loop query load)",
    )
    stream.add_argument("--wal-dir", required=True,
                        help="write-ahead-log directory (created if missing; "
                             "an existing log is repaired and continued)")
    stream.add_argument("--replay-only", action="store_true",
                        help="recover and report the WAL contents, then exit "
                             "(crash-recovery verification; no load run)")
    _add_input_arguments(stream, nodes=2_000, edges=20_000)
    _add_embedding_arguments(stream, walks=5, length=6, w2v_epochs=2)
    ingest = stream.add_argument_group("ingest: WAL, queue, refresh")
    ingest.add_argument("--wal-segment-bytes", type=int, default=256 * 1024,
                        help="WAL segment rotation threshold")
    ingest.add_argument("--no-wal-sync", action="store_true",
                        help="skip the per-batch fsync (faster, loses the "
                             "power-failure guarantee)")
    ingest.add_argument("--backpressure", default="block",
                        choices=["block", "drop_oldest", "reject"],
                        help="ingest-queue overflow policy")
    ingest.add_argument("--rate-limit", type=float, default=None,
                        help="token-bucket producer limit in edges/second "
                             "(default: unlimited)")
    ingest.add_argument("--refresh-policy", default="every-n",
                        choices=["every-n", "staleness", "affected"],
                        help="when to refresh embeddings")
    ingest.add_argument("--staleness-seconds", type=float, default=0.5,
                        help="staleness: max wall-clock age of pending edges")
    ingest.add_argument("--affected-fraction", type=float, default=0.1,
                        help="affected: touched-node fraction per refresh")
    _add_ingest_arguments(ingest, refresh_edges=1000, batches=8)
    load = stream.add_argument_group("serving and load")
    _add_load_arguments(load, clients=4, requests=2_000)
    _add_frontend_arguments(load)
    _add_observability_arguments(stream)
    stream.add_argument("--seed", type=int, default=0)
    stream.set_defaults(func=_run_sim, holdback=0.4, shards=1, replicas=1,
                        kill_replica=None, rebalance_every=0.0,
                        autoscale=False)

    pipe = sub.add_parser(
        "pipeline-sim",
        help="end-to-end stream→serve pipeline: ingest queue + WAL + "
             "incremental refresh fanned out to the replicated sharded "
             "tier under control-plane supervision and query load",
    )
    _add_input_arguments(pipe, nodes=1_000, edges=10_000)
    _add_embedding_arguments(pipe, walks=2, length=4, w2v_epochs=1)
    ingest = pipe.add_argument_group("ingest")
    ingest.add_argument("--wal-dir", default=None,
                        help="write-ahead-log directory (omit to stream "
                             "without durability)")
    _add_ingest_arguments(ingest, refresh_edges=500, batches=6)
    load = pipe.add_argument_group("sharded serving and load")
    _add_shard_arguments(load, shards=2, replicas=2)
    _add_load_arguments(load, clients=4, requests=1_000)
    _add_controlplane_arguments(pipe, autoscale_flag=False)
    _add_observability_arguments(pipe)
    pipe.add_argument("--seed", type=int, default=0)
    # The control plane always runs, so --shards must be > 1; the WAL
    # keeps the library's segment size; the tier keeps its defaults.
    pipe.set_defaults(func=_run_sim, holdback=0.4, replay_only=False,
                      autoscale=True, rebalance_every=0.0,
                      backpressure="block", rate_limit=None,
                      refresh_policy="every-n",
                      wal_segment_bytes=DEFAULT_SEGMENT_MAX_BYTES,
                      no_wal_sync=False, cache_size=4096, index="exact")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
