"""Fig. 8 — the accuracy-complexity trade-off.

Paper findings being reproduced:
  (a) random-walk kernel time grows monotonically with walks/node K;
  (b) LP and NC accuracy improve with K but saturate around K = 8-10;
  (c) accuracy improves with walk length L, saturating around L = 4-6;
  (d) accuracy improves with embedding dimension d, saturating around
      d = 8 — far below the customary 128;
and throughout, link prediction outscores node classification.

(e) applies the same method to the classifier stage (RW-P3), which
Table III finds dominates end-to-end time: an epochs x batch-size sweep
with linear learning-rate scaling, recorded as an accuracy-vs-train-
seconds frontier.  The cheapest cell whose mean LP AUC holds within
``FRONTIER_AUC_MARGIN`` of the 30 x 128 schedule on every input is
stored as ``chosen``; ``LinkPredictionConfig``'s default training
schedule is that cell.
"""

import copy
import statistics
import sys
import time
import zlib
from pathlib import Path

import numpy as np

from repro.bench import ExperimentRecorder, render_table
from repro.embedding import SgnsConfig, train_embeddings
from repro.graph import TemporalGraph, generators
from repro.rng import make_rng
from repro.tasks import (
    LinkPredictionTask,
    NodeClassificationTask,
    Pipeline,
    PipelineConfig,
)
from repro.tasks.link_prediction import LinkPredictionConfig
from repro.tasks.node_classification import NodeClassificationConfig
from repro.tasks.training import TrainSettings
from repro.walk import TemporalWalkEngine, WalkConfig

from conftest import emit

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT))
from perfbench.core import email_graph, host_facts, host_probe_ms  # noqa: E402

K_SWEEP = [1, 2, 4, 8, 10, 16, 20]
L_SWEEP = [2, 3, 4, 6, 8, 10]
D_SWEEP = [1, 2, 4, 8, 16, 32, 64, 128]

TRAIN = TrainSettings(epochs=25, learning_rate=0.05)


def lp_accuracy(edges, graph, walk_config, sgns_config, seed):
    corpus = TemporalWalkEngine(graph).run(walk_config, seed=seed)
    embeddings, _ = train_embeddings(
        corpus, graph.num_nodes, sgns_config, seed=seed + 1
    )
    result = LinkPredictionTask(
        LinkPredictionConfig(training=TRAIN)
    ).run(embeddings, edges, seed=seed + 2)
    return result.accuracy


def nc_accuracy(dataset, graph, walk_config, sgns_config, seed):
    corpus = TemporalWalkEngine(graph).run(walk_config, seed=seed)
    embeddings, _ = train_embeddings(
        corpus, graph.num_nodes, sgns_config, seed=seed + 1
    )
    result = NodeClassificationTask(
        NodeClassificationConfig(training=TRAIN)
    ).run(embeddings, dataset.labels, seed=seed + 2)
    return result.accuracy


def mean_over_seeds(fn, seeds=(11, 31, 51)):
    return float(np.mean([fn(seed) for seed in seeds]))


def test_fig08a_walk_time_vs_num_walks(benchmark, stackoverflow_edges):
    graph = TemporalGraph.from_edge_list(stackoverflow_edges)
    engine = TemporalWalkEngine(graph)

    def run(k):
        config = WalkConfig(num_walks_per_node=k, max_walk_length=6)
        start = time.perf_counter()
        engine.run(config, seed=1)
        return time.perf_counter() - start

    benchmark.pedantic(lambda: run(10), rounds=3, iterations=1)

    times = {k: min(run(k) for _ in range(3)) for k in K_SWEEP}
    base = times[K_SWEEP[0]]
    rows = [{"walks/node K": k, "time (s)": t, "normalized": t / base}
            for k, t in times.items()]
    emit("")
    emit(render_table(rows, title="Fig. 8a — rwalk time vs walks/node "
                                  "(stackoverflow shaped)"))
    # Monotone growth claim (allowing small timing noise).
    assert times[20] > times[1] * 4

    ExperimentRecorder("fig08a_walk_time").data.update(
        {"times": {k: float(v) for k, v in times.items()}}
    )


def test_fig08b_accuracy_vs_num_walks(benchmark, email_edges):
    lp_graph = TemporalGraph.from_edge_list(email_edges.with_reverse_edges())
    dataset = generators.dblp3_like(scale=0.2, seed=201)
    nc_graph = TemporalGraph.from_edge_list(
        dataset.edges.with_reverse_edges()
    )
    sgns = SgnsConfig(dim=8, epochs=8)

    def accuracy_pair(k):
        walk = WalkConfig(num_walks_per_node=k, max_walk_length=6)
        return (
            mean_over_seeds(lambda s: lp_accuracy(
                email_edges, lp_graph, walk, sgns, s)),
            mean_over_seeds(lambda s: nc_accuracy(
                dataset, nc_graph, walk, sgns, s)),
        )

    benchmark.pedantic(lambda: accuracy_pair(4), rounds=1, iterations=1)

    rows = []
    series = {}
    for k in K_SWEEP:
        lp, nc = accuracy_pair(k)
        series[k] = (lp, nc)
        rows.append({"walks/node K": k, "link prediction": lp,
                     "node classification": nc})
    emit("")
    emit(render_table(rows, title="Fig. 8b — accuracy vs walks/node"))

    lp_series = {k: v[0] for k, v in series.items()}
    nc_series = {k: v[1] for k, v in series.items()}
    # More walks help...
    assert lp_series[10] > lp_series[1]
    assert nc_series[10] > nc_series[1]
    # ...but saturate by K ~ 8-10 (beyond: < 4 points of further gain).
    assert lp_series[20] - lp_series[10] < 0.04
    # LP outperforms NC relative to its chance level is paper-consistent;
    # the raw ordering LP > NC holds on these datasets.
    assert lp_series[10] > nc_series[10] - 0.05

    recorder = ExperimentRecorder("fig08b_accuracy_vs_k")
    recorder.add("link_prediction", lp_series)
    recorder.add("node_classification", nc_series)
    recorder.save()


def test_fig08c_accuracy_vs_walk_length(benchmark, email_edges):
    lp_graph = TemporalGraph.from_edge_list(email_edges.with_reverse_edges())
    dataset = generators.dblp3_like(scale=0.2, seed=202)
    nc_graph = TemporalGraph.from_edge_list(
        dataset.edges.with_reverse_edges()
    )
    sgns = SgnsConfig(dim=8, epochs=8)

    def accuracy_pair(length):
        walk = WalkConfig(num_walks_per_node=10, max_walk_length=length)
        return (
            mean_over_seeds(lambda s: lp_accuracy(
                email_edges, lp_graph, walk, sgns, s)),
            mean_over_seeds(lambda s: nc_accuracy(
                dataset, nc_graph, walk, sgns, s)),
        )

    benchmark.pedantic(lambda: accuracy_pair(4), rounds=1, iterations=1)

    lp_series, nc_series = {}, {}
    rows = []
    for length in L_SWEEP:
        lp, nc = accuracy_pair(length)
        lp_series[length], nc_series[length] = lp, nc
        rows.append({"walk length L": length, "link prediction": lp,
                     "node classification": nc})
    emit("")
    emit(render_table(rows, title="Fig. 8c — accuracy vs walk length"))

    assert lp_series[6] > lp_series[2] - 0.01
    # Saturation after L ~ 4-6.
    assert abs(lp_series[10] - lp_series[6]) < 0.05

    recorder = ExperimentRecorder("fig08c_accuracy_vs_length")
    recorder.add("link_prediction", lp_series)
    recorder.add("node_classification", nc_series)
    recorder.save()


def test_fig08d_accuracy_vs_dimension(benchmark, email_edges):
    lp_graph = TemporalGraph.from_edge_list(email_edges.with_reverse_edges())
    dataset = generators.dblp3_like(scale=0.2, seed=203)
    nc_graph = TemporalGraph.from_edge_list(
        dataset.edges.with_reverse_edges()
    )
    walk = WalkConfig(num_walks_per_node=10, max_walk_length=6)

    def accuracy_pair(dim):
        # Small dimensions need the full SGNS budget to reach their
        # capacity; under-training at low d would fake a dimension effect.
        sgns = SgnsConfig(dim=dim, epochs=8)
        return (
            mean_over_seeds(lambda s: lp_accuracy(
                email_edges, lp_graph, walk, sgns, s)),
            mean_over_seeds(lambda s: nc_accuracy(
                dataset, nc_graph, walk, sgns, s)),
        )

    benchmark.pedantic(lambda: accuracy_pair(8), rounds=1, iterations=1)

    lp_series, nc_series = {}, {}
    rows = []
    for dim in D_SWEEP:
        lp, nc = accuracy_pair(dim)
        lp_series[dim], nc_series[dim] = lp, nc
        rows.append({"dimension d": dim, "link prediction": lp,
                     "node classification": nc})
    emit("")
    emit(render_table(rows, title="Fig. 8d — accuracy vs embedding "
                                  "dimension (paper: d=8 is enough)"))

    # Gains from 1 -> 8...
    assert lp_series[8] > lp_series[1] + 0.05
    # ...and d=8 within a few points of d=128 (the headline finding).
    assert lp_series[128] - lp_series[8] < 0.05
    assert nc_series[128] - nc_series[8] < 0.08

    recorder = ExperimentRecorder("fig08d_accuracy_vs_dim")
    recorder.add("link_prediction", lp_series)
    recorder.add("node_classification", nc_series)
    recorder.save()


#: (epochs, batch size) cells of the classifier frontier; the first is
#: the ``TrainSettings`` class default every other cell is judged against.
FRONTIER_CELLS = [(30, 128), (20, 256), (15, 256), (12, 256), (30, 512),
                  (15, 512), (10, 512), (10, 1024)]
FRONTIER_SEEDS = (7, 8, 9)
FRONTIER_AUC_MARGIN = 0.005
LP_SHAPES = ("ia-email", "wiki-talk", "stackoverflow")
NC_SHAPES = ("dblp3", "dblp5", "brain")


def frontier_settings(epochs, batch_size):
    """A frontier cell: the class defaults with the learning rate scaled
    linearly in the batch size."""
    base = TrainSettings()
    return TrainSettings(
        epochs=epochs, batch_size=batch_size,
        learning_rate=base.learning_rate * batch_size / base.batch_size,
    )


def _embed_once(edges, seed):
    """Phases 1-2 of ``Pipeline.run_*`` under ``PipelineConfig()``, and
    the generator state phase 3 starts from.  Every cell trains from a
    copy of that state, so each cell's result is the one the pipeline
    gives with that cell as its training schedule."""
    rng = make_rng(seed)
    embeddings = Pipeline(PipelineConfig()).embed(edges, seed=rng)[0]
    return embeddings, rng


def _summary(values):
    return {"mean": float(np.mean(values)), "min": float(min(values)),
            "max": float(max(values)),
            "spread": float(max(values) - min(values))}


def _cell_record(settings, results, score):
    return {
        "epochs": settings.epochs, "batch_size": settings.batch_size,
        "learning_rate": settings.learning_rate,
        "sgd_steps": settings.epochs * -(-results[0].num_train
                                         // settings.batch_size),
        score: _summary([getattr(r, score) for r in results]),
        "per_seed": {score: [getattr(r, score) for r in results],
                     "train_seconds": [r.train_seconds for r in results]},
        "train_seconds_median": statistics.median(
            r.train_seconds for r in results),
        "seconds_per_epoch_median": statistics.median(
            r.history.seconds_per_epoch for r in results),
    }


def _frontier_inputs():
    inputs = {"batch_lp": email_graph(0.02, 1)}
    for name in LP_SHAPES:
        inputs[name] = generators.dataset_by_name(
            name, seed=zlib.crc32(name.encode()) % 997)
    return inputs


def choose_cell(lp):
    """The cheapest cell by ``batch_lp`` train seconds whose mean AUC is
    within ``FRONTIER_AUC_MARGIN`` of the baseline cell on every input."""
    baseline = {name: cells[0]["auc"]["mean"] for name, cells in lp.items()}
    passing = [
        i for i in range(len(FRONTIER_CELLS))
        if all(cells[i]["auc"]["mean"] >= baseline[name] - FRONTIER_AUC_MARGIN
               for name, cells in lp.items())
    ]
    return min(passing,
               key=lambda i: lp["batch_lp"][i]["train_seconds_median"])


def test_fig08e_classifier_frontier(benchmark):
    settings = [frontier_settings(e, b) for e, b in FRONTIER_CELLS]
    probe_before = host_probe_ms()

    def run_lp():
        lp = {}
        for name, edges in _frontier_inputs().items():
            per_cell = [[] for _ in settings]
            for seed in FRONTIER_SEEDS:
                embeddings, rng = _embed_once(edges, seed)
                for i, cell in enumerate(settings):
                    per_cell[i].append(LinkPredictionTask(
                        LinkPredictionConfig(training=cell)
                    ).run(embeddings, edges, seed=copy.deepcopy(rng)))
            lp[name] = [_cell_record(cell, results, "auc")
                        for cell, results in zip(settings, per_cell)]
        return lp

    lp = benchmark.pedantic(run_lp, rounds=1, iterations=1)

    # The embed-once decomposition is the pipeline's own computation.
    edges = email_graph(0.02, 1)
    pipeline_auc = Pipeline(PipelineConfig(
        link_prediction=LinkPredictionConfig(training=settings[0])
    )).run_link_prediction(edges, seed=FRONTIER_SEEDS[0]).task_result.auc
    assert pipeline_auc == lp["batch_lp"][0]["per_seed"]["auc"][0]

    chosen = choose_cell(lp)
    chosen_settings = settings[chosen]

    rows = []
    for i, (epochs, batch) in enumerate(FRONTIER_CELLS):
        row = {"epochs x batch": f"{epochs} x {batch}",
               "steps (batch_lp)": lp["batch_lp"][i]["sgd_steps"]}
        for name, cells in lp.items():
            row[f"{name} AUC"] = cells[i]["auc"]["mean"]
        row["batch_lp train s"] = lp["batch_lp"][i]["train_seconds_median"]
        row["s/epoch"] = lp["batch_lp"][i]["seconds_per_epoch_median"]
        row["chosen"] = "*" if i == chosen else ""
        rows.append(row)
    emit("")
    emit(render_table(rows, title="Fig. 8e — LP classifier schedule: mean "
                                  "AUC vs train seconds (seeds 7/8/9)"))

    # Node classification at the baseline and the chosen schedule only:
    # it is measured to record why its default stays where it is.
    nc = {}
    for name in NC_SHAPES:
        dataset = generators.dataset_by_name(
            name, seed=zlib.crc32(name.encode()) % 997)
        per_cell = {0: [], chosen: []}
        for seed in FRONTIER_SEEDS:
            embeddings, rng = _embed_once(dataset.edges, seed)
            for i in per_cell:
                per_cell[i].append(NodeClassificationTask(
                    NodeClassificationConfig(training=settings[i])
                ).run(embeddings, dataset.labels, seed=copy.deepcopy(rng)))
        nc[name] = {f"{settings[i].epochs}x{settings[i].batch_size}":
                    _cell_record(settings[i], results, "accuracy")
                    for i, results in per_cell.items()}
    nc_rows = [{"dataset": name, "schedule": key,
                "accuracy": cell["accuracy"]["mean"],
                "seed spread": cell["accuracy"]["spread"],
                "train s": cell["train_seconds_median"]}
               for name, cells in nc.items() for key, cell in cells.items()]
    emit(render_table(nc_rows, title="Fig. 8e — NC at the baseline and "
                                     "the chosen LP schedule"))

    baseline_auc = {name: cells[0]["auc"]["mean"] for name, cells in lp.items()}
    drops = {name: cells[chosen]["auc"]["mean"] - baseline_auc[name]
             for name, cells in lp.items()}
    assert all(d >= -FRONTIER_AUC_MARGIN for d in drops.values()), drops
    # The cheaper schedule must actually be cheaper on the benchmark input.
    assert (lp["batch_lp"][chosen]["train_seconds_median"]
            <= lp["batch_lp"][0]["train_seconds_median"])

    nc_train_max = max(c["train_seconds_median"]
                       for cells in nc.values() for c in cells.values())
    nc_spread_max = max(c["accuracy"]["spread"]
                        for cells in nc.values() for c in cells.values())
    recorder = ExperimentRecorder("fig08e_classifier_frontier")
    recorder.add("host", {**host_facts(REPO_ROOT, REPO_ROOT / "bench_results"),
                          "host_probe_ms": [probe_before, host_probe_ms()]})
    recorder.add("seeds", list(FRONTIER_SEEDS))
    recorder.add("rule", (
        f"cheapest cell by batch_lp train_seconds_median whose mean AUC is "
        f"within {FRONTIER_AUC_MARGIN} of the {FRONTIER_CELLS[0][0]} x "
        f"{FRONTIER_CELLS[0][1]} mean on every LP input; lr = "
        f"{TrainSettings().learning_rate} * batch / "
        f"{TrainSettings().batch_size}"))
    recorder.add("link_prediction", lp)
    recorder.add("node_classification", nc)
    recorder.add("chosen", {
        "epochs": chosen_settings.epochs,
        "batch_size": chosen_settings.batch_size,
        "learning_rate": chosen_settings.learning_rate,
        "auc_change_vs_baseline": drops,
        "batch_lp_speedup": (lp["batch_lp"][0]["train_seconds_median"]
                             / lp["batch_lp"][chosen]["train_seconds_median"]),
    })
    baseline_key = f"{settings[0].epochs}x{settings[0].batch_size}"
    chosen_key = f"{chosen_settings.epochs}x{chosen_settings.batch_size}"
    recorder.add("nc_verdict", {
        "accuracy_change_at_chosen": {
            name: cells[chosen_key]["accuracy"]["mean"]
            - cells[baseline_key]["accuracy"]["mean"]
            for name, cells in nc.items()},
        "train_seconds_max": nc_train_max,
        "accuracy_seed_spread_max": nc_spread_max,
        "verdict": (
            "NC keeps the TrainSettings class default: its training costs "
            f"at most {nc_train_max * 1e3:.0f} ms per run, so it is no cost "
            f"lever, and its seed spread reaches {nc_spread_max:.3f}, so a "
            "+-0.01 accuracy gate cannot be resolved over 3 seeds"),
    })
    recorder.save()
