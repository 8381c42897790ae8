"""Ablation — O(log M) inverse-CDF sampler vs the paper's O(M) scan.

The paper's Algorithm 1 costs O(K N |V| M) because sampling a temporal
neighbor scans all M candidates to evaluate Eq. 1 (§V-A); our engine's
default ``cdf`` sampler replaces the scan with precomputed weight prefix
sums + binary search, an optimization of the kind §VIII-A's discussion
invites.  This ablation measures the wall-clock gap on a hub-heavy graph
(where M is large) and verifies the two samplers draw from the same
distribution (identical downstream accuracy).
"""

import time

from repro.bench import ExperimentRecorder, render_table
from repro.embedding import SgnsConfig, train_embeddings
from repro.graph import TemporalGraph
from repro.tasks import LinkPredictionTask
from repro.tasks.link_prediction import LinkPredictionConfig
from repro.tasks.training import TrainSettings
from repro.walk import TemporalWalkEngine, WalkConfig

from conftest import emit


def test_ablation_sampler(benchmark, wiki_edges):
    # Undirected doubling makes hubs huge: the O(M) scan's worst case.
    graph = TemporalGraph.from_edge_list(wiki_edges.with_reverse_edges())
    config = WalkConfig(num_walks_per_node=4, max_walk_length=6)

    def run(sampler):
        engine = TemporalWalkEngine(graph, sampler=sampler)
        start = time.perf_counter()
        corpus = engine.run(config, seed=1)
        return corpus, time.perf_counter() - start, engine.last_stats

    benchmark.pedantic(lambda: run("cdf"), rounds=3, iterations=1)

    corpus_cdf, time_cdf, stats = run("cdf")
    corpus_gum, time_gum, _ = run("gumbel")

    task = LinkPredictionTask(LinkPredictionConfig(
        training=TrainSettings(epochs=12, learning_rate=0.05)))

    def auc(corpus):
        embeddings, _ = train_embeddings(
            corpus, graph.num_nodes, SgnsConfig(dim=8, epochs=3), seed=2)
        return task.run(embeddings, wiki_edges, seed=3).auc

    rows = [
        {"sampler": "cdf (O(log M))", "walk seconds": time_cdf,
         "lp auc": auc(corpus_cdf)},
        {"sampler": "gumbel scan (O(M), paper-faithful)",
         "walk seconds": time_gum, "lp auc": auc(corpus_gum)},
    ]
    emit("")
    emit(render_table(rows, title="Sampler ablation (hub-heavy wiki graph)"))
    emit(f"scan-model candidates per step: "
         f"{stats.mean_candidates_per_step:.0f} (the M factor)")

    assert time_cdf < time_gum, "CDF sampler must beat the O(M) scan"
    assert abs(rows[0]["lp auc"] - rows[1]["lp auc"]) < 0.05

    recorder = ExperimentRecorder("ablation_sampler")
    recorder.add("cdf_seconds", time_cdf)
    recorder.add("gumbel_seconds", time_gum)
    recorder.add("cdf_auc", rows[0]["lp auc"])
    recorder.add("gumbel_auc", rows[1]["lp auc"])
    recorder.save()
