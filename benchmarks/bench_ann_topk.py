"""Extension bench — IVF approximate top-k vs the brute-force oracle.

The exact :class:`~repro.serving.index.RecommendationIndex` scans every
row per query, so serving cost grows linearly with the store.  The IVF
index (:mod:`repro.serving.ann`) claims sub-linear queries at bounded
recall loss.  This bench measures that trade-off directly on synthetic
clustered embeddings (a gaussian mixture — the shape random-walk
embeddings of community-structured graphs actually take):

- ``10^5 nodes x 32 dims``: sweep ``nlist`` x ``nprobe``, reporting
  recall@10 against the exact oracle, single-query latency for both
  paths, build time, and index size.  The acceptance gate lives here:
  at least one swept config must reach recall@10 >= 0.95 at >= 5x
  query speedup.
- ``10^6 nodes x 16 dims``: one large config recorded (no gate) to
  show the scaling headroom on a single core.

Queries are timed one at a time (``m=1``) because the serving frontend
scores every top-k request as one query; both paths share the same
blocked scorer, so the comparison isolates the candidate-generation
win.  Saved to ``bench_results/ann_topk.json``.
"""

import time

import numpy as np

from repro.bench import ExperimentRecorder, render_table
from repro.serving import (
    EmbeddingStore,
    IvfConfig,
    IvfIndex,
    RecommendationIndex,
)

from conftest import emit

SMALL_NODES = 100_000
SMALL_DIM = 32
LARGE_NODES = 1_000_000
LARGE_DIM = 16
K = 10
SMALL_QUERIES = 60
LARGE_QUERIES = 20

#: (nlist, nprobe) sweep at 10^5 nodes; None -> auto (~sqrt(n)).
SWEEP = [
    (128, 4),
    (256, 4),
    (256, 8),
    (256, 16),
    (None, 8),
]

REQUIRED_RECALL = 0.95
REQUIRED_SPEEDUP = 5.0


def _clustered(n: int, dim: int, centers: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    anchors = rng.standard_normal((centers, dim)) * 3.0
    return (anchors[rng.integers(0, centers, n)]
            + rng.standard_normal((n, dim)) * 0.6)


class _StaticManager:
    """Minimal manager stand-in handing one prebuilt index to the
    RecommendationIndex (skips the async builder for clean timing)."""

    def __init__(self, index: IvfIndex, config: IvfConfig) -> None:
        self._index = index
        self.config = config

    def index_for(self, snapshot):
        return self._index if self._index.version == snapshot.version else None


def _timed_queries(index: RecommendationIndex, nodes: np.ndarray,
                   mode: str) -> tuple[float, list[np.ndarray]]:
    """Mean seconds per single top-k query, plus the returned id lists."""
    index.top_k(int(nodes[0]), K, mode=mode)  # warmup
    answers = []
    start = time.perf_counter()
    for node in nodes:
        ids, _ = index.top_k(int(node), K, mode=mode)
        answers.append(ids)
    elapsed = time.perf_counter() - start
    return elapsed / len(nodes), answers


def _recall(exact: list[np.ndarray], approx: list[np.ndarray]) -> float:
    hits = total = 0
    for e, a in zip(exact, approx):
        hits += len(np.intersect1d(e, a))
        total += len(e)
    return hits / total


def _measure_config(store: EmbeddingStore, nodes: np.ndarray,
                    exact_s: float, exact_ids: list[np.ndarray],
                    nlist: int | None, nprobe: int) -> dict:
    config = IvfConfig(nlist=nlist, nprobe=nprobe, min_index_nodes=1)
    index = IvfIndex.build(store.snapshot(), config)
    ann = RecommendationIndex(store, cache_size=0,
                              ann=_StaticManager(index, config))
    ann_s, ann_ids = _timed_queries(ann, nodes, "ivf")
    return {
        "nlist": index.nlist,
        "nprobe": index.nprobe,
        "build s": round(index.build_seconds, 3),
        "index MB": round(index.nbytes / 1e6, 2),
        "exact ms": round(exact_s * 1e3, 3),
        "ann ms": round(ann_s * 1e3, 3),
        "speedup": round(exact_s / ann_s, 2),
        "recall@10": round(_recall(exact_ids, ann_ids), 4),
    }


def test_ann_topk(benchmark):
    recorder = ExperimentRecorder("ann_topk")
    rng = np.random.default_rng(11)

    # -- 10^5-node sweep ------------------------------------------------
    store = EmbeddingStore()
    store.publish(_clustered(SMALL_NODES, SMALL_DIM, centers=500, seed=12),
                  generation=0)
    exact = RecommendationIndex(store, cache_size=0)
    nodes = rng.integers(0, SMALL_NODES, size=SMALL_QUERIES)
    benchmark.pedantic(lambda: exact.top_k(int(nodes[0]), K), rounds=1,
                       iterations=1)
    exact_s, exact_ids = _timed_queries(exact, nodes, "exact")

    rows = [
        _measure_config(store, nodes, exact_s, exact_ids, nlist, nprobe)
        for nlist, nprobe in SWEEP
    ]
    emit("")
    emit(render_table(
        rows, title=f"IVF top-k vs brute-force oracle ({SMALL_NODES:,} "
        f"nodes x {SMALL_DIM} dims)"
    ))
    recorder.add("small", {
        "num_nodes": SMALL_NODES, "dim": SMALL_DIM, "k": K,
        "queries": SMALL_QUERIES, "exact_ms": round(exact_s * 1e3, 3),
        "sweep": rows,
    })

    # -- 10^6-node single config ---------------------------------------
    big_store = EmbeddingStore()
    big_store.publish(
        _clustered(LARGE_NODES, LARGE_DIM, centers=1000, seed=13),
        generation=0,
    )
    big_exact = RecommendationIndex(big_store, cache_size=0)
    big_nodes = rng.integers(0, LARGE_NODES, size=LARGE_QUERIES)
    big_exact_s, big_exact_ids = _timed_queries(big_exact, big_nodes, "exact")
    big_row = _measure_config(big_store, big_nodes, big_exact_s,
                              big_exact_ids, 512, 8)
    emit(render_table(
        [big_row], title=f"IVF top-k at {LARGE_NODES:,} nodes x "
        f"{LARGE_DIM} dims"
    ))
    recorder.add("large", {
        "num_nodes": LARGE_NODES, "dim": LARGE_DIM, "k": K,
        "queries": LARGE_QUERIES, "exact_ms": round(big_exact_s * 1e3, 3),
        "config": big_row,
    })

    # -- acceptance gate ------------------------------------------------
    passing = [
        row for row in rows
        if row["recall@10"] >= REQUIRED_RECALL
        and row["speedup"] >= REQUIRED_SPEEDUP
    ]
    best = max(rows, key=lambda row: (row["recall@10"], row["speedup"]))
    emit(
        f"configs meeting recall>={REQUIRED_RECALL} at "
        f">={REQUIRED_SPEEDUP}x: {len(passing)}/{len(rows)} "
        f"(best recall {best['recall@10']} at {best['speedup']}x)"
    )
    recorder.add("gate", {
        "required_recall": REQUIRED_RECALL,
        "required_speedup": REQUIRED_SPEEDUP,
        "passing_configs": len(passing),
    })
    recorder.save()
    assert passing, (
        f"no swept config reached recall@10 >= {REQUIRED_RECALL} at "
        f">= {REQUIRED_SPEEDUP}x speedup: {rows}"
    )
