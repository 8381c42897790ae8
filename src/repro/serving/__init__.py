"""Online serving layer: versioned embeddings, link scores, top-k.

This package is the query half of the §VII-B deployment loop.  The
ingest half already exists (:class:`~repro.graph.dynamic
.DynamicTemporalGraph` plus :class:`~repro.tasks.incremental
.IncrementalEmbedder`); serving adds:

- :class:`EmbeddingStore` — versioned, atomically-swapped embedding
  snapshots keyed by graph generation (readers never block a swap and
  read consistent-but-stale data until they re-fetch);
- :class:`RecommendationIndex` — blocked top-k over the embedding
  matrix by one single-query kernel, with a per-``(node, k)`` LRU
  cache invalidated by snapshot version bump;
- :class:`IvfIndex` / :class:`IvfIndexManager` — the sub-linear IVF
  approximate top-k index (k-means cells, ``nprobe`` probing), rebuilt
  asynchronously per published snapshot with version pinning; the
  brute-force path stays the oracle and the automatic fallback;
- :class:`ServingFrontend` — the thread-safe query surface client
  threads call: link scores and top-k, each answered on its caller's
  thread, with top-k misses sharing one caller-driven pass over the
  catalog;
- :class:`ShardPlan` / :class:`ShardedFrontend` /
  :class:`ShardedPublisher` — the scatter/gather sharded tier: the
  embedding space partitioned across worker processes (R replicas per
  shard with transparent read failover), per-shard local top-k merged
  bit-identically to the single-process oracle, snapshots sliced and
  installed version-atomically across every shard, and live plan
  migration via :meth:`ShardedFrontend.rebalance` (returns a
  :class:`RebalanceReport`) without stopping reads;
- :class:`ControlPlane` / :class:`ControlPlaneConfig` — the
  self-healing policy layer over the sharded tier: periodic health
  sweeps that auto-respawn dead replicas under the served version
  (crash-loop backoff + ``max_respawns`` circuit breaker) and trigger
  :meth:`ShardedFrontend.rebalance` on sustained per-shard load skew
  or catalog growth (hysteresis + cooldown);
- :func:`run_load` — a closed-loop load generator for the ``serve-sim``
  CLI subcommand.

See ``docs/serving.md`` for architecture, staleness semantics, and the
metric catalog, and ``docs/ann_index.md`` for the IVF design and its
recall/latency trade-offs.
"""

from repro.serving.ann import IvfConfig, IvfIndex, IvfIndexManager
from repro.serving.controlplane import (
    ControlPlane,
    ControlPlaneConfig,
    SweepReport,
)
from repro.serving.frontend import ServingConfig, ServingFrontend
from repro.serving.index import RecommendationIndex
from repro.serving.loadgen import LoadReport, run_load
from repro.serving.sharding import (
    EmbeddingShard,
    RebalanceReport,
    ShardPlan,
    ShardedFrontend,
    ShardedPublisher,
    ShardedServingConfig,
)
from repro.serving.store import EmbeddingSnapshot, EmbeddingStore

__all__ = [
    "ControlPlane",
    "ControlPlaneConfig",
    "EmbeddingShard",
    "EmbeddingSnapshot",
    "EmbeddingStore",
    "IvfConfig",
    "IvfIndex",
    "IvfIndexManager",
    "LoadReport",
    "RebalanceReport",
    "RecommendationIndex",
    "ServingConfig",
    "ServingFrontend",
    "ShardPlan",
    "ShardedFrontend",
    "ShardedPublisher",
    "ShardedServingConfig",
    "SweepReport",
    "run_load",
]
