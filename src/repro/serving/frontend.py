"""Thread-based serving frontend: link scores and top-k recommendations.

:class:`ServingFrontend` is the in-process query surface of the online
loop.  Client threads call :meth:`score_link` / :meth:`top_k`.  Link
scores flow through a :class:`~repro.serving.batching.BatchScheduler`,
so concurrent callers share one vectorized evaluation.  Top-k never
waits for a batch: a cache hit answers from the
:class:`~repro.serving.index.RecommendationIndex`'s generation-keyed
LRU, and a miss joins the index's shared pass over one snapshot at the
next block and leaves it after one full cycle.  Concurrent misses read
each block from memory once, and one client thread at a time drives
the pass, so the read path's scans take one core however many clients
wait on them.  Every answer is bit-identical to
:meth:`RecommendationIndex.top_k
<repro.serving.index.RecommendationIndex.top_k>` whatever else is in
flight.

With ``index="ivf"`` an :class:`~repro.serving.ann.IvfIndexManager`
rebuilds a sub-linear IVF index after every publish and top-k requests
route through it (with automatic exact fallback; a per-query ``mode=``
overrides the default in either direction).  Everything is instrumented
through the ambient recorder: request counters per type, end-to-end
latency histograms (``serving.latency.*``), cache hit/miss, link-score
batch sizes, snapshot-swap and ``serving.ann.*`` counters (see
docs/serving.md for the catalog).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.errors import ServingError
from repro.observability import get_recorder
from repro.serving.ann import INDEX_CHOICES, IvfConfig, IvfIndexManager
from repro.serving.batching import BatchFuture, BatchScheduler
from repro.serving.index import METRIC_CHOICES, RecommendationIndex, TopK
from repro.serving.store import EmbeddingStore


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of the serving frontend.

    ``max_batch_size`` / ``max_delay`` bound each link-score
    micro-batch (see :class:`BatchScheduler`); top-k never waits for a
    batch.  ``default_k``, ``cache_size``, ``block_size`` and
    ``metric`` configure the recommendation index.
    ``max_batch_size=1`` degenerates to the single-request link-score
    path (every request is its own batch), which is the baseline the
    serving bench measures against.  ``index="ivf"`` routes top-k through the
    approximate IVF index (built per published snapshot; ``ann`` holds
    its :class:`~repro.serving.ann.IvfConfig`, defaulted when omitted);
    ``index="exact"`` keeps the brute-force oracle as the default while
    still honoring per-query ``mode="ivf"`` overrides when ``ann`` is
    configured.
    """

    max_batch_size: int = 64
    max_delay: float = 0.002
    default_k: int = 10
    cache_size: int = 4096
    block_size: int = 8192
    metric: str = "dot"
    index: str = "exact"
    ann: IvfConfig | None = None

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ServingError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.max_delay < 0:
            raise ServingError(
                f"max_delay must be >= 0, got {self.max_delay}"
            )
        if self.default_k < 1:
            raise ServingError(f"default_k must be >= 1, got {self.default_k}")
        if self.metric not in METRIC_CHOICES:
            raise ServingError(
                f"unknown metric {self.metric!r}; options: "
                f"{list(METRIC_CHOICES)}"
            )
        if self.index not in INDEX_CHOICES:
            raise ServingError(
                f"unknown index {self.index!r}; options: "
                f"{list(INDEX_CHOICES)}"
            )


class ServingFrontend:
    """Concurrent query frontend over an :class:`EmbeddingStore`."""

    def __init__(self, store: EmbeddingStore,
                 config: ServingConfig | None = None) -> None:
        self.store = store
        self.config = config or ServingConfig()
        self.ann: IvfIndexManager | None = None
        if self.config.index == "ivf" or self.config.ann is not None:
            self.ann = IvfIndexManager(
                store,
                config=self.config.ann or IvfConfig(),
                metric=self.config.metric,
            )
        self.index = RecommendationIndex(
            store,
            cache_size=self.config.cache_size,
            block_size=self.config.block_size,
            metric=self.config.metric,
            ann=self.ann,
            default_mode=self.config.index,
        )
        self._score_batcher = BatchScheduler(
            self._process_scores,
            max_batch_size=self.config.max_batch_size,
            max_delay=self.config.max_delay,
            name="link-score",
        )
        self._started = False
        self._closed = False

    @property
    def num_nodes(self) -> int:
        """Nodes in the served snapshot (the load generator's id space)."""
        return self.store.snapshot().num_nodes

    # ------------------------------------------------------------------
    def start(self) -> "ServingFrontend":
        """Start the link-score scheduler (idempotent); returns self."""
        self._score_batcher.start()
        self._started = True
        return self

    def close(self) -> None:
        """Drain in-flight link scores and stop serving.

        A top-k scan already in flight finishes; a later cache miss
        raises :class:`ServingError`.
        """
        self._closed = True
        self._score_batcher.close()
        if self.ann is not None:
            self.ann.close()

    def __enter__(self) -> "ServingFrontend":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Link scoring
    # ------------------------------------------------------------------
    def score_link_async(self, src: int, dst: int) -> BatchFuture:
        """Enqueue one link-score request; resolves to a float."""
        return self._score_batcher.submit((int(src), int(dst)))

    def score_link(self, src: int, dst: int,
                   timeout: float | None = None) -> float:
        """Similarity score of the candidate edge ``(src, dst)``.

        The score is the embedding inner product — the §IV-B edge
        representation collapsed to a ranking scalar (no classifier
        head); higher means more likely.  Blocks until the micro-batch
        containing this request flushes.
        """
        rec = get_recorder()
        start = time.monotonic()
        result = float(self.score_link_async(src, dst).result(timeout))
        if rec.enabled:
            rec.counter("serving.requests.score")
            rec.observe("serving.latency.score_s", time.monotonic() - start)
        return result

    def _process_scores(self, payloads: list[tuple[int, int]]) -> np.ndarray:
        snapshot = self.store.snapshot()
        pairs = np.asarray(payloads, dtype=np.int64)
        if np.any(pairs < 0) or np.any(pairs >= snapshot.num_nodes):
            raise ServingError(
                f"link-score request out of range [0, {snapshot.num_nodes})"
            )
        return np.einsum(
            "bd,bd->b",
            snapshot.matrix[pairs[:, 0]],
            snapshot.matrix[pairs[:, 1]],
        )

    # ------------------------------------------------------------------
    # Top-k recommendation
    # ------------------------------------------------------------------
    def top_k(self, node: int, k: int | None = None,
              timeout: float | None = None,
              mode: str | None = None) -> TopK:
        """Top-``k`` recommended nodes for ``node``, best first.

        A warm cache hit answers at once with zero GEMM work; a miss
        rides the index's shared pass against the snapshot served when
        it joins.  ``mode`` overrides the configured index for
        this one request: ``"exact"`` forces the brute-force oracle
        (full recall), ``"ivf"`` requests the approximate index (falls
        back to exact automatically when no index matches the served
        snapshot).  ``timeout`` is accepted for interface parity with
        :meth:`score_link`; nothing here waits.
        """
        rec = get_recorder()
        start = time.monotonic()
        node = int(node)
        k = self.config.default_k if k is None else int(k)
        result = self.index.cached(node, k, mode=mode)
        if result is None:
            if self._closed:
                raise ServingError("frontend is closed; cannot serve top-k")
            if not self._started:
                raise ServingError("frontend not started; call start()")
            result = self.index.top_k_batch([(node, k, mode)])[0]
        if rec.enabled:
            rec.counter("serving.requests.topk")
            rec.observe("serving.latency.topk_s", time.monotonic() - start)
        return result
