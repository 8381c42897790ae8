"""Thread-based serving frontend: link scores and top-k recommendations.

:class:`ServingFrontend` is the in-process query surface of the online
loop.  Client threads call :meth:`score_link` / :meth:`top_k`, and
each request runs on its caller's thread.  A link score is
:func:`~repro.serving.store.link_score` on the served matrix, the same
function the sharded router answers with.  A top-k cache hit answers
from the :class:`~repro.serving.index.RecommendationIndex`'s
generation-keyed LRU, and a miss scans one snapshot's blocks on its
caller's thread, so concurrent misses scan on as many cores as there
are clients and none waits on another.  Every answer is bit-identical
to :meth:`RecommendationIndex.top_k
<repro.serving.index.RecommendationIndex.top_k>` whatever else is in
flight.

With ``index="ivf"`` an :class:`~repro.serving.ann.IvfIndexManager`
rebuilds a sub-linear IVF index after every publish and top-k requests
route through it (with automatic exact fallback; a per-query ``mode=``
overrides the default in either direction).  Everything is instrumented
through the ambient recorder: request counters per type, end-to-end
latency histograms (``serving.latency.*``), cache hit/miss,
snapshot-swap and ``serving.ann.*`` counters (see docs/serving.md for
the catalog).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import ServingError
from repro.observability import get_recorder
from repro.serving.ann import INDEX_CHOICES, IvfConfig, IvfIndexManager
from repro.serving.index import METRIC_CHOICES, RecommendationIndex, TopK
from repro.serving.store import EmbeddingStore, link_score


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of the serving frontend.

    ``default_k``, ``cache_size``, ``block_size`` and ``metric``
    configure the recommendation index.  ``index="ivf"`` routes top-k
    through the approximate IVF index (built per published snapshot;
    ``ann`` holds its :class:`~repro.serving.ann.IvfConfig`, defaulted
    when omitted); ``index="exact"`` keeps the brute-force oracle as
    the default while still honoring per-query ``mode="ivf"`` overrides
    when ``ann`` is configured.
    """

    default_k: int = 10
    cache_size: int = 4096
    block_size: int = 8192
    metric: str = "dot"
    index: str = "exact"
    ann: IvfConfig | None = None

    def __post_init__(self) -> None:
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
        self._started = False
        self._closed = False

    @property
    def num_nodes(self) -> int:
        """Nodes in the served snapshot (the load generator's id space)."""
        return self.store.snapshot().num_nodes

    # ------------------------------------------------------------------
    def start(self) -> "ServingFrontend":
        """Open the frontend for requests (idempotent); returns self."""
        if self._closed:
            raise ServingError("frontend is closed; cannot start")
        self._started = True
        return self

    def close(self) -> None:
        """Stop serving.

        A request already in flight finishes; a later link score or
        top-k cache miss raises :class:`ServingError`.
        """
        self._closed = True
        if self.ann is not None:
            self.ann.close()

    def __enter__(self) -> "ServingFrontend":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _require_open(self, what: str) -> None:
        if self._closed:
            raise ServingError(f"frontend is closed; cannot serve {what}")
        if not self._started:
            raise ServingError("frontend not started; call start()")

    # ------------------------------------------------------------------
    # Link scoring
    # ------------------------------------------------------------------
    def score_link(self, src: int, dst: int,
                   timeout: float | None = None) -> float:
        """Similarity score of the candidate edge ``(src, dst)``.

        :func:`~repro.serving.store.link_score` on the served snapshot:
        the embedding inner product, higher means more likely.
        ``timeout`` is accepted for interface parity with
        :meth:`top_k`; nothing here waits.
        """
        rec = get_recorder()
        start = time.monotonic()
        self._require_open("link scores")
        result = link_score(self.store.snapshot().matrix, int(src), int(dst))
        if rec.enabled:
            rec.counter("serving.requests.score")
            rec.observe("serving.latency.score_s", time.monotonic() - start)
        return result

    # ------------------------------------------------------------------
    # Top-k recommendation
    # ------------------------------------------------------------------
    def top_k(self, node: int, k: int | None = None,
              timeout: float | None = None,
              mode: str | None = None) -> TopK:
        """Top-``k`` recommended nodes for ``node``, best first.

        One snapshot answers the whole request: a warm cache hit
        answers at once with zero GEMM work (even after :meth:`close`);
        a miss needs an open frontend and scans that snapshot on this
        thread.
        ``mode`` overrides the configured index for
        this one request: ``"exact"`` forces the brute-force oracle
        (full recall), ``"ivf"`` requests the approximate index (falls
        back to exact automatically when no index matches the served
        snapshot).  ``timeout`` is accepted for interface parity with
        the sharded frontend; nothing here waits.
        """
        rec = get_recorder()
        start = time.monotonic()
        node = int(node)
        k = self.config.default_k if k is None else int(k)
        result = self.index.top_k(
            node, k, mode, on_miss=lambda: self._require_open("top-k"))
        if rec.enabled:
            rec.counter("serving.requests.topk")
            rec.observe("serving.latency.topk_s", time.monotonic() - start)
        return result
