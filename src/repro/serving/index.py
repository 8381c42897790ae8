"""Blocked top-k recommendation index with a generation-keyed LRU cache.

Top-k over the embedding matrix is the serving analogue of the paper's
similarity-driven downstream tasks: "who should node ``u`` connect to
next" is ``argmax_v f(u) . f(v)`` (§IV-B edge scoring without the
classifier head).  :class:`RecommendationIndex` evaluates it in blocks
of rows — bounded peak memory regardless of graph size, the same reason
the walk kernel processes CSR slices — and memoizes per-``(node, k)``
results in an LRU cache.  Every query is scored by one single-query
kernel, so an answer is a pure function of (rows, query, k) and never
depends on which other requests were in flight.  Concurrent full scans
share one pass over the blocks (see :meth:`RecommendationIndex._ride`):
each block is read from memory once for all of them, and none waits
for the others to arrive.

Two execution modes share the scoring/selection code:

- ``"exact"`` — the blocked full scan (the oracle): every row scored,
  ties broken by lower id;
- ``"ivf"`` — candidates come from an :class:`~repro.serving.ann
  .IvfIndex` (probe ``nprobe`` k-means cells), and only those rows run
  through the *same* blocked scorer.  Queries fall back to exact
  automatically when no index matches the pinned snapshot version
  (cold store, build in flight, store below ``min_index_nodes``) or the
  probed candidates cannot cover ``min(k, n - 1)`` results.

Cache entries are valid for exactly one
:class:`~repro.serving.store.EmbeddingSnapshot` *version* and one mode:
the first query after a publish observes the version bump and drops the
whole cache, so a stale top-k can never be served once new embeddings
are published, and an ``"exact"`` request can never be answered from an
approximate entry (the reverse is allowed — an exact answer has
recall 1).

Work accounting: ``serving.index.gemm_rows`` counts row-dot-products
evaluated; a warm cache hit adds exactly zero to it.  The ANN path
additionally books ``serving.ann.*`` (cells probed, candidates scored,
fallbacks, sampled recall).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ServingError
from repro.observability import get_recorder
from repro.serving.ann import INDEX_CHOICES
from repro.serving.store import EmbeddingSnapshot, EmbeddingStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.ann import IvfIndexManager

METRIC_CHOICES = ("dot", "cosine")

#: One cached result: (ids desc by score, scores) — both read-only.
TopK = tuple[np.ndarray, np.ndarray]

#: One request: ``(node, k)`` or ``(node, k, mode)`` with mode one of
#: :data:`~repro.serving.ann.INDEX_CHOICES` (None -> the index default).
TopKRequest = "tuple[int, int] | tuple[int, int, str | None]"

_TINY = np.finfo(np.float64).tiny

#: Rows scored per einsum call when a block is shared by several
#: queries: small enough that a chunk read from memory for the first
#: query is still in L2 for the others.
_CHUNK_BYTES = 1 << 19


def _frozen(ids: np.ndarray, scores: np.ndarray) -> TopK:
    ids.setflags(write=False)
    scores.setflags(write=False)
    return ids, scores


def _empty() -> TopK:
    return _frozen(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))


class RecommendationIndex:
    """Cached blocked top-k over the currently served embeddings."""

    def __init__(
        self,
        store: EmbeddingStore,
        cache_size: int = 4096,
        block_size: int = 8192,
        metric: str = "dot",
        ann: "IvfIndexManager | None" = None,
        default_mode: str | None = None,
    ) -> None:
        if cache_size < 0:
            raise ServingError(f"cache_size must be >= 0, got {cache_size}")
        if block_size < 1:
            raise ServingError(f"block_size must be >= 1, got {block_size}")
        if metric not in METRIC_CHOICES:
            raise ServingError(
                f"unknown metric {metric!r}; options: {list(METRIC_CHOICES)}"
            )
        if default_mode is None:
            default_mode = "ivf" if ann is not None else "exact"
        if default_mode not in INDEX_CHOICES:
            raise ServingError(
                f"unknown index mode {default_mode!r}; options: "
                f"{list(INDEX_CHOICES)}"
            )
        if default_mode == "ivf" and ann is None:
            raise ServingError("default_mode='ivf' requires an ann manager")
        self.store = store
        self.cache_size = cache_size
        self.block_size = block_size
        self.metric = metric
        self.ann = ann
        self.default_mode = default_mode
        self._lock = threading.Lock()
        self._cache: OrderedDict[tuple[int, int, str], TopK] = OrderedDict()
        self._cache_version: int = -1
        self._ann_query_count = 0
        # The shared pass: riders in flight, and whether a caller is
        # driving it (see _ride).
        self._pass = threading.Condition()
        self._riders: list[_Rider] = []
        self._driving = False

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------
    def _sync_version(self, snapshot: EmbeddingSnapshot) -> None:
        """Drop every entry computed against an older snapshot.

        Caller must hold the lock.  Runs on the query path, so the
        first read after a publish — not the publish itself — pays the
        O(1) clear; publishes stay wait-free.  Only ever advances: a
        reader holding an older snapshot than the cache must not roll
        the cache back to it.
        """
        if self._cache_version < snapshot.version:
            self._cache.clear()
            self._cache_version = snapshot.version

    def _resolve_mode(self, mode: str | None) -> str:
        if mode is None:
            return self.default_mode
        if mode not in INDEX_CHOICES:
            raise ServingError(
                f"unknown index mode {mode!r}; options: {list(INDEX_CHOICES)}"
            )
        if mode == "ivf" and self.ann is None:
            raise ServingError(
                "index mode 'ivf' requested but no ANN manager is attached"
            )
        return mode

    def cached(self, node: int, k: int,
               snapshot: EmbeddingSnapshot | None = None,
               mode: str | None = None) -> TopK | None:
        """Return the cached result for ``(node, k, mode)`` or None.

        Only results computed against ``snapshot``'s version qualify
        (the *current* store snapshot when omitted); a hit refreshes
        LRU recency and counts as ``serving.index.cache_hits``.
        Passing an explicit snapshot pins a multi-request batch to one
        version: a publish landing mid-batch cannot mix newer cache
        hits into a batch computed against the older snapshot.  An
        ``"ivf"`` lookup may also be answered by an ``"exact"`` entry
        (exact answers have recall 1); the reverse never happens.
        """
        mode = self._resolve_mode(mode)
        if snapshot is None:
            snapshot = self.store.snapshot()
        with self._lock:
            self._sync_version(snapshot)
            if self._cache_version != snapshot.version:
                # The cache has moved past this snapshot's version; its
                # entries would answer from a different generation.
                return None
            hit = self._cache.get((node, k, mode))
            if hit is None and mode == "ivf":
                hit = self._cache.get((node, k, "exact"))
                if hit is not None:
                    self._cache.move_to_end((node, k, "exact"))
            elif hit is not None:
                self._cache.move_to_end((node, k, mode))
            if hit is None:
                return None
        get_recorder().counter("serving.index.cache_hits")
        return hit

    def _fill(self, snapshot: EmbeddingSnapshot, node: int, k: int,
              mode: str, result: TopK) -> None:
        with self._lock:
            if self._cache_version != snapshot.version or self.cache_size == 0:
                return
            self._cache[(node, k, mode)] = result
            self._cache.move_to_end((node, k, mode))
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
                get_recorder().counter("serving.index.cache_evictions")

    def __len__(self) -> int:
        with self._lock:
            return len(self._cache)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def top_k(self, node: int, k: int, mode: str | None = None) -> TopK:
        """Top-``k`` nodes for ``node`` (self excluded), best first."""
        hit = self.cached(node, k, mode=mode)
        if hit is not None:
            return hit
        return self.top_k_batch([(node, k, mode)])[0]

    def top_k_batch(self, requests: "list[TopKRequest]") -> list[TopK]:
        """Serve many requests from one snapshot.

        Each request is ``(node, k)`` or ``(node, k, mode)``.  Cache
        hits are answered in place; the distinct exact misses ride the
        shared pass together, each scored by the single-query kernel
        (duplicates share the answer), while ANN requests score only
        their probed candidate rows.  The whole batch answers from the one snapshot taken here
        — cache lookups and the ANN index are pinned to its version, so
        a publish (or an index build) racing the batch can never mix
        results from two embedding generations in one response.
        """
        snapshot = self.store.snapshot()
        rec = get_recorder()
        ann_index = None
        if self.ann is not None:
            ann_index = self.ann.index_for(snapshot)
        results: dict[int, TopK] = {}
        exact_misses: list[tuple[int, int, int]] = []  # (i, node, k)
        ivf_misses: list[tuple[int, int, int]] = []
        for i, request in enumerate(requests):
            node, k = int(request[0]), int(request[1])
            mode = self._resolve_mode(
                request[2] if len(request) > 2 else None  # type: ignore[misc]
            )
            self._validate(snapshot, node, k)
            hit = self.cached(node, k, snapshot, mode)
            if hit is not None:
                results[i] = hit
                continue
            if mode == "ivf":
                if ann_index is None:
                    # Cold store, build in flight, or store too small.
                    rec.counter("serving.ann.fallbacks")
                    rec.counter("serving.ann.fallbacks.no_index")
                else:
                    ivf_misses.append((i, node, k))
                    continue
            exact_misses.append((i, node, k))

        for i, node, k in ivf_misses:
            result = self._compute_ivf(snapshot, ann_index, node, k)
            if result is None:  # not enough candidates: exact fallback
                exact_misses.append((i, node, k))
                continue
            results[i] = result
            self._fill(snapshot, node, k, "ivf", result)

        # Distinct exact misses ride the shared pass together.
        riders: dict[tuple[int, int], _Rider | None] = {}
        for _, node, k in exact_misses:
            if (node, k) not in riders:
                rec.counter("serving.index.cache_misses")
                riders[(node, k)] = self._rider(
                    snapshot, snapshot.matrix[node], snapshot.norms[node],
                    node, k)
        running = [r for r in riders.values() if r is not None]
        if running:
            self._ride(running)
            rec.counter("serving.index.gemm_rows",
                        snapshot.num_nodes * len(running))
        computed: dict[tuple[int, int], TopK] = {}
        for (node, k), rider in riders.items():
            computed[(node, k)] = result = (
                _empty() if rider is None else rider.result())
            self._fill(snapshot, node, k, "exact", result)
        for i, node, k in exact_misses:
            results[i] = computed[(node, k)]
        return [results[i] for i in range(len(requests))]

    def top_k_vector(self, vector: np.ndarray, k: int,
                     exclude_row: int = -1,
                     row_ids: np.ndarray | None = None) -> TopK:
        """Top-``k`` rows for a raw query vector, best first.

        The sharded serving tier's scatter path: every shard scores the
        *shipped* query vector against its local rows, so the query
        node's own row only exists (and is excluded, via
        ``exclude_row``) on the owning shard.  ``row_ids`` restricts
        scoring to a sorted candidate subset (the per-shard IVF path).
        Results are not cached here — the shard worker keys its own LRU
        by the global query node id, which this index never sees.
        """
        snapshot = self.store.snapshot()
        vector = np.asarray(vector, dtype=np.float64).reshape(-1)
        if vector.shape[0] != snapshot.dim:
            raise ServingError(
                f"query vector has dim {vector.shape[0]}, "
                f"snapshot has dim {snapshot.dim}"
            )
        if k < 1:
            raise ServingError(f"k must be >= 1, got {k}")
        if exclude_row >= snapshot.num_nodes:
            raise ServingError(
                f"exclude_row {exclude_row} out of range "
                f"[0, {snapshot.num_nodes})"
            )
        # Same per-row reduction as the snapshot's own norms, so a
        # shipped copy of a row scores bit-identically to the row.
        norm = np.linalg.norm(vector[None, :], axis=1)[0]
        return self._scan(snapshot, vector, norm, int(exclude_row), k,
                          row_ids)

    def _validate(self, snapshot: EmbeddingSnapshot, node: int,
                  k: int) -> None:
        if not 0 <= node < snapshot.num_nodes:
            raise ServingError(
                f"node {node} out of range [0, {snapshot.num_nodes})"
            )
        if k < 1:
            raise ServingError(f"k must be >= 1, got {k}")

    # ------------------------------------------------------------------
    # ANN path
    # ------------------------------------------------------------------
    def _compute_ivf(self, snapshot: EmbeddingSnapshot, ann_index,
                     node: int, k: int) -> TopK | None:
        """One ANN query: probe cells, score candidates exactly.

        Returns None when the probed candidates cannot fill
        ``min(k, n - 1)`` results (empty probe cells, ``k`` exhausting
        the indexed rows) — the caller then takes the exact path, so an
        ANN answer always has the same shape as the exact one.
        """
        rec = get_recorder()
        candidates, probed = ann_index.candidate_rows(node)
        k_eff = min(k, snapshot.num_nodes - 1)
        available = len(candidates)
        if available and np.searchsorted(candidates, node) < available \
                and candidates[np.searchsorted(candidates, node)] == node:
            available -= 1  # self-exclusion consumes one candidate
        if available < k_eff:
            rec.counter("serving.ann.fallbacks")
            rec.counter("serving.ann.fallbacks.insufficient_candidates")
            return None
        rec.counter("serving.ann.queries")
        rec.counter("serving.ann.cells_probed", probed)
        rec.counter("serving.ann.candidates_scored", len(candidates))
        result = self._scan_node(snapshot, node, k, row_ids=candidates)
        self._maybe_sample_recall(snapshot, node, k, result)
        return result

    def _maybe_sample_recall(self, snapshot: EmbeddingSnapshot, node: int,
                             k: int, result: TopK) -> None:
        """Shadow-check every N-th ANN answer against the oracle."""
        every = self.ann.config.recall_sample_every if self.ann else 0
        if every <= 0:
            return
        with self._lock:
            self._ann_query_count += 1
            due = self._ann_query_count % every == 0
        if not due:
            return
        exact_ids, _ = self._scan_node(snapshot, node, k)
        k_eff = len(exact_ids)
        recall = 1.0
        if k_eff:
            overlap = np.intersect1d(result[0], exact_ids)
            recall = len(overlap) / k_eff
        rec = get_recorder()
        rec.counter("serving.ann.recall_samples")
        rec.observe("serving.ann.recall_at_k", recall)

    # ------------------------------------------------------------------
    @staticmethod
    def _select_top(scores: np.ndarray, take: int) -> np.ndarray:
        """Ascending offsets of the top ``take`` entries of ``scores``.

        Exact total order: descending score, ties broken by *lower
        offset* (= lower node id, since blocks are id-ascending).  One
        partition finds the ``take``-th best value; every entry at or
        above it is a candidate.  A plain ``argpartition`` would keep
        an arbitrary subset of the ties at that value, so when they
        overflow ``take`` only the lowest-offset ties are admitted.
        """
        rows = len(scores)
        if take >= rows:
            return np.arange(rows)
        kth = np.partition(scores, rows - take)[rows - take]
        idx = np.flatnonzero(scores >= kth)
        if len(idx) > take:
            above = idx[scores[idx] > kth]
            tied = idx[scores[idx] == kth]
            idx = np.sort(np.concatenate(
                (above, tied[:take - len(above)])))
        return idx

    def _rider(self, snapshot: EmbeddingSnapshot, query: np.ndarray,
               query_norm: float, exclude: int, k: int) -> "_Rider | None":
        """One exact query (None when it has nothing to return)."""
        n = snapshot.num_nodes
        # Self-exclusion consumes one candidate; a query with no local
        # exclusion row (remote shard) can use all n.
        k_eff = min(k, n - 1) if exclude >= 0 else min(k, n)
        if k_eff <= 0:
            return None
        return _Rider(snapshot, query, query_norm, exclude, k_eff,
                      -(-n // self.block_size))

    def _scan_node(self, snapshot: EmbeddingSnapshot, node: int, k: int,
                   row_ids: np.ndarray | None = None) -> TopK:
        """:meth:`_scan` for a catalog row, which never recommends itself."""
        return self._scan(snapshot, snapshot.matrix[node],
                          snapshot.norms[node], node, k, row_ids)

    def _scan(self, snapshot: EmbeddingSnapshot, query: np.ndarray,
              query_norm: float, exclude: int, k: int,
              row_ids: np.ndarray | None = None) -> TopK:
        """Blocked exact top-k for one query vector.

        Returns read-only ``(ids, scores)`` sorted best-first (ties
        broken by lower id).  Peak memory is O(block_size) however
        large the matrix is.  ``exclude`` is the row id that may not be
        recommended (-1 = none: the query row lives on another shard).

        A full scan rides the shared pass (:meth:`_ride`).  ``row_ids``
        (sorted ascending) restricts scoring to a candidate subset — the
        ANN path — scanned on this thread alone.  A block of consecutive
        ids is detected and served from a contiguous slice, so
        candidates covering the whole id range (``nprobe = nlist``) run
        the *identical* block/score/selection sequence as the full scan
        and return bit-identical results.
        """
        rider = self._rider(snapshot, query, query_norm, exclude, k)
        if rider is None:
            return _empty()
        if row_ids is None:
            total = snapshot.num_nodes
            self._ride([rider])
        else:
            total = len(row_ids)
            for start in range(0, total, self.block_size):
                stop = min(total, start + self.block_size)
                self._visit(*self._block(snapshot, start, stop, row_ids),
                            [rider])
        get_recorder().counter("serving.index.gemm_rows", total)
        return rider.result()

    @staticmethod
    def _block(snapshot: EmbeddingSnapshot, start: int, stop: int,
               row_ids: np.ndarray | None = None,
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ids, rows, norms)`` of block ``[start, stop)`` of the scan."""
        if row_ids is None:
            return (np.arange(start, stop), snapshot.matrix[start:stop],
                    snapshot.norms[start:stop])
        ids_block = row_ids[start:stop]
        lo, hi = int(ids_block[0]), int(ids_block[-1])
        if hi - lo + 1 == len(ids_block):  # consecutive run
            return (ids_block, snapshot.matrix[lo:hi + 1],
                    snapshot.norms[lo:hi + 1])
        return (ids_block, snapshot.matrix[ids_block],
                snapshot.norms[ids_block])

    def _visit(self, ids_block: np.ndarray, rows: np.ndarray,
               row_norms: np.ndarray, riders: "list[_Rider]") -> None:
        """Score one block for every rider and keep each one's block top.

        With several riders the block is scored in L2-sized chunks, one
        chunk for every rider before the next chunk, so the rows are
        read from memory once for all of them.
        """
        chunk = len(rows)
        if len(riders) > 1:
            chunk = max(1, _CHUNK_BYTES // max(1, rows[:1].nbytes))
        outs = [np.empty(len(rows)) for _ in riders]
        for lo in range(0, len(rows), chunk):
            part = rows[lo:lo + chunk]
            for rider, out in zip(riders, outs):
                # Per-row deterministic kernel: einsum's reduction order
                # depends only on d, never on how many rows it is given,
                # where BLAS GEMV picks shape-dependent accumulation
                # orders.  Scores are therefore a pure function of (row
                # bits, query bits) — whatever the chunking, and however
                # the rows are split across shards.
                np.einsum("nd,d->n", part, rider.query,
                          out=out[lo:lo + chunk])
        for rider, block_scores in zip(riders, outs):
            if self.metric == "cosine":
                denom = np.where(row_norms == 0.0, 1.0, row_norms) \
                    * rider.qnorm
                # Two tiny-but-nonzero norms can *underflow* to a zero
                # product even though both factors passed the zero
                # guard; dividing by it put NaN into the ordering.
                np.maximum(denom, _TINY, out=denom)
                block_scores /= denom
            # Self-exclusion: a query row inside this block never
            # recommends itself.
            pos = int(np.searchsorted(ids_block, rider.exclude))
            if pos < len(ids_block) and ids_block[pos] == rider.exclude:
                block_scores[pos] = -np.inf
            part = self._select_top(block_scores, min(rider.k, len(rows)))
            rider.ids.append(ids_block[part])
            rider.scores.append(block_scores[part])

    # ------------------------------------------------------------------
    # Shared pass
    # ------------------------------------------------------------------
    def _ride(self, riders: "list[_Rider]") -> None:
        """Run full-catalog scans through the shared pass; block until done.

        Concurrent exact misses share one cyclic pass over the blocks:
        a rider joins at the block the pass visits next and leaves after
        it has seen every block once, so nobody waits for a batch to
        form, and each block is read from memory once per step for all
        riders of its snapshot.  One caller at a time drives the pass on
        its own thread; when its own riders are done it hands the pass
        to a waiting caller.  Candidates are merged with a total order
        (score, then id), so the block a rider starts at cannot change
        its answer.
        """
        drive = False
        with self._pass:
            for rider in riders:
                peer = next((r for r in self._riders
                             if r.snapshot is rider.snapshot), None)
                rider.block = 0 if peer is None else peer.block
                self._riders.append(rider)
            while not all(r.done for r in riders):
                if not self._driving:
                    self._driving = drive = True
                    break
                self._pass.wait()
        if drive:
            try:
                self._drive(riders)
            finally:
                with self._pass:
                    self._driving = False
                    self._pass.notify_all()
        for rider in riders:
            if rider.error is not None:
                raise ServingError("top-k scan failed") from rider.error

    def _drive(self, mine: "list[_Rider]") -> None:
        """Step the shared pass until every rider in ``mine`` is done."""
        while True:
            with self._pass:
                if all(r.done for r in mine):
                    return
                step = list(self._riders)
                groups: dict[tuple[int, int], list[_Rider]] = {}
                for rider in step:
                    groups.setdefault((id(rider.snapshot), rider.block),
                                      []).append(rider)
                    # Advanced before the visit, so a rider joining
                    # meanwhile starts at the block its peers visit next.
                    rider.block = (rider.block + 1) % rider.blocks
            try:
                for (_, block), group in groups.items():
                    snapshot = group[0].snapshot
                    start = block * self.block_size
                    stop = min(snapshot.num_nodes, start + self.block_size)
                    self._visit(*self._block(snapshot, start, stop), group)
            except BaseException as exc:
                with self._pass:
                    for rider in step:
                        rider.error, rider.done = exc, True
                        self._riders.remove(rider)
                    self._pass.notify_all()
                raise
            with self._pass:
                finished = False
                for rider in step:
                    rider.left -= 1
                    if rider.left == 0:
                        rider.done = finished = True
                        self._riders.remove(rider)
                if finished:
                    self._pass.notify_all()


class _Rider:
    """One exact query's progress through a blocked scan."""

    __slots__ = ("snapshot", "query", "qnorm", "exclude", "k", "blocks",
                 "block", "left", "ids", "scores", "done", "error")

    def __init__(self, snapshot: EmbeddingSnapshot, query: np.ndarray,
                 query_norm: float, exclude: int, k: int,
                 blocks: int) -> None:
        self.snapshot = snapshot
        self.query = query
        self.qnorm = 1.0 if query_norm == 0.0 else query_norm
        self.exclude = exclude
        self.k = k
        self.blocks = blocks  # blocks in a full pass (shared pass only)
        self.block = 0        # the next block this rider visits
        self.left = blocks
        self.ids: list[np.ndarray] = []
        self.scores: list[np.ndarray] = []
        self.done = False
        self.error: BaseException | None = None

    def result(self) -> TopK:
        """The best ``k`` candidates, best first, ties by lower id."""
        pool_ids = np.concatenate(self.ids)
        pool_scores = np.concatenate(self.scores)
        order = np.lexsort((pool_ids, -pool_scores))[:self.k]
        return _frozen(pool_ids[order], pool_scores[order])
