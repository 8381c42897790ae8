"""Blocked top-k recommendation index with a generation-keyed LRU cache.

Top-k over the embedding matrix is the serving analogue of the paper's
similarity-driven downstream tasks: "who should node ``u`` connect to
next" is ``argmax_v f(u) . f(v)`` (§IV-B edge scoring without the
classifier head).  :class:`RecommendationIndex` evaluates it in blocks
of rows — bounded peak memory regardless of graph size, the same reason
the walk kernel processes CSR slices — and memoizes per-``(node, k)``
results in an LRU cache.  Every query is scored by one single-query
kernel, so an answer is a pure function of (rows, query, k) and never
depends on which other requests were in flight.

The kernel screens before it scores.  Each block is first scored in
float32, from the snapshot's column-major float32 shadow (half the
bytes of the float64 matrix, which is what a memory-bound scan pays
for) by BLAS ``sgemv``, which streams the columns and releases the GIL
while it runs; the screen's bound holds in any summation order, so
BLAS's own order is safe there.  Only the rows whose float32 score
could still reach the block's ``k``-th best under a rigorous
rounding-error bound are re-scored with the float64 kernel and
selected (:func:`_survivors` derives the bound).
Every row the float64 full scan would select, and every row tied with
its last pick, survives the screen, so ids, ties and score bytes are
exactly the float64 full scan's.  On a Gaussian 10^5 x 64 catalog
about 10 rows per block survive for ``k = 10``.  Every miss scans the
blocks itself, on its caller's thread, with one BLAS call per block, so
concurrent misses screen on as many cores as there are callers and
none waits on another.

Two execution modes share the scoring/selection code:

- ``"exact"`` — the blocked full scan (the oracle): every row screened,
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

Work accounting: ``serving.index.gemm_rows`` counts rows screened
(row-dot-products evaluated in float32) and
``serving.index.rescored_rows`` the float64 re-scores among them; a warm
cache hit adds exactly zero to either.  The ANN path
additionally books ``serving.ann.*`` (cells probed, candidates scored,
fallbacks, sampled recall).
"""

from __future__ import annotations

import functools
import math
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.errors import ServingError
from repro.observability import get_recorder
from repro.serving.ann import INDEX_CHOICES
from repro.serving.store import (
    EmbeddingSnapshot,
    EmbeddingStore,
    scale_exponent,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.ann import IvfIndexManager

METRIC_CHOICES = ("dot", "cosine")

#: One cached result: (ids desc by score, scores) — both read-only.
TopK = tuple[np.ndarray, np.ndarray]

#: One request: ``(node, k)`` or ``(node, k, mode)`` with mode one of
#: :data:`~repro.serving.ann.INDEX_CHOICES` (None -> the index default).
TopKRequest = "tuple[int, int] | tuple[int, int, str | None]"

_TINY = np.finfo(np.float64).tiny

#: Unit roundoffs of float32 and float64.
_U32 = 2.0 ** -24
_U64 = 2.0 ** -53
#: Absolute error of one float32 rounding in the underflow range.  The
#: half-spacing of float32 subnormals is 2**-150; 2**-125 also covers a
#: flush-to-zero FPU (2**-126) and the float64 scaling step before it.
_ETA32 = 2.0 ** -125
#: The same for a float64 product (flush-to-zero included).
_ETA64 = 2.0 ** -1021
_F32_MAX = float(np.finfo(np.float32).max)
#: Covers the rounding of the handful of float64 operations that
#: evaluate the bound itself.
_SAFETY = 1.0 + 2.0 ** -20


class _ScreenTerms(NamedTuple):
    """Constants of the screen's error bound for one dimension ``d``.

    A computed row norm ``n`` bounds the true one as
    ``||x|| <= n * norm_rel + norm_abs`` (the sum of squares has
    relative error ``gamma_d`` in float64, and underflowing squares and
    partial sums lose at most ``2 d * 2**-1021`` of it).  :meth:`bound` is the error
    bound derived in :func:`_survivors`.
    """

    norm_rel: float
    norm_abs: float
    c1: float
    c2: float
    c3: float
    c4: float

    def bound(self, x, q: float, exp: int):
        """Upper bound on ``|s32 - 2**exp * s64|`` for rows of norm at
        most ``x`` and a query of norm at most ``q`` (both scaled, like
        the float32 operands, by ``2**exp`` together); ``x`` may be an
        array of per-row bounds."""
        return (self.c1 * q * x + self.c2 * (x + q) + self.c3
                + _ldexp(self.c4, exp)) * _SAFETY


def _gamma(n: int, u: float) -> float:
    """Higham's ``gamma_n = n u / (1 - n u)`` (inf when ``n u >= 1``)."""
    return n * u / (1.0 - n * u) if n * u < 1.0 else math.inf


@functools.lru_cache(maxsize=None)
def _screen_terms(dim: int) -> _ScreenTerms:
    g32, g64 = _gamma(dim, _U32), _gamma(dim + 2, _U64)
    root = math.sqrt(dim)
    return _ScreenTerms(
        norm_rel=1.0 / (1.0 - g64),
        norm_abs=root * 2.0 ** -510,
        c1=(1.0 + g32) * (1.0 + _U32) ** 2 - 1.0 + g64,
        c2=(2.0 + g32) * _ETA32 * (1.0 + _U32) * root,
        # Every product, and under flush-to-zero every partial sum, can
        # lose up to one underflow step: 2 d of them per dot product.
        c3=(2.0 + g32) * dim * _ETA32 ** 2 + 2 * dim * _ETA32 * (1.0 + g32),
        c4=2 * dim * _ETA64 * (1.0 + g64),
    )


def _ldexp(x: float, exp: int) -> float:
    """``x * 2**exp``, saturating to inf instead of raising."""
    try:
        return math.ldexp(x, exp)
    except OverflowError:
        return math.inf


def _floor32(value: float) -> "np.float32 | None":
    """A float32 no larger than the real number ``value`` was rounded
    from (None when there is none worth screening with)."""
    value = math.nextafter(value, -math.inf)  # the rounding of value
    if not value > -_F32_MAX:  # -inf, NaN, or below float32's range
        return None
    out = np.float32(value)
    if float(out) > value:
        out = np.nextafter(out, np.float32(-np.inf))
    return out


def _survivors(metric: str, screen: np.ndarray, norms: np.ndarray,
               query: "_Query", take: int, self_pos: int) -> np.ndarray:
    """Ascending offsets of the block rows that can reach its top ``take``.

    ``screen`` holds the float32 scores of the block's shadow rows
    (``s32``, in the shadow's and the query's scaled units: the true
    score times ``2**exp``).  ``s64`` is the float64 kernel's score,
    the one the answer is made of.  With ``u = 2**-24`` and
    ``gamma_d = d u / (1 - d u)``, rounding the operands to float32
    costs a factor ``(1 + u)`` each and the float32 dot product a
    factor ``(1 + gamma_d)`` on every term, in any summation order, so

        |s32 - 2**exp * s64| <= ((1+u)^2 (1+gamma_d) - 1 + gamma64_d)
                                * ||q|| * ||x||  + underflow terms

    (:meth:`_ScreenTerms.bound`, ``B``).  Let ``K`` be the block's
    ``take``-th best float64 score.  Fewer than ``take`` rows score
    above ``K``, and each row screens within ``B`` of its own score, so
    the ``take``-th best screen score ``kth32`` is at most
    ``2**exp K + B``; a row scoring ``K`` or better screens at least
    ``2**exp K - B >= kth32 - 2B``.  Keeping every row with
    ``s32 >= kth32 - 2B`` therefore keeps the whole float64 top
    ``take`` *and* every row tied with its last entry, and selecting
    among the survivors by (score, lower id) picks exactly the rows the
    full float64 scan picks.  For cosine the same bound is divided by
    each row's own denominator: each row gets an interval ``[lo, hi]``
    holding its float64 cosine, and a row is kept when ``hi`` reaches
    the ``take``-th best ``lo``.

    Whatever the bound cannot cover keeps every row (it is then as
    good as a full float64 scan of the block): float64 scores that
    could overflow, or a bound or threshold that is not finite.
    """
    n = len(screen)
    terms = _screen_terms(len(query.vector))
    shadow_exp = query.snapshot.shadow_exp
    exp = shadow_exp + query.q_exp
    x_max = _ldexp(float(norms.max()) * terms.norm_rel + terms.norm_abs,
                   shadow_exp)
    if _ldexp(x_max * query.q_bound, -exp) >= 2.0 ** 1022:
        return np.arange(n)
    if metric == "dot":
        if self_pos >= 0:
            screen[self_pos] = -np.inf
        kth = float(np.partition(screen, n - take)[n - take])
        floor = _floor32(kth - 2.0 * terms.bound(x_max, query.q_bound, exp))
        if floor is None:
            return np.arange(n)
        return np.flatnonzero(screen >= floor)
    with np.errstate(all="ignore"):
        x = np.ldexp(norms * terms.norm_rel + terms.norm_abs, shadow_exp)
        spread = terms.bound(x, query.q_bound, exp)
        # The float64 kernel's denominators, scaled like the screen.
        denom = np.where(norms == 0.0, 1.0, norms) * query.qnorm
        np.maximum(denom, _TINY, out=denom)
        denom = np.ldexp(denom, exp)
        lo = (screen - spread) / denom
        hi = (screen + spread) / denom
        # Room for the rounding of these divisions and of the cosine.
        slack = (np.abs(lo) + np.abs(hi)) * 2.0 ** -50 + 2.0 ** -1000
        lo -= slack
        hi += slack
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()
            and _TINY <= denom.min() and np.isfinite(denom.max())):
        return np.arange(n)
    if self_pos >= 0:
        lo[self_pos] = hi[self_pos] = -np.inf
    return np.flatnonzero(hi >= np.partition(lo, n - take)[n - take])


def _take(array: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """``array[ids]`` for ascending ``ids``; a slice (no copy) when they
    are consecutive, so a candidate set covering the whole id range
    reads exactly the rows a full scan reads."""
    if len(ids) and int(ids[-1]) - int(ids[0]) + 1 == len(ids):
        return array[int(ids[0]):int(ids[-1]) + 1]
    return array[ids]


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
        hits are answered in place; each distinct exact miss scans the
        catalog in turn, and each distinct ANN miss scores only its
        probed candidate rows; in either mode duplicates share the
        answer.  Each distinct lookup that misses counts one
        ``serving.index.cache_misses``,
        plus one ``serving.ann.fallbacks`` when it asks for IVF and no
        index is ready.  The whole batch answers from the one snapshot
        taken here — cache lookups and the ANN index are pinned to its
        version, so a publish (or an index build) racing the batch can
        never mix results from two embedding generations in one
        response.
        """
        snapshot = self.store.snapshot()
        rec = get_recorder()
        ann_index = None
        if self.ann is not None:
            ann_index = self.ann.index_for(snapshot)
        results: dict[int, TopK] = {}
        exact_misses: list[tuple[int, int, int]] = []  # (i, node, k)
        ivf_misses: list[tuple[int, int, int]] = []
        missed: set[tuple[int, int, str]] = set()
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
            # One miss per distinct lookup, whichever path then answers
            # it (an IVF miss that falls back to exact is not recounted),
            # and one no-index fallback per distinct IVF lookup.
            if (node, k, mode) not in missed:
                missed.add((node, k, mode))
                rec.counter("serving.index.cache_misses")
                if mode == "ivf" and ann_index is None:
                    # Cold store, build in flight, or store too small.
                    rec.counter("serving.ann.fallbacks")
                    rec.counter("serving.ann.fallbacks.no_index")
            if mode == "ivf" and ann_index is not None:
                ivf_misses.append((i, node, k))
            else:
                exact_misses.append((i, node, k))

        # Distinct IVF misses run one ANN query each; duplicates share it.
        ivf_computed: dict[tuple[int, int], TopK | None] = {}
        for i, node, k in ivf_misses:
            if (node, k) not in ivf_computed:
                result = self._compute_ivf(snapshot, ann_index, node, k)
                ivf_computed[(node, k)] = result
                if result is not None:
                    self._fill(snapshot, node, k, "ivf", result)
            result = ivf_computed[(node, k)]
            if result is None:  # not enough candidates: exact fallback
                exact_misses.append((i, node, k))
            else:
                results[i] = result

        # Distinct exact misses scan the catalog; duplicates share it.
        exact_computed: dict[tuple[int, int], TopK] = {}
        for i, node, k in exact_misses:
            if (node, k) not in exact_computed:
                exact_computed[(node, k)] = result = self._scan_node(
                    snapshot, node, k)
                self._fill(snapshot, node, k, "exact", result)
            results[i] = exact_computed[(node, k)]
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
        by the global query node id, which this index never sees.  A
        vector whose norm is not finite raises :class:`ServingError`,
        as a published row would.
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
        if not np.isfinite(norm):
            raise ServingError(
                f"query vector must be finite, got norm {norm}")
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

    def _scan_node(self, snapshot: EmbeddingSnapshot, node: int, k: int,
                   row_ids: np.ndarray | None = None) -> TopK:
        """:meth:`_scan` for a catalog row, which never recommends itself."""
        return self._scan(snapshot, snapshot.matrix[node],
                          snapshot.norms[node], node, k, row_ids)

    def _scan(self, snapshot: EmbeddingSnapshot, vector: np.ndarray,
              query_norm: float, exclude: int, k: int,
              row_ids: np.ndarray | None = None) -> TopK:
        """Blocked exact top-k for one query vector, on this thread.

        Returns read-only ``(ids, scores)`` sorted best-first (ties
        broken by lower id).  Peak memory is O(block_size) however
        large the matrix is.  ``exclude`` is the row id that may not be
        recommended (-1 = none: the query row lives on another shard).

        ``row_ids`` (sorted ascending) restricts scoring to a candidate
        subset — the ANN path — through the same block loop as the full
        scan.  A block of consecutive ids is served from a contiguous
        slice, so candidates covering the whole id range
        (``nprobe = nlist``) run the *identical* block/score/selection
        sequence as the full scan and return bit-identical results.
        """
        n = snapshot.num_nodes
        # Self-exclusion consumes one candidate; a query with no local
        # exclusion row (remote shard) can use all n.
        k_eff = min(k, n - 1) if exclude >= 0 else min(k, n)
        if k_eff <= 0:
            return _empty()
        query = _Query(snapshot, vector, query_norm, exclude, k_eff)
        total = n if row_ids is None else len(row_ids)
        for start in range(0, total, self.block_size):
            stop = min(total, start + self.block_size)
            ids_block = (np.arange(start, stop) if row_ids is None
                         else row_ids[start:stop])
            self._visit(ids_block, _take(snapshot.shadow, ids_block),
                        _take(snapshot.norms, ids_block), query)
        rec = get_recorder()
        rec.counter("serving.index.gemm_rows", total)
        rec.counter("serving.index.rescored_rows", query.rescored)
        return query.result()

    def _visit(self, ids_block: np.ndarray, rows: np.ndarray,
               row_norms: np.ndarray, query: "_Query") -> None:
        """Screen one block for ``query`` and keep its block top.

        ``rows`` are the block's float32 shadow rows, scored with the
        float32 query in one BLAS call.  The rows whose score could
        reach the block's ``k``-th best (:func:`_survivors`) are
        re-scored with the float64 kernel before selecting, so the
        block top is exactly the float64 full scan's.
        """
        # BLAS sgemv over the column-major shadow: it streams memory and
        # releases the GIL, where the per-row einsum is bound by
        # arithmetic and holds the GIL.  Its summation order is BLAS's
        # own, which the screen's bound allows; the float64 scores
        # below keep einsum.
        screen = np.matmul(rows, query.query32)
        snapshot = query.snapshot
        take = min(query.k, len(rows))
        pos = int(np.searchsorted(ids_block, query.exclude))
        self_pos = (pos if pos < len(ids_block)
                    and ids_block[pos] == query.exclude else -1)
        if take == len(rows):
            keep = np.arange(len(rows))
        else:
            keep = _survivors(self.metric, screen, row_norms, query, take,
                              self_pos)
        query.rescored += len(keep)
        ids = ids_block[keep]
        # Per-row deterministic kernel: einsum's reduction order depends
        # only on d, never on how many rows it is given, where BLAS GEMV
        # picks shape-dependent accumulation orders.  Scores are
        # therefore a pure function of (row bits, query bits) —
        # whichever rows survive the screen, however the catalog is
        # blocked, and however the rows are split across shards.
        scores = np.einsum("nd,d->n", _take(snapshot.matrix, ids),
                           query.vector)
        if self.metric == "cosine":
            norms = row_norms[keep]
            denom = np.where(norms == 0.0, 1.0, norms) * query.qnorm
            # Two tiny-but-nonzero norms can *underflow* to a zero
            # product even though both factors passed the zero guard;
            # dividing by it put NaN into the ordering.
            np.maximum(denom, _TINY, out=denom)
            scores /= denom
        # Self-exclusion: a query row inside this block never recommends
        # itself.
        if self_pos >= 0:
            at = int(np.searchsorted(keep, self_pos))
            if at < len(keep) and keep[at] == self_pos:
                scores[at] = -np.inf
        part = self._select_top(scores, take)
        query.ids.append(ids[part])
        query.scores.append(scores[part])


class _Query:
    """One exact query's state through a blocked scan."""

    __slots__ = ("snapshot", "vector", "qnorm", "query32", "q_exp",
                 "q_bound", "exclude", "k", "ids", "scores", "rescored")

    def __init__(self, snapshot: EmbeddingSnapshot, vector: np.ndarray,
                 query_norm: float, exclude: int, k: int) -> None:
        self.snapshot = snapshot
        self.vector = vector
        self.qnorm = 1.0 if query_norm == 0.0 else query_norm
        # The screen's query: float32, scaled like the shadow, with an
        # upper bound on its norm in the same units (see _survivors).
        self.q_exp = scale_exponent(query_norm)
        self.query32 = np.ldexp(vector, self.q_exp).astype(np.float32)
        terms = _screen_terms(len(vector))
        self.q_bound = _ldexp(query_norm * terms.norm_rel + terms.norm_abs,
                              self.q_exp)
        self.exclude = exclude
        self.k = k
        self.ids: list[np.ndarray] = []
        self.scores: list[np.ndarray] = []
        self.rescored = 0     # float64 rows re-scored after the screen

    def result(self) -> TopK:
        """The best ``k`` candidates, best first, ties by lower id."""
        pool_ids = np.concatenate(self.ids)
        pool_scores = np.concatenate(self.scores)
        order = np.lexsort((pool_ids, -pool_scores))[:self.k]
        return _frozen(pool_ids[order], pool_scores[order])
