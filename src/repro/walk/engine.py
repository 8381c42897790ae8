"""Vectorized temporal random walk engine (Algorithm 1).

The paper's kernel runs three nested loops — walks-per-node ``K``, all
vertices ``|V|``, and steps within a walk — parallelizing the vertex loop
with work-stealing OpenMP threads.  The numpy analogue advances *all
active walks one step per iteration*:

1. a **vectorized binary search** over each walk's time-sorted adjacency
   slice finds the temporally valid edge range (the ``G.sampleLatent``
   neighbor scan that contributes the ``M`` factor to the
   O(K·N·|V|·M) complexity);
2. one next edge per walk is drawn from the Eq. 1 softmax, by either of
   two exact samplers:

   - ``cdf`` (default): per-edge softmax weights are precomputed once as
     per-source-slice cumulative arrays (max-shifted within each slice,
     so no timestamp span can overflow ``exp`` and no cross-slice mass
     can swamp a small slice's prefix sums), so each step is an
     inverse-CDF binary search — O(log M) per walk instead of the
     paper's O(M) scan;
   - ``gumbel``: materializes every valid candidate and takes a segmented
     Gumbel-argmax — the paper-faithful O(M) work shape, useful for
     validation and for measuring what the scan costs;

3. walks whose valid range is empty terminate (this produces the Fig. 4
   power-law length distribution).

Either way the engine records the *scan-model* work counters
(``candidates_scanned`` is the number of edges the paper's kernel would
have touched) that the hardware models in :mod:`repro.hwmodel` consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.errors import WalkError
from repro.graph.csr import TemporalGraph, search_slices
from repro.observability import get_recorder
from repro.rng import SeedLike, make_rng
from repro.walk.config import WalkConfig
from repro.walk.corpus import PAD, WalkCorpus
from repro.walk.sampling import (
    segmented_gumbel_argmax,
    segmented_transition_logits,
)

SAMPLER_CHOICES = frozenset({"cdf", "gumbel"})


def linear_rank_draw(counts: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Closed-form rank draw for the ``linear`` bias.

    Rank weights are ``n, n-1, ..., 1`` (rank 0 = soonest valid edge).
    Cumulative mass through rank ``j-1`` is ``j*n - j(j-1)/2``; inverting
    that quadratic for a uniform target yields the sampled rank without
    materializing any candidate.  ``u`` is one uniform draw per walk.
    """
    n = counts.astype(np.float64)
    total = n * (n + 1.0) / 2.0
    target = u * total
    disc = (2.0 * n + 1.0) ** 2 - 8.0 * target
    j = np.floor((2.0 * n + 1.0 - np.sqrt(disc)) / 2.0).astype(np.int64)
    return np.clip(j, 0, counts - 1)


@dataclass
class WalkStats:
    """Work counters of one engine run.

    These are the raw quantities behind the paper's hardware analysis:
    ``candidates_scanned`` counts the temporal-neighbor edges the paper's
    scan-based kernel touches per step (it drives the memory-instruction
    and softmax fp-op counts of Fig. 9 regardless of which sampler
    executed), ``search_iterations`` the binary-search branch work of the
    valid-range search, ``exp_evaluations`` the transcendental weight
    evaluations actually executed (``exp`` per edge at CDF-table build,
    per candidate under the gumbel sampler — the Fig. 9 fp-instruction
    analog), ``cdf_search_iterations`` the inverse-CDF binary-search
    work of the ``cdf`` sampler, and ``work_per_start_node`` the
    load-imbalance input of the thread-scaling study (Fig. 10).
    """

    num_walks: int = 0
    total_steps: int = 0
    candidates_scanned: int = 0
    search_iterations: int = 0
    terminated_early: int = 0
    exp_evaluations: int = 0
    cdf_search_iterations: int = 0
    work_per_start_node: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )

    @property
    def mean_candidates_per_step(self) -> float:
        """Average temporal neighbors scanned per step."""
        if self.total_steps == 0:
            return 0.0
        return self.candidates_scanned / self.total_steps


def publish_walk_stats(stats: WalkStats) -> None:
    """Flush one run's work counters into the ambient recorder.

    Called once per engine run, so the recorder cost is independent of
    walk count; a :class:`~repro.observability.NullRecorder` makes this
    free.
    """
    rec = get_recorder()
    if not rec.enabled:
        return
    rec.counter("walk.runs")
    rec.counter("walk.num_walks", stats.num_walks)
    rec.counter("walk.steps", stats.total_steps)
    rec.counter("walk.edges_scanned", stats.candidates_scanned)
    rec.counter("walk.search_iterations", stats.search_iterations)
    rec.counter("walk.cdf_search_iterations", stats.cdf_search_iterations)
    rec.counter("walk.exp_evaluations", stats.exp_evaluations)
    rec.counter("walk.terminated_early", stats.terminated_early)
    if stats.total_steps:
        rec.observe("walk.candidates_per_step",
                    stats.candidates_scanned / stats.total_steps)


class _StepTable(NamedTuple):
    """Cached per-source-slice cumulative weights for the ``cdf`` sampler.

    ``cum[e]`` is anchored inside edge ``e``'s source slice in the
    direction of increasing weight (see :meth:`_step_table`); ``end``
    holds the value of the cumulative at each slice's end; ``owner``
    maps an edge to its source node.
    """

    cum: np.ndarray
    end: np.ndarray
    owner: np.ndarray


class TemporalWalkEngine:
    """Runs Algorithm 1 over a :class:`TemporalGraph`.

    ``sampler`` selects the step sampler (see module docstring).  The
    engine caches one per-slice cumulative-weight table per
    (bias, temperature) pair, so repeated runs on the same graph reuse
    it.  ``last_stats`` holds the work counters of the most recent
    :meth:`run`.
    """

    def __init__(self, graph: TemporalGraph, sampler: str = "cdf") -> None:
        if sampler not in SAMPLER_CHOICES:
            raise WalkError(
                f"unknown sampler {sampler!r}; options: {sorted(SAMPLER_CHOICES)}"
            )
        self.graph = graph
        self.sampler = sampler
        self.last_stats: WalkStats | None = None
        self._step_tables: dict[tuple[str, float], _StepTable] = {}
        self._edge_cdf_cache: dict[
            tuple[str, float], tuple[np.ndarray, np.ndarray]
        ] = {}
        self._owner: np.ndarray | None = None
        self._linear_order: np.ndarray | None = None

    def _edge_owner(self) -> np.ndarray:
        """Edge -> source-node map, computed once per engine.

        Shared by the step tables and the edge-start path; the graph is
        immutable for the engine's lifetime, so one O(E) ``np.repeat``
        serves every run.
        """
        if self._owner is None:
            self._owner = np.repeat(
                np.arange(self.graph.num_nodes, dtype=np.int64),
                np.diff(self.graph.indptr),
            )
        return self._owner

    def _linear_edge_order(self) -> np.ndarray:
        """Edge ids sorted by timestamp ascending (global linear ranking).

        Rank 0 is the globally earliest edge — the "soonest" edge from
        the edge-start clock of ``-inf`` — matching the within-slice rank
        ordering of :meth:`_sample_step_cdf`'s linear branch.  Stable so
        ties keep CSR order.
        """
        if self._linear_order is None:
            self._linear_order = np.argsort(
                self.graph.ts, kind="stable"
            ).astype(np.int64)
        return self._linear_order

    # ------------------------------------------------------------------
    def run(
        self,
        config: WalkConfig,
        seed: SeedLike = None,
        start_nodes: np.ndarray | None = None,
        start_time: float | None = None,
    ) -> WalkCorpus:
        """Generate ``K`` walks from every start node.

        ``start_nodes`` defaults to all graph nodes (Algorithm 1's middle
        loop).  ``start_time`` is the initial walk clock; the default
        (``-inf`` forward, ``+inf`` backward) makes every edge of the
        start node valid for the first hop (Algorithm 1 initializes
        ``currTime = 0`` on raw timestamps; with normalized timestamps
        ``-inf`` preserves that semantics for edges at t=0 under the
        strict ``>`` rule).

        Returns the padded walk matrix; work counters land in
        ``self.last_stats``.
        """
        graph = self.graph
        rng = make_rng(seed)
        if start_time is None:
            start_time = -np.inf if config.direction == "forward" else np.inf
        if start_nodes is None:
            start_nodes = np.arange(graph.num_nodes, dtype=np.int64)
        else:
            start_nodes = np.ascontiguousarray(start_nodes, dtype=np.int64)
            if len(start_nodes) and (
                start_nodes.min() < 0 or start_nodes.max() >= graph.num_nodes
            ):
                raise WalkError("start_nodes contains out-of-range node ids")

        temperature = config.temperature
        if temperature is None:
            temperature = graph.time_span() or 1.0

        k = config.num_walks_per_node
        starts = np.tile(start_nodes, k)  # row w*|starts| + v, as in Alg. 1
        num_walks = len(starts)
        matrix = np.full((num_walks, config.max_walk_length), PAD, dtype=np.int64)
        matrix[:, 0] = starts
        lengths = np.ones(num_walks, dtype=np.int64)

        stats = WalkStats(
            num_walks=num_walks,
            work_per_start_node=np.zeros(graph.num_nodes, dtype=np.int64),
        )
        cur = starts.copy()
        cur_time = np.full(num_walks, start_time, dtype=np.float64)
        self._advance(
            matrix, lengths, starts, cur, cur_time, config, temperature,
            rng, stats, first_step=1,
        )
        self.last_stats = stats
        publish_walk_stats(stats)
        return WalkCorpus(matrix, lengths, start_nodes=starts)

    # ------------------------------------------------------------------
    def run_from_edges(
        self,
        config: WalkConfig,
        num_walks: int,
        seed: SeedLike = None,
    ) -> WalkCorpus:
        """CTDNE-style walks: sample initial temporal *edges*, then walk.

        The original CTDNE formulation draws each walk's first edge from
        a distribution over all temporal edges (here: the same bias as
        the step distribution, applied to edge timestamps), then
        continues temporally from its destination.  The paper's
        Algorithm 1 starts from every node instead; this method provides
        the edge-start variant for comparison.  ``num_walks`` initial
        edges are drawn with replacement.
        """
        graph = self.graph
        if graph.num_edges == 0:
            raise WalkError("cannot sample initial edges from an empty graph")
        if num_walks < 1:
            raise WalkError(f"num_walks must be >= 1, got {num_walks}")
        if config.direction != "forward":
            raise WalkError("edge-sampled starts support forward walks only")
        rng = make_rng(seed)
        temperature = config.temperature
        if temperature is None:
            temperature = graph.time_span() or 1.0

        stats = WalkStats(
            num_walks=num_walks,
            work_per_start_node=np.zeros(graph.num_nodes, dtype=np.int64),
        )

        # Sample initial edges from the bias distribution over all edges.
        if config.bias == "uniform":
            edge_ids = rng.integers(0, graph.num_edges, size=num_walks)
        elif config.bias in ("softmax-late", "softmax-recency"):
            edge_ids = self._draw_initial_edges(
                config.bias, temperature, rng.random(num_walks), stats
            )
        else:  # linear: closed-form rank draw over the global time order
            # Rank j (0 = earliest timestamp, the soonest edge from the
            # -inf start clock) has weight |E| - j.
            order = self._linear_edge_order()
            counts = np.full(num_walks, graph.num_edges, dtype=np.int64)
            j = linear_rank_draw(counts, rng.random(num_walks))
            edge_ids = order[j]

        starts = self._edge_owner()[edge_ids]
        matrix = np.full((num_walks, config.max_walk_length), PAD,
                         dtype=np.int64)
        matrix[:, 0] = starts
        lengths = np.ones(num_walks, dtype=np.int64)
        cur = starts.copy()
        cur_time = np.full(num_walks, -np.inf)
        if config.max_walk_length >= 2:
            # Book the initial hop's scan-model work exactly as run()
            # books its first hop: the kernel positions at the start
            # node with clock -inf and scans its whole temporally valid
            # slice.  Without this the hop lands in total_steps only,
            # skewing mean_candidates_per_step and the hwmodel inputs
            # for edge-start corpora.
            lo0, hi0, iters0 = self._valid_range(
                starts, cur_time, config.allow_equal,
                config.time_window, config.direction,
            )
            counts0 = hi0 - lo0
            stats.search_iterations += iters0
            stats.candidates_scanned += int(counts0.sum())
            np.add.at(stats.work_per_start_node, starts, counts0)
            stats.total_steps += num_walks

            matrix[:, 1] = graph.dst[edge_ids]
            lengths[:] = 2
            cur = graph.dst[edge_ids].copy()
            cur_time = graph.ts[edge_ids].copy()
        self._advance(
            matrix, lengths, starts, cur, cur_time, config, temperature,
            rng, stats, first_step=2,
        )
        self.last_stats = stats
        publish_walk_stats(stats)
        return WalkCorpus(matrix, lengths, start_nodes=starts)

    # ------------------------------------------------------------------
    def _advance(
        self,
        matrix: np.ndarray,
        lengths: np.ndarray,
        starts: np.ndarray,
        cur: np.ndarray,
        cur_time: np.ndarray,
        config: WalkConfig,
        temperature: float,
        rng: np.random.Generator,
        stats: WalkStats,
        first_step: int,
    ) -> None:
        """Advance all walks from ``first_step`` until termination."""
        graph = self.graph
        active = np.arange(len(cur), dtype=np.int64)
        for step in range(first_step, config.max_walk_length):
            if len(active) == 0:
                break
            lo, hi, iters = self._valid_range(
                cur[active], cur_time[active], config.allow_equal,
                config.time_window, config.direction,
            )
            stats.search_iterations += iters
            counts = hi - lo
            stats.candidates_scanned += int(counts.sum())
            np.add.at(stats.work_per_start_node, starts[active], counts)

            alive = counts > 0
            stats.terminated_early += int(np.sum(~alive))
            active = active[alive]
            if len(active) == 0:
                break
            lo = lo[alive]
            counts = counts[alive]

            if self.sampler == "cdf":
                chosen_edges = self._sample_step_cdf(
                    lo, counts, config.bias, temperature, rng, stats
                )
            else:
                chosen_edges = self._sample_step_gumbel(
                    lo, counts, config.bias, temperature, rng, stats
                )
            next_nodes = graph.dst[chosen_edges]
            next_times = graph.ts[chosen_edges]

            matrix[active, step] = next_nodes
            lengths[active] = step + 1
            cur[active] = next_nodes
            cur_time[active] = next_times
            stats.total_steps += len(active)

    # ------------------------------------------------------------------
    def _lower_bound(
        self, lo: np.ndarray, hi: np.ndarray, thresholds: np.ndarray,
        strict: bool,
    ) -> tuple[np.ndarray, int]:
        """First index per slice whose timestamp exceeds its threshold.

        ``strict`` seeks ``ts > threshold``; otherwise ``ts >= threshold``.
        Vectorized binary search; returns the bound and iteration count.
        """
        return search_slices(self.graph.ts, lo, hi, thresholds, strict)

    def _valid_range(
        self,
        nodes: np.ndarray,
        times: np.ndarray,
        allow_equal: bool,
        time_window: float | None = None,
        direction: str = "forward",
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Temporally valid edge range per walk.

        Returns ``(lo, hi, iterations)`` where ``[lo, hi)`` indexes the
        valid edges of each walk's current node.  Forward: timestamps
        after the walk clock (strict ``>`` by Definition III.2, or
        ``>=`` with ``allow_equal``).  Backward: timestamps before it.
        ``time_window`` additionally bounds the gap from the clock.
        """
        graph = self.graph
        slice_lo = graph.indptr[nodes]
        slice_hi = graph.indptr[nodes + 1]
        if direction == "forward":
            lo, iters = self._lower_bound(
                slice_lo, slice_hi, times, strict=not allow_equal
            )
            if time_window is None:
                return lo, slice_hi, iters
            # A walk that has not taken its first hop (clock = -inf) has
            # no window yet: the bound needs a real timestamp.
            upper = np.where(
                np.isfinite(times), times + time_window, np.inf
            )
            hi, more = self._lower_bound(slice_lo, slice_hi, upper,
                                         strict=True)
            return lo, np.maximum(lo, hi), iters + more
        # Backward: valid edges are [first ts >= t-window, first ts >= t)
        # (strict ts < t; allow_equal uses ts <= t, i.e. first ts > t).
        hi, iters = self._lower_bound(
            slice_lo, slice_hi, times, strict=allow_equal
        )
        if time_window is None:
            return slice_lo, hi, iters
        lower = np.where(
            np.isfinite(times), times - time_window, -np.inf
        )
        lo, more = self._lower_bound(slice_lo, slice_hi, lower, strict=False)
        return np.minimum(lo, hi), hi, iters + more

    # ------------------------------------------------------------------
    # Fast exact sampler: inverse CDF over per-slice cumulative weights
    # ------------------------------------------------------------------
    def _softmax_scores(self, bias: str, temperature: float) -> np.ndarray:
        """Per-edge log-weights ``±ts / temperature`` for a softmax bias."""
        ts = self.graph.ts
        if bias == "softmax-late":
            return ts / temperature
        if bias == "softmax-recency":
            return -ts / temperature
        raise WalkError(f"no CDF weights for bias {bias!r}")

    def _step_table(
        self, bias: str, temperature: float, stats: WalkStats
    ) -> _StepTable:
        """Per-source-slice anchored cumulative softmax weights.

        Each slice's weights are shifted by the slice maximum before
        ``exp`` — ``w = exp(score - max(score within slice))`` lies in
        ``(0, 1]`` for every edge, so no timestamp span can overflow,
        and every slice carries mass >= 1 so no slice is swamped by its
        neighbors' totals.  The cumulative array is anchored *per slice*
        in the direction of increasing weight:

        - ``softmax-late`` (weights grow along the time-sorted slice):
          ``cum[e]`` is the exclusive prefix sum from the slice start and
          ``end[v]`` is the slice total, so the mass of range
          ``[lo, hi)`` is ``cum_at(hi) - cum[lo]`` with large terms
          entering the subtraction only near the large-weight end;
        - ``softmax-recency`` (weights shrink along the slice):
          ``cum[e] = -(sum of w[e:slice_end])`` — a negative, increasing
          suffix anchor with ``end[v] = 0`` — so small deep-slice masses
          are differences of *small* numbers rather than of two huge
          prefix sums (the catastrophic cancellation in the old global
          CDF).

        The global accumulation runs in extended precision before the
        per-slice anchor is subtracted, keeping the float64 result's
        error at the slice scale instead of the graph scale.
        """
        key = (bias, float(temperature))
        cached = self._step_tables.get(key)
        if cached is not None:
            return cached
        graph = self.graph
        indptr = graph.indptr
        num_edges = graph.num_edges
        deg = np.diff(indptr)
        owner = self._edge_owner()
        score = self._softmax_scores(bias, temperature)
        slice_max = np.zeros(graph.num_nodes, dtype=np.float64)
        nonempty = deg > 0
        if num_edges:
            slice_max[nonempty] = np.maximum.reduceat(
                score, indptr[:-1][nonempty]
            )
        weights = np.exp(score - slice_max[owner])
        stats.exp_evaluations += num_edges
        end = np.zeros(graph.num_nodes, dtype=np.float64)
        if bias == "softmax-late":
            acc = np.zeros(num_edges + 1, dtype=np.longdouble)
            np.cumsum(weights, dtype=np.longdouble, out=acc[1:])
            cum = np.asarray(
                acc[:num_edges] - acc[indptr[owner]], dtype=np.float64
            )
            end[nonempty] = np.asarray(
                acc[indptr[1:][nonempty]] - acc[indptr[:-1][nonempty]],
                dtype=np.float64,
            )
        else:
            suffix = np.zeros(num_edges + 1, dtype=np.longdouble)
            np.cumsum(weights[::-1], dtype=np.longdouble, out=suffix[1:])
            suffix = suffix[::-1]  # suffix[e] = sum of weights[e:]
            cum = np.asarray(
                suffix[indptr[owner + 1]] - suffix[:num_edges],
                dtype=np.float64,
            )
        table = _StepTable(cum=cum, end=end, owner=owner)
        self._step_tables[key] = table
        return table

    def _edge_cdf(
        self, bias: str, temperature: float, stats: WalkStats
    ) -> tuple[np.ndarray, np.ndarray]:
        """Global CDF over *all* edges for initial-edge sampling.

        Unlike the per-slice step table this intentionally ranks edges
        across the whole graph (CTDNE draws a walk's first edge from a
        global distribution), so it shifts by the global score maximum:
        weights stay in ``(0, 1]`` and the prefix sum cannot overflow.
        Edges far below the maximum underflow to weight zero, which
        matches the true global softmax to float64 resolution.

        Returns ``(cdf, positive)``: the length ``E+1`` prefix-sum array
        and the ids of edges with strictly positive weight, so the draw
        can restrict itself to selectable edges (see
        :meth:`_draw_initial_edges`).
        """
        key = (bias, float(temperature))
        cached = self._edge_cdf_cache.get(key)
        if cached is not None:
            return cached
        score = self._softmax_scores(bias, temperature)
        shift = score.max() if len(score) else 0.0
        weights = np.exp(score - shift)
        stats.exp_evaluations += len(score)
        cdf = np.zeros(len(score) + 1, dtype=np.float64)
        np.cumsum(weights, out=cdf[1:])
        positive = np.flatnonzero(weights > 0.0)
        self._edge_cdf_cache[key] = (cdf, positive)
        return cdf, positive

    def _draw_initial_edges(
        self,
        bias: str,
        temperature: float,
        u: np.ndarray,
        stats: WalkStats,
    ) -> np.ndarray:
        """Inverse-CDF draw of initial edges with zero-weight-skip semantics.

        The step sampler's :meth:`_first_gt` strict-``>`` search never
        lands on a zero-weight (underflown) edge; the edge-start draw
        must match.  ``searchsorted(cdf, target, "right") - 1`` does not:
        a target sitting exactly on a flat stretch of the CDF — in
        particular the top plateau ``target == cdf[-1]`` left by trailing
        zero-weight edges — resolves to the *last* edge of the plateau,
        which has weight zero.  Restricting the search to the prefix sums
        *at the end of each positive-weight edge* gives first-greater-than
        semantics: every target in ``[0, cdf[-1]]`` maps to a positive-
        weight edge, with probability exactly proportional to its weight.
        """
        cdf, positive = self._edge_cdf(bias, temperature, stats)
        if len(positive) == 0:
            raise WalkError("no edge has positive sampling weight")
        target = u * cdf[-1]
        pcdf = cdf[positive + 1]  # strictly increasing cumulative mass
        j = np.searchsorted(pcdf, target, side="right")
        # target == cdf[-1] (reachable only from an injected u == 1.0)
        # falls past the last positive edge; clamp to it.
        j = np.minimum(j, len(positive) - 1)
        return positive[j]

    def _first_gt(
        self,
        values: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        targets: np.ndarray,
    ) -> tuple[np.ndarray, int]:
        """First index per range whose value exceeds its target.

        Vectorized binary search over ``values`` restricted to
        ``[lo, hi)`` per walk; returns ``hi`` where no value qualifies,
        plus the iteration count (the ``cdf`` sampler's work counter).
        """
        return search_slices(values, lo, hi, targets)

    def _sample_step_cdf(
        self,
        lo: np.ndarray,
        counts: np.ndarray,
        bias: str,
        temperature: float,
        rng: np.random.Generator,
        stats: WalkStats,
    ) -> np.ndarray:
        """Draw one edge per walk in O(log M) without touching candidates."""
        hi = lo + counts
        if bias == "uniform":
            return lo + rng.integers(0, counts)
        if bias == "linear":
            return lo + linear_rank_draw(counts, rng.random(len(counts)))
        table = self._step_table(bias, temperature, stats)
        owners = table.owner[lo]
        slice_end = self.graph.indptr[owners + 1]
        lo_val = table.cum[lo]
        # cum_at(hi): within the slice it is cum[hi]; at the slice end it
        # is the anchored end value (slice total for late, 0 for recency).
        hi_val = np.where(
            hi < slice_end,
            table.cum[np.minimum(hi, len(table.cum) - 1)],
            table.end[owners],
        )
        mass = hi_val - lo_val
        target = lo_val + rng.random(len(lo)) * mass
        # Strict > skips zero-weight (underflown) edges at the low end of
        # a range, so such edges are never selected.
        idx, iters = self._first_gt(table.cum, lo + 1, hi, target)
        stats.cdf_search_iterations += iters
        chosen = idx - 1
        if bias == "softmax-recency":
            # A fully-underflown sub-range (possible only when a time
            # window cuts off the slice maximum) concentrates its true
            # mass on the earliest edge for recency; the search's
            # no-value-qualifies fallback (latest) is correct for late.
            chosen = np.where(mass > 0, chosen, lo)
        return chosen

    # ------------------------------------------------------------------
    # Paper-faithful sampler: materialize candidates, segmented Gumbel-max
    # ------------------------------------------------------------------
    def _sample_step_gumbel(
        self,
        lo: np.ndarray,
        counts: np.ndarray,
        bias: str,
        temperature: float,
        rng: np.random.Generator,
        stats: WalkStats,
    ) -> np.ndarray:
        """Draw one edge per walk by scanning all valid candidates (O(M))."""
        total = int(counts.sum())
        # Gumbel noise costs transcendental evaluations per candidate —
        # the per-step weight-evaluation work of the paper's O(M) kernel.
        stats.exp_evaluations += total
        seg_starts = np.zeros(len(counts), dtype=np.int64)
        np.cumsum(counts[:-1], out=seg_starts[1:])
        within_rank = np.arange(total, dtype=np.int64) - np.repeat(seg_starts, counts)
        cand_edges = np.repeat(lo, counts) + within_rank
        seg_ids = np.repeat(np.arange(len(counts), dtype=np.int64), counts)

        logits = segmented_transition_logits(
            self.graph.ts[cand_edges],
            within_segment_rank=within_rank,
            segment_sizes_per_candidate=counts[seg_ids],
            bias=bias,
            temperature=temperature,
        )
        chosen_pos = segmented_gumbel_argmax(logits, seg_starts, seg_ids, rng)
        return cand_edges[chosen_pos]
