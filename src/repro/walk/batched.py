"""Frontier-batched window-table walk kernel.

The oracle engine pays two vectorized binary searches per walk step:
``_valid_range`` (find the temporally valid edge range) and, for the
softmax biases, ``_first_gt`` (inverse-CDF search within the range).
Profiling shows the two searches are ~85-90% of a ``cdf``-sampler run, so
a faster kernel must eliminate both — shortening them is not enough,
because splitting one binary search into two shallower ones leaves the
total comparison depth unchanged.  This module replaces each search with
a precomputed table lookup, in the spirit of the GPU temporal-window
sampler line of work (presample per-window transition structure once,
then advance a whole frontier of walkers with O(1) work per step):

**Per-edge successor tables** (``_SuccessorTable``): a walk's clock is
always the timestamp of the edge it last traversed, so the valid range
after traversing edge ``e`` — ``[first position in dst[e]'s slice with
ts > ts[e]``, ``slice end)`` (and the ``time_window`` variants) — is a
pure function of ``e``.  One O(E log M) vectorized build per
(direction, allow_equal, time_window) key turns every later validity
check into two O(1) gathers, *including the window bound*.  The bounds
are computed by the same ``_lower_bound`` the oracle uses, so they are
exact: termination behavior is bit-identical.

**Per-(node, window) CDF prefix blocks** (``_WindowTable``): the time
axis is partitioned into ``B`` equal-width windows
(``WalkConfig.num_windows``); each node's time-sorted slice is cut into
at most ``B`` contiguous blocks, and the oracle's per-slice cumulative
weight table (``_step_table`` — reused verbatim, so numerics agree to
the bit) is sampled at the block boundaries.  A step then draws the
target window with a fixed-depth O(log B) search over ``B+1`` boundary
values instead of an O(log M) search over the slice, and samples within
the window by uniform-proposal rejection: a window spans so little of
the time axis that softmax weights inside it are nearly flat, so the
acceptance rate is roughly ``exp(-span/(B·temperature)·span)`` — above
98% at the paper's temperature (the full span) with the default
``B = 64``.  Acceptance tests compare against the *exact* per-edge
weight (reconstructed as a difference of adjacent cumulative values),
so the sampled distribution is exactly the oracle's; walks that exhaust
the bounded rejection rounds fall back to the oracle's ``_first_gt``
on their (tiny) window range.  Zero-weight (underflown) edges fail the
strict acceptance test and are never selected, matching ``_first_gt``'s
strict-``>`` semantics.

``WalkStats`` counters keep the paper's scan model: ``candidates_scanned``
still counts the edges the paper's O(M) kernel would touch (the exact
valid-range sizes), ``search_iterations`` books the branch work of the
range search the oracle would have executed for each frontier, and
``exp_evaluations`` books the one-time table build — so fig09/fig10 and
:mod:`repro.hwmodel` inputs are unchanged in expectation.  The
*executed* search work of this kernel (block search + rejection rounds +
fallbacks) lands in ``cdf_search_iterations``.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

from repro.errors import WalkError
from repro.graph.csr import TemporalGraph
from repro.walk.config import WalkConfig
from repro.walk.engine import (
    SAMPLER_CHOICES,
    TemporalWalkEngine,
    WalkStats,
    linear_rank_draw,
)

KERNEL_CHOICES = frozenset(SAMPLER_CHOICES | {"batched"})

# Uniform-proposal rejection rounds before falling back to the exact
# inverse-CDF search within the (single-window) range.  At >98% per-round
# acceptance the fallback is exercised ~1e-14 of the time; the bound only
# matters for adversarial weight profiles (huge temperature skew).
_REJECTION_ROUNDS = 8

# Whole-range envelope rejection rounds tried before the window search.
# Softmax weights are monotone along a time-sorted slice, so the range's
# largest weight sits at a known end — an O(1) envelope.  Acceptance is
# >= 1 - 1/e at the paper's default temperature (the full time span), so
# two rounds clear ~87% of the frontier without touching the block search.
_RANGE_ROUNDS = 2

# Envelope inflation absorbing the rounding jitter of cumulative-difference
# weights: |w_cum - w_true| <= ~deg * 2^-52 relative to the range's max
# weight, so a 1e-9 slack guarantees env >= every weight in the range and
# rejection stays exactly proportional to the table weights.
_ENVELOPE_SLACK = 1.0 + 1e-9


class _SuccessorTable(NamedTuple):
    """Valid-range bounds after traversing each edge (see module doc)."""

    lo: np.ndarray  # (E,) first valid position in dst[e]'s slice
    hi: np.ndarray  # (E,) one past the last valid position


class _WindowTable(NamedTuple):
    """Per-(node, window) block boundaries over the step table's CDF."""

    blk_start: np.ndarray  # (V, B+1) slice positions of window boundaries
    blk_cum: np.ndarray    # (V, B+1) cumulative weight at each boundary
    wmax: np.ndarray       # (V, B)   max edge weight within each block
    weights: np.ndarray    # (E,)     exact per-edge weights (cum diffs)
    num_windows: int


def make_walk_engine(
    graph: TemporalGraph, sampler: str = "cdf"
) -> TemporalWalkEngine:
    """Construct the walk engine for a sampler/kernel name.

    ``cdf`` and ``gumbel`` return the oracle :class:`TemporalWalkEngine`;
    ``batched`` returns the frontier-batched window-table kernel.  This is
    the single selection point the CLI, the pipeline, and
    :class:`~repro.tasks.incremental.IncrementalEmbedder` all go through.
    """
    if sampler not in KERNEL_CHOICES:
        raise WalkError(
            f"unknown sampler {sampler!r}; options: {sorted(KERNEL_CHOICES)}"
        )
    if sampler == "batched":
        return BatchedWalkEngine(graph)
    return TemporalWalkEngine(graph, sampler=sampler)


class BatchedWalkEngine(TemporalWalkEngine):
    """Frontier-batched kernel: O(1) table lookups per walk step.

    Drop-in subclass of :class:`TemporalWalkEngine` — same ``run`` /
    ``run_from_edges`` contract, same exact sampling distribution, same
    scan-model ``WalkStats`` — with the per-step binary searches replaced
    by the precomputed tables described in the module docstring.  Tables
    are cached on the engine (keyed like ``_step_tables``), so repeated
    runs on the same graph — the incremental-embedding refresh pattern —
    pay the build once.
    """

    def __init__(self, graph: TemporalGraph) -> None:
        super().__init__(graph, sampler="cdf")
        self.sampler = "batched"
        self._succ_tables: dict[
            tuple[str, bool, float | None], _SuccessorTable
        ] = {}
        self._window_tables: dict[tuple[str, float, int], _WindowTable] = {}
        self.table_build_seconds = 0.0

    # ------------------------------------------------------------------
    # Table builds
    # ------------------------------------------------------------------
    def _successor_table(self, config: WalkConfig) -> _SuccessorTable:
        """Exact valid-range bounds after traversing each edge.

        Built with the oracle's own ``_lower_bound`` over every edge's
        destination slice, with the traversed edge's timestamp as the
        walk clock — the same computation ``_valid_range`` performs per
        step, hoisted out of the walk loop.
        """
        key = (config.direction, config.allow_equal, config.time_window)
        cached = self._succ_tables.get(key)
        if cached is not None:
            return cached
        t0 = time.perf_counter()
        graph = self.graph
        dst = graph.dst
        ts = graph.ts
        slice_lo = graph.indptr[dst]
        slice_hi = graph.indptr[dst + 1]
        if config.direction == "forward":
            lo, _ = self._lower_bound(
                slice_lo, slice_hi, ts, strict=not config.allow_equal
            )
            if config.time_window is None:
                hi = slice_hi
            else:
                hi, _ = self._lower_bound(
                    slice_lo, slice_hi, ts + config.time_window, strict=True
                )
                hi = np.maximum(lo, hi)
        else:
            hi, _ = self._lower_bound(
                slice_lo, slice_hi, ts, strict=config.allow_equal
            )
            if config.time_window is None:
                lo = slice_lo
            else:
                lo, _ = self._lower_bound(
                    slice_lo, slice_hi, ts - config.time_window, strict=False
                )
                lo = np.minimum(lo, hi)
        table = _SuccessorTable(lo=lo, hi=hi)
        self._succ_tables[key] = table
        self.table_build_seconds += time.perf_counter() - t0
        return table

    def _window_table(
        self, bias: str, temperature: float, num_windows: int,
        stats: WalkStats,
    ) -> _WindowTable:
        """Cut each node's slice into time windows over the step table.

        Window membership is by equal-width partition of the graph's
        timestamp range; within a slice the window index is nondecreasing
        (adjacency is time-sorted), so each window is one contiguous
        block whose boundary positions and boundary cumulative values are
        tabulated here.  ``weights`` reconstructs every edge's exact
        sampling weight as the difference of adjacent cumulative values —
        the same float64 numbers the oracle's inverse-CDF search
        compares, which is what makes the rejection sampler exact rather
        than approximately softmax.
        """
        key = (bias, float(temperature), int(num_windows))
        cached = self._window_tables.get(key)
        if cached is not None:
            return cached
        t0 = time.perf_counter()
        table = self._step_table(bias, temperature, stats)
        graph = self.graph
        indptr = graph.indptr
        num_nodes = graph.num_nodes
        num_edges = graph.num_edges
        b = int(num_windows)

        if num_edges:
            ts_min = float(graph.ts.min())
            width = (float(graph.ts.max()) - ts_min) / b
            if width > 0:
                widx = np.minimum(
                    ((graph.ts - ts_min) / width).astype(np.int64), b - 1
                )
            else:
                widx = np.zeros(num_edges, dtype=np.int64)
        else:
            widx = np.zeros(0, dtype=np.int64)

        counts = np.bincount(
            table.owner * b + widx, minlength=num_nodes * b
        ).reshape(num_nodes, b)
        blk_start = np.empty((num_nodes, b + 1), dtype=np.int64)
        blk_start[:, 0] = indptr[:-1]
        np.cumsum(counts, axis=1, out=blk_start[:, 1:])
        blk_start[:, 1:] += indptr[:-1, None]

        # Cumulative value at each boundary position: cum[p] inside the
        # slice, the anchored end value at the slice end (cum[p] there
        # would belong to the next node's slice).
        end_vals = table.end  # zeros for recency, slice totals for late
        if num_edges:
            inside = blk_start < indptr[1:, None]
            safe = np.minimum(blk_start, num_edges - 1)
            blk_cum = np.where(inside, table.cum[safe], end_vals[:, None])
        else:
            blk_cum = np.tile(end_vals[:, None], (1, b + 1))

        # Exact per-edge weights as differences of adjacent cumulative
        # values (NOT re-exponentiated scores: bit-consistent with the
        # values the oracle's _first_gt compares).
        if num_edges:
            idx = np.arange(num_edges, dtype=np.int64)
            slice_end = indptr[table.owner + 1]
            nxt = np.where(
                idx + 1 < slice_end,
                table.cum[np.minimum(idx + 1, num_edges - 1)],
                end_vals[table.owner],
            )
            weights = np.maximum(nxt - table.cum, 0.0)
        else:
            weights = np.zeros(0, dtype=np.float64)

        wmax = np.zeros(num_nodes * b, dtype=np.float64)
        sizes = counts.ravel()
        nonempty = sizes > 0
        if num_edges and nonempty.any():
            wmax[nonempty] = np.maximum.reduceat(
                weights, blk_start[:, :b].ravel()[nonempty]
            )
        wmax = wmax.reshape(num_nodes, b)

        wtable = _WindowTable(
            blk_start=blk_start, blk_cum=blk_cum, wmax=wmax,
            weights=weights, num_windows=b,
        )
        self._window_tables[key] = wtable
        self.table_build_seconds += time.perf_counter() - t0
        return wtable

    def table_bytes(self) -> int:
        """Total bytes held by the kernel's precomputed tables."""
        total = 0
        for st in self._succ_tables.values():
            total += st.lo.nbytes + st.hi.nbytes
        for wt in self._window_tables.values():
            total += (wt.blk_start.nbytes + wt.blk_cum.nbytes
                      + wt.wmax.nbytes + wt.weights.nbytes)
        for t in self._step_tables.values():
            total += t.cum.nbytes + t.end.nbytes
        return total

    # ------------------------------------------------------------------
    # Frontier advance
    # ------------------------------------------------------------------
    def _modeled_search_iters(
        self, nodes: np.ndarray, config: WalkConfig
    ) -> int:
        """Scan-model booking for a frontier's valid-range search.

        The oracle's vectorized ``_lower_bound`` runs until its deepest
        walk converges — ``bit_length(max slice degree)`` iterations
        (twice with a time window: two bound searches).  The batched
        kernel does not execute that search, but the hardware model's
        branch-work input must keep describing the paper's kernel, so
        the iterations it *would* have run are booked here.
        """
        indptr = self.graph.indptr
        deg = indptr[nodes + 1] - indptr[nodes]
        iters = int(deg.max()).bit_length() if len(deg) else 0
        if config.time_window is not None:
            iters *= 2
        return iters

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
        prev_edges: np.ndarray | None = None,
    ) -> None:
        """Advance the whole frontier one step per iteration, via tables."""
        graph = self.graph
        num_walks = len(cur)
        if num_walks == 0 or first_step >= config.max_walk_length:
            return
        succ = self._successor_table(config)
        softmax_bias = config.bias in ("softmax-late", "softmax-recency")
        if softmax_bias:
            # Build (or fetch) tables up front so exp work is booked once.
            self._window_table(
                config.bias, temperature, config.num_windows, stats
            )
        active = np.arange(num_walks, dtype=np.int64)
        prev = (
            np.ascontiguousarray(prev_edges, dtype=np.int64).copy()
            if prev_edges is not None
            else None
        )
        work = np.zeros(graph.num_nodes, dtype=np.float64)
        for step in range(first_step, config.max_walk_length):
            if len(active) == 0:
                break
            nodes = cur[active]
            if prev is None:
                # First hop: the clock is a bare start time, not an edge
                # timestamp — no successor-table entry applies.
                times = cur_time[active]
                bare = np.all(
                    times == (-np.inf if config.direction == "forward"
                              else np.inf)
                )
                if bare:
                    # The default run() start clock: every edge in the
                    # slice is valid and the window bound is vacuous
                    # (it needs a finite clock) — no search to execute.
                    lo = graph.indptr[nodes]
                    hi = graph.indptr[nodes + 1]
                    stats.search_iterations += self._modeled_search_iters(
                        nodes, config
                    )
                else:
                    lo, hi, iters = self._valid_range(
                        nodes, times, config.allow_equal,
                        config.time_window, config.direction,
                    )
                    stats.search_iterations += iters
                prev = np.full(num_walks, -1, dtype=np.int64)
            else:
                pe = prev[active]
                lo = succ.lo[pe]
                hi = succ.hi[pe]
                stats.search_iterations += self._modeled_search_iters(
                    nodes, config
                )
            counts = hi - lo
            stats.candidates_scanned += int(counts.sum())
            work += np.bincount(
                starts[active], weights=counts.astype(np.float64),
                minlength=graph.num_nodes,
            )

            alive = counts > 0
            stats.terminated_early += int(np.sum(~alive))
            active = active[alive]
            if len(active) == 0:
                break
            lo = lo[alive]
            hi = hi[alive]
            counts = counts[alive]
            nodes = nodes[alive]

            if config.bias == "uniform":
                chosen = lo + rng.integers(0, counts)
            elif config.bias == "linear":
                chosen = lo + linear_rank_draw(counts, rng.random(len(counts)))
            else:
                chosen = self._sample_step_windowed(
                    nodes, lo, hi, config.bias, temperature,
                    config.num_windows, rng, stats,
                )
            next_nodes = graph.dst[chosen]
            matrix[active, step] = next_nodes
            lengths[active] = step + 1
            cur[active] = next_nodes
            cur_time[active] = graph.ts[chosen]
            prev[active] = chosen
            stats.total_steps += len(active)
        # One exact accumulation instead of a scatter-add per step
        # (float sums of edge counts are exact far beyond any graph here).
        stats.work_per_start_node += work.astype(np.int64)

    # ------------------------------------------------------------------
    # Windowed softmax sampling
    # ------------------------------------------------------------------
    def _sample_step_windowed(
        self,
        nodes: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        bias: str,
        temperature: float,
        num_windows: int,
        rng: np.random.Generator,
        stats: WalkStats,
    ) -> np.ndarray:
        """Draw one edge per walk from the exact softmax, in O(1) expected.

        Three layers, each exact, each handling the previous layer's
        rejections:

        1. *Whole-range envelope rejection* (``_RANGE_ROUNDS``): softmax
           weights are monotone along a time-sorted slice (decreasing for
           recency, increasing for late), so the range's maximum weight
           sits at a known end — an O(1) envelope.  Uniform proposals over
           ``[lo, hi)`` accepted against it are exactly softmax; at the
           default temperature acceptance is >= 1 - 1/e, so most of the
           frontier exits here without any search.
        2. *Window search*: an inverse-CDF search over the ``B+1`` block
           boundary cumulative values (fixed depth ``ceil(log2(B+1))``),
           then uniform-proposal rejection within the selected window with
           probability ``weight / window_max_weight`` — windows span so
           little of the time axis that acceptance is >98% regardless of
           temperature.
        3. The oracle's exact ``_first_gt`` on the (tiny) window range,
           after ``_REJECTION_ROUNDS`` misses.
        """
        graph = self.graph
        table = self._step_table(bias, temperature, stats)
        wt = self._window_table(bias, temperature, num_windows, stats)
        b = wt.num_windows
        num_edges = graph.num_edges
        m = len(nodes)
        cum = table.cum
        recency = bias == "softmax-recency"
        slice_end = graph.indptr[nodes + 1]

        lo_val = cum[lo]
        hi_val = np.where(
            hi < slice_end,
            cum[np.minimum(hi, max(num_edges - 1, 0))],
            table.end[nodes],
        )
        mass = hi_val - lo_val
        dead = ~(mass > 0)

        chosen = np.empty(m, dtype=np.int64)
        if dead.any():
            # Zero total mass (softmax fully underflown in the range,
            # possible only under a time window): same fallback rule as
            # the oracle — earliest edge for recency, latest for late.
            chosen[dead] = lo[dead] if recency else hi[dead] - 1
            pending = np.flatnonzero(~dead)
        else:
            pending = np.arange(m, dtype=np.int64)

        # --- layer 1: whole-range rejection with the monotone envelope.
        env = wt.weights[lo if recency else hi - 1] * _ENVELOPE_SLACK
        for _ in range(_RANGE_ROUNDS):
            if len(pending) == 0:
                break
            cnt = hi[pending] - lo[pending]
            pos = lo[pending] + np.minimum(
                (rng.random(len(pending)) * cnt).astype(np.int64), cnt - 1
            )
            # Strict <: a zero-weight (underflown) edge never accepts,
            # matching _first_gt's strict-> skip semantics.  env > 0
            # guards a fully-jittered envelope (acceptance against a zero
            # envelope would lose proportionality); such rows fall
            # through to the window search.
            accept = (
                rng.random(len(pending)) * env[pending] < wt.weights[pos]
            ) & (env[pending] > 0)
            chosen[pending[accept]] = pos[accept]
            pending = pending[~accept]
            stats.cdf_search_iterations += 1
        if len(pending) == 0:
            return chosen

        # --- layer 2, on the remainder only.  Window-level inverse CDF:
        # first j in [1, B] with blk_cum[node, j] > target (fixed-depth
        # vectorized search).
        sub = pending
        k = len(sub)
        ns = nodes[sub]
        target = lo_val[sub] + rng.random(k) * mass[sub]
        flat_cum = wt.blk_cum.ravel()
        base_idx = ns * (b + 1)
        lo_j = np.ones(k, dtype=np.int64)
        hi_j = np.full(k, b + 1, dtype=np.int64)
        depth = max(int(np.ceil(np.log2(b + 1))), 1)
        for _ in range(depth):
            mid = np.minimum((lo_j + hi_j) >> 1, b)
            go_right = flat_cum[base_idx + mid] <= target
            lo_j = np.where(go_right, mid + 1, lo_j)
            hi_j = np.where(go_right, hi_j, mid)
        stats.cdf_search_iterations += depth
        blk = np.minimum(lo_j, b) - 1  # window index in [0, B)

        flat_start = wt.blk_start.ravel()
        blo = flat_start[base_idx + blk]
        bhi = flat_start[base_idx + blk + 1]
        rlo = np.maximum(lo[sub], blo)
        rhi = np.minimum(hi[sub], bhi)
        wmax = wt.wmax.ravel()[ns * b + blk]

        # A rounding corner can push the target at (or past) the range's
        # top cumulative value, selecting a window beyond [lo, hi); such
        # rows bypass rejection (the block's wmax is not an envelope for
        # the full range) and take the exact fallback over [lo, hi).
        degen = rlo >= rhi
        if degen.any():
            rlo = np.where(degen, lo[sub], rlo)
            rhi = np.where(degen, hi[sub], rhi)
        rej = np.flatnonzero(~degen)  # indices into sub

        # --- uniform-proposal rejection within the selected window.
        for _ in range(_REJECTION_ROUNDS):
            if len(rej) == 0:
                break
            cnt = rhi[rej] - rlo[rej]
            pos = rlo[rej] + np.minimum(
                (rng.random(len(rej)) * cnt).astype(np.int64), cnt - 1
            )
            accept = rng.random(len(rej)) * wmax[rej] < wt.weights[pos]
            chosen[sub[rej[accept]]] = pos[accept]
            rej = rej[~accept]
            stats.cdf_search_iterations += 1

        left = np.concatenate([rej, np.flatnonzero(degen)])
        if len(left):
            # --- layer 3, exact fallback: fresh inverse-CDF draw
            # restricted to the (single-window) range — the conditional
            # distribution given the selected window.
            plo = rlo[left]
            phi = rhi[left]
            plo_val = cum[plo]
            phi_val = np.where(
                phi < slice_end[sub[left]],
                cum[np.minimum(phi, max(num_edges - 1, 0))],
                table.end[ns[left]],
            )
            sub_target = plo_val + rng.random(len(left)) * (
                phi_val - plo_val
            )
            idx, iters = self._first_gt(cum, plo + 1, phi, sub_target)
            stats.cdf_search_iterations += iters
            fallen = idx - 1
            if recency:
                fallen = np.where(phi_val - plo_val > 0, fallen, plo)
            chosen[sub[left]] = fallen
        return chosen
