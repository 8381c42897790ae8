"""CSR temporal graph.

The paper stores temporal networks in the GAPBS ``WGraph`` CSR structure,
repurposing the per-edge weight field for timestamps and preserving
multi-edges (§V-A).  :class:`TemporalGraph` is the same design in numpy:

- ``indptr`` — ``num_nodes + 1`` offsets into the edge arrays;
- ``dst`` — destination node per out-edge;
- ``ts`` — timestamp per out-edge.

Within each source node's adjacency slice, edges are sorted by ascending
timestamp.  That ordering is the load-bearing optimization: the temporal
neighborhood "edges of ``u`` with timestamp greater than the current walk
time" becomes a single binary search (``searchsorted``) plus a contiguous
slice, which is what makes Algorithm 1's inner sampling step cheap.

A growing graph does not re-sort: :meth:`TemporalGraph.merged` places
appended edges into a snapshot by a binary search per edge and returns
the CSR that :meth:`TemporalGraph.from_edge_list` would build from all
the edges.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graph.edges import TemporalEdgeList


def search_slices(
    values: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    targets: np.ndarray,
    strict: bool = True,
) -> tuple[np.ndarray, int]:
    """First index per ``[lo, hi)`` range whose value exceeds its target.

    ``values`` must ascend within each range.  ``strict`` seeks
    ``value > target`` (``searchsorted`` ``side="right"``); otherwise
    ``value >= target`` (``side="left"``).  One vectorized binary search
    over every range at once; returns ``hi`` where no value qualifies,
    plus the iteration count.
    """
    lo = lo.copy()
    hi = hi.copy()
    iters = 0
    searching = lo < hi
    while searching.any():
        iters += 1
        mid = (lo + hi) >> 1
        go_right = np.zeros(len(lo), dtype=bool)
        if strict:
            go_right[searching] = values[mid[searching]] <= targets[searching]
        else:
            go_right[searching] = values[mid[searching]] < targets[searching]
        lo = np.where(searching & go_right, mid + 1, lo)
        hi = np.where(searching & ~go_right, mid, hi)
        searching = lo < hi
    return lo, iters


def _adjacency_order(edges: TemporalEdgeList) -> np.ndarray:
    """Edge order grouped by source, then timestamp, ties in input order."""
    # Sort by timestamp first, then stably by source, so ties keep the
    # timestamp order.
    order = np.argsort(edges.timestamps, kind="stable")
    return order[np.argsort(edges.src[order], kind="stable")]


class TemporalGraph:
    """Directed temporal graph in CSR form with time-sorted adjacency.

    Build with :meth:`from_edge_list` (the normal path) or pass raw CSR
    arrays directly (they are validated).
    """

    def __init__(
        self,
        indptr: np.ndarray,
        dst: np.ndarray,
        ts: np.ndarray,
        validate: bool = True,
    ) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.dst = np.ascontiguousarray(dst, dtype=np.int64)
        self.ts = np.ascontiguousarray(ts, dtype=np.float64)
        if validate:
            self._validate()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edge_list(
        cls, edges: TemporalEdgeList, num_nodes: int | None = None
    ) -> "TemporalGraph":
        """Build a CSR graph from a temporal edge list.

        Multi-edges are preserved.  Adjacency of each source is sorted by
        timestamp (ties keep input order via a stable sort).
        """
        n = num_nodes if num_nodes is not None else edges.num_nodes
        if n < edges.num_nodes:
            raise GraphError(
                f"num_nodes={n} smaller than edge list's {edges.num_nodes}"
            )
        counts = np.bincount(edges.src, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        order = _adjacency_order(edges)
        return cls(indptr, edges.dst[order], edges.timestamps[order], validate=False)

    def merged(self, edges: TemporalEdgeList) -> "TemporalGraph":
        """A new graph holding this one's edges followed by ``edges``.

        Byte-equal to :meth:`from_edge_list` over this graph's edge list
        followed by ``edges``, with ``max(num_nodes, edges.num_nodes)``
        nodes, but without sorting the existing edges: the new edges are
        sorted among themselves, each finds its slot in its source's
        time-sorted slice by binary search (``side="right"``, so an
        existing edge stays ahead of a new one with the same timestamp),
        and one ``np.insert`` copies the arrays.  That is
        O(Δ log Δ + Δ log d) plus an O(E) copy.  ``self`` is not
        modified, so readers holding it keep a consistent snapshot.
        """
        n = max(self.num_nodes, edges.num_nodes)
        indptr = np.concatenate(
            (self.indptr, np.full(n - self.num_nodes, self.indptr[-1]))
        )
        order = _adjacency_order(edges)
        src = edges.src[order]
        ts = edges.timestamps[order]
        slots, _ = search_slices(self.ts, indptr[src], indptr[src + 1], ts)
        # NaN compares false, but sorts last: a NaN stamp goes at the end.
        slots = np.where(np.isnan(ts), indptr[src + 1], slots)
        indptr[1:] += np.cumsum(np.bincount(src, minlength=n))
        return TemporalGraph(
            indptr,
            np.insert(self.dst, slots, edges.dst[order]),
            np.insert(self.ts, slots, ts),
            validate=False,
        )

    def _validate(self) -> None:
        if self.indptr.ndim != 1 or len(self.indptr) < 1:
            raise GraphError("indptr must be a 1-D array of length num_nodes + 1")
        if self.indptr[0] != 0:
            raise GraphError("indptr must start at 0")
        if np.any(np.diff(self.indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        if self.indptr[-1] != len(self.dst):
            raise GraphError(
                f"indptr[-1]={self.indptr[-1]} must equal num_edges={len(self.dst)}"
            )
        if len(self.dst) != len(self.ts):
            raise GraphError("dst and ts must have equal length")
        if len(self.dst) and (self.dst.min() < 0 or self.dst.max() >= self.num_nodes):
            raise GraphError("dst contains out-of-range node ids")
        for v in range(self.num_nodes):
            lo, hi = self.indptr[v], self.indptr[v + 1]
            if hi - lo > 1 and np.any(np.diff(self.ts[lo:hi]) < 0):
                raise GraphError(f"adjacency of node {v} is not time-sorted")

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes (vocabulary size)."""
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        """Number of temporal edges."""
        return len(self.dst)

    def out_degree(self, node: int | np.ndarray) -> int | np.ndarray:
        """Out-degree of one node (int) or an array of nodes (array)."""
        deg = self.indptr[np.asarray(node) + 1] - self.indptr[np.asarray(node)]
        if np.isscalar(node) or np.ndim(node) == 0:
            return int(deg)
        return deg

    def out_degrees(self) -> np.ndarray:
        """Array of out-degrees for all nodes."""
        return np.diff(self.indptr)

    def max_degree(self) -> int:
        """Maximum out-degree (the ``M`` in the O(K·N·|V|·M) complexity)."""
        if self.num_nodes == 0:
            return 0
        return int(self.out_degrees().max())

    def __repr__(self) -> str:
        return (
            f"TemporalGraph(num_nodes={self.num_nodes}, "
            f"num_edges={self.num_edges})"
        )

    # ------------------------------------------------------------------
    # Adjacency queries
    # ------------------------------------------------------------------
    def neighbors(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(dst, ts)`` views of all out-edges of ``node``."""
        lo, hi = self.indptr[node], self.indptr[node + 1]
        return self.dst[lo:hi], self.ts[lo:hi]

    def temporal_neighbor_range(
        self, node: int, after: float, allow_equal: bool = False
    ) -> tuple[int, int]:
        """Return the ``[lo, hi)`` edge-index range that is temporally valid.

        Valid means timestamp strictly greater than ``after`` (Definition
        III.2), or ``>= after`` when ``allow_equal`` is set.  Because each
        adjacency slice is time-sorted, this is one binary search.
        """
        base, end = int(self.indptr[node]), int(self.indptr[node + 1])
        side = "left" if allow_equal else "right"
        lo = base + int(np.searchsorted(self.ts[base:end], after, side=side))
        return lo, end

    def temporal_neighbors(
        self, node: int, after: float, allow_equal: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(dst, ts)`` of temporally valid out-edges of ``node``.

        This is the set :math:`N_u` of §IV-A restricted to edges usable at
        walk time ``after``.
        """
        lo, hi = self.temporal_neighbor_range(node, after, allow_equal)
        return self.dst[lo:hi], self.ts[lo:hi]

    def has_temporal_neighbor(
        self, node: int, after: float, allow_equal: bool = False
    ) -> bool:
        """True when ``node`` has at least one temporally valid out-edge."""
        lo, hi = self.temporal_neighbor_range(node, after, allow_equal)
        return lo < hi

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_edge_list(self) -> TemporalEdgeList:
        """Flatten back to a (src-grouped, time-sorted) edge list."""
        src = np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.out_degrees())
        return TemporalEdgeList(src, self.dst, self.ts, num_nodes=self.num_nodes)

    def edge_key_set(self) -> set[tuple[int, int]]:
        """Distinct ``(src, dst)`` pairs (multi-edges collapse to one key)."""
        src = np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.out_degrees())
        return set(zip(src.tolist(), self.dst.tolist()))

    def time_span(self) -> float:
        """``max(ts) - min(ts)`` over all edges; the ``r`` of Eq. 1."""
        if self.num_edges == 0:
            return 0.0
        return float(self.ts.max() - self.ts.min())
