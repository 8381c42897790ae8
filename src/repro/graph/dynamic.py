"""Append-only dynamic temporal graph.

§VII-B motivates the end-to-end time study with deployment reality: "the
graph evolves over time.  With this evolution, an entire pipeline needs
to run to account for new nodes/connections."  This module provides the
evolving-graph substrate for that scenario:

- :class:`DynamicTemporalGraph` buffers appended temporal edges and,
  when its CSR snapshot is next read, merges the edges appended since
  the last snapshot into it (:meth:`TemporalGraph.merged`: the new
  edges are sorted and binary-searched into place, the existing ones
  are never re-sorted), so a read after a batch costs that batch, not
  the graph;
- :meth:`DynamicTemporalGraph.affected_nodes` reports which nodes'
  temporal neighborhoods changed since a marker, so callers can re-walk
  only those instead of the whole graph (the incremental alternative to
  re-running everything, used by the incremental-update example and
  bench).

The structure is thread-safe for the online-serving and streaming
topologies (:mod:`repro.serving`, :mod:`repro.stream`): one ingest
thread appending batches while serving threads read ``graph()`` /
``edge_list()`` / ``generation``.  All mutating, snapshot-building,
*and reading* operations serialize on an internal lock (so a reader
can never observe an edge list and a node count from different
generations), and :meth:`subscribe` registers generation-bump callbacks
(fired after the lock is released, so a callback may re-enter the graph
freely).  A raising callback is isolated — logged, counted under
``dynamic.subscriber_errors``, and the remaining subscribers still run
— so one bad observer can never kill the ingest thread.

Generation markers are retained for the ``marker_retention`` most
recent generations (long-running streams would otherwise grow one dict
entry per append forever); consumers release markers they have applied
via :meth:`release_marker`.
"""

from __future__ import annotations

import logging
import threading
from typing import Callable

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import TemporalGraph
from repro.graph.edges import TemporalEdgeList
from repro.observability import get_recorder

log = logging.getLogger(__name__)

#: Default number of recent generation markers retained for
#: :meth:`DynamicTemporalGraph.edges_since`.  Far more than any embedder
#: lags behind, small enough that week-long ingest cannot leak.
DEFAULT_MARKER_RETENTION = 1024


class DynamicTemporalGraph:
    """A temporal graph that grows by edge batches."""

    def __init__(self, edges: TemporalEdgeList | None = None,
                 num_nodes: int | None = None,
                 marker_retention: int = DEFAULT_MARKER_RETENTION) -> None:
        if edges is None:
            edges = TemporalEdgeList([], [], [], num_nodes=num_nodes or 0)
        elif num_nodes is not None and num_nodes > edges.num_nodes:
            edges = TemporalEdgeList(
                edges.src, edges.dst, edges.timestamps, num_nodes=num_nodes
            )
        if marker_retention < 1:
            raise GraphError(
                f"marker_retention must be >= 1, got {marker_retention}"
            )
        self._edges = edges
        self._snapshot: TemporalGraph | None = None
        self._generation = 0
        self._lock = threading.RLock()
        self._subscribers: list[Callable[[int], None]] = []
        self._marker_retention = int(marker_retention)
        # Edge count at each retained generation marker, for
        # affected_nodes(); insertion-ordered, oldest first.
        self._marker_edge_counts: dict[int, int] = {0: len(edges)}

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes (vocabulary size)."""
        with self._lock:
            return self._edges.num_nodes

    @property
    def num_edges(self) -> int:
        """Number of temporal edges."""
        with self._lock:
            return len(self._edges)

    @property
    def generation(self) -> int:
        """Monotone counter, bumped by every :meth:`append`."""
        with self._lock:
            return self._generation

    # ------------------------------------------------------------------
    def subscribe(self, callback: Callable[[int], None]) -> None:
        """Register ``callback(new_generation)`` to run after appends.

        Callbacks fire outside the internal lock in registration order;
        the serving layer uses this to kick incremental refreshes.  An
        exception from one callback is logged and counted
        (``dynamic.subscriber_errors``) but neither skips the remaining
        callbacks nor propagates into the appending thread.
        """
        with self._lock:
            self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[int], None]) -> bool:
        """Deregister ``callback``; returns False when it wasn't registered.

        Idempotent, so shutdown paths (e.g. the stream controller's)
        may call it unconditionally.
        """
        with self._lock:
            try:
                self._subscribers.remove(callback)
                return True
            except ValueError:
                return False

    def append(self, new_edges: TemporalEdgeList) -> int:
        """Append a batch of edges; returns the new generation marker.

        Appended edges may introduce new node ids (the node set grows).
        Timestamps need not be later than existing ones — the next
        :meth:`graph` merges each edge into its time-sorted slot —
        though deployments typically append in time order.
        """
        if len(new_edges) == 0:
            return self.generation
        with self._lock:
            self._edges = TemporalEdgeList.concatenate(
                [self._edges, new_edges]
            )
            self._generation += 1
            generation = self._generation
            self._marker_edge_counts[generation] = len(self._edges)
            while len(self._marker_edge_counts) > self._marker_retention:
                oldest = next(iter(self._marker_edge_counts))
                del self._marker_edge_counts[oldest]
            subscribers = list(self._subscribers)
        for callback in subscribers:
            try:
                callback(generation)
            except Exception:
                get_recorder().counter("dynamic.subscriber_errors")
                log.warning(
                    "generation subscriber %r raised on generation %d",
                    callback, generation, exc_info=True,
                )
        return generation

    def graph(self) -> TemporalGraph:
        """Current CSR snapshot, equal to ``from_edge_list(edge_list())``.

        The first call builds it; after appends, the edges appended
        since the last snapshot are merged into a new one.  A returned
        snapshot is never modified, so a reader may keep using it.
        """
        with self._lock:
            snapshot, edges = self._snapshot, self._edges
            if snapshot is None:
                snapshot = TemporalGraph.from_edge_list(edges)
            elif snapshot.num_edges < len(edges):
                snapshot = snapshot.merged(
                    edges.take(np.arange(snapshot.num_edges, len(edges)))
                )
            self._snapshot = snapshot
            return snapshot

    def edge_list(self) -> TemporalEdgeList:
        """The full edge stream accumulated so far."""
        with self._lock:
            return self._edges

    # ------------------------------------------------------------------
    def edges_since(self, marker: int) -> TemporalEdgeList:
        """Edges appended after generation ``marker``."""
        with self._lock:
            if marker not in self._marker_edge_counts:
                raise GraphError(
                    f"unknown generation marker {marker} (released, or "
                    f"older than the {self._marker_retention}-marker "
                    f"retention window)"
                )
            start = self._marker_edge_counts[marker]
            edges = self._edges
        return edges.take(np.arange(start, len(edges)))

    def release_marker(self, marker: int) -> bool:
        """Drop a consumed generation marker; returns False if unknown.

        Consumers (e.g. :class:`~repro.tasks.incremental
        .IncrementalEmbedder`) release the marker they synced *from*
        once an update completes, so long-running ingest retains only
        live markers.  The current generation's marker is never
        dropped — it is the baseline the next ``edges_since`` needs.
        """
        with self._lock:
            if marker == self._generation:
                return False
            return self._marker_edge_counts.pop(marker, None) is not None

    def retained_markers(self) -> list[int]:
        """Currently retained generation markers, oldest first."""
        with self._lock:
            return list(self._marker_edge_counts)

    def affected_nodes(self, marker: int) -> np.ndarray:
        """Nodes whose temporal neighborhood changed since ``marker``.

        A new edge ``(u, v, t)`` changes the *out*-neighborhood of ``u``
        (walks from or through ``u`` can now take it) and introduces
        ``v`` if unseen.  Re-walking exactly these nodes refreshes every
        stale walk prefix of length 1; deeper staleness decays with walk
        length and is the accuracy/latency trade-off the incremental
        bench measures.
        """
        fresh = self.edges_since(marker)
        return np.unique(np.concatenate([fresh.src, fresh.dst]))
