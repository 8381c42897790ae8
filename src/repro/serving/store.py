"""Versioned embedding snapshots with atomic swap semantics.

The deployment story of §VII-B ends at "re-run the pipeline"; a serving
system additionally needs the *result* of each run available to query
threads while the next run is in flight.  :class:`EmbeddingStore` is
that handoff point:

- :meth:`EmbeddingStore.publish` installs an immutable
  :class:`EmbeddingSnapshot` (a read-only copy of the embedding matrix,
  its row norms and a float32 *shadow* of it) under a single reference
  assignment — the swap is atomic, writers never wait for readers;
- :meth:`EmbeddingStore.snapshot` hands readers the current snapshot.
  A reader that holds on to a snapshot keeps reading *consistent but
  stale* embeddings until it re-fetches — readers never block a swap
  and never observe a half-written matrix;
- snapshots are keyed by the source
  :class:`~repro.graph.dynamic.DynamicTemporalGraph` generation plus a
  store-local monotone ``version`` (every publish bumps the version,
  even a re-publish of the same generation after more training).

:class:`~repro.tasks.incremental.IncrementalEmbedder` publishes here
after every ``rebuild()``/``update()`` when constructed with a
``store=``, which is the ingest half of the online loop.

:meth:`EmbeddingStore.subscribe` is the publish hook derived systems
attach to; the ANN layer (:class:`~repro.serving.ann.IvfIndexManager`)
uses it to rebuild its per-version IVF index asynchronously after every
publish — the snapshot *version* is the pinning token that keeps an
index generation from ever being paired with a different matrix
generation.

Publish builds the snapshot in one blocked pass: each 2,048-row block
of the caller's matrix is copied, its norms are computed as
``np.sqrt(np.add.reduce(b * b, axis=1))`` (byte-equal to
``np.linalg.norm(m, axis=1)`` row by row, without its full-size ``x*x``
temporary) and it is rounded into the float32 shadow while it is still
in cache.  The shadow is what
:class:`~repro.serving.index.RecommendationIndex` screens exact top-k
with before it re-scores the survivors in float64, so it costs 4 bytes
per entry on top of the matrix's 8, against the 8-byte-per-entry
temporary the norms no longer allocate.  The shadow is stored
column-major (``order="F"``): the screen's float32 matrix-vector
product then streams each column of a block, which keeps it bound by
memory rather than by arithmetic.  When the largest row norm lies
outside ``[2**-40, 2**40]`` the shadow holds ``m * 2**shadow_exp``
instead, with the exponent chosen so that the scaled norms are below 1
(a second pass, only for such catalogs): float32 can then neither
overflow nor lose a whole catalog of tiny rows to underflow.  The
screen's error bound accounts for the scale.

A row whose norm is not finite (a NaN or infinite entry, or entries so
large that their squares overflow) is rejected with
:class:`~repro.errors.ServingError` and the served snapshot is left as
it was: no score over such a row has a meaningful order.
"""

from __future__ import annotations

import logging
import math
import threading
import time
from typing import Callable

import numpy as np

from repro.errors import ServingError
from repro.observability import get_recorder

log = logging.getLogger(__name__)

#: Rows per step of the publish pass: one block is copied, normed and
#: rounded to float32 while it is in cache.
_PUBLISH_ROWS = 2048

#: The float32 shadow is stored unscaled while the largest row norm
#: lies in ``[2**-_UNSCALED, 2**_UNSCALED]``.
_UNSCALED = 40


def row_norms(rows: np.ndarray, out: np.ndarray | None = None
              ) -> np.ndarray:
    """Euclidean norm of every row, byte-equal to
    ``np.linalg.norm(rows, axis=1)`` for a C-ordered float64 matrix,
    computed 2,048 rows at a time so no full-size temporary is made.
    A row whose squares overflow gets an infinite norm, quietly."""
    if out is None:
        out = np.empty(rows.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, rows.shape[0], _PUBLISH_ROWS):
            block = rows[start:start + _PUBLISH_ROWS]
            np.sqrt(np.add.reduce(block * block, axis=1),
                    out=out[start:start + _PUBLISH_ROWS])
    return out


def require_finite_norms(norms: np.ndarray) -> None:
    """Raise :class:`ServingError` naming the first row whose norm is
    NaN or infinite."""
    bad = np.flatnonzero(~np.isfinite(norms))
    if len(bad):
        raise ServingError(
            f"published embeddings must be finite: row {int(bad[0])} "
            f"has norm {norms[bad[0]]} ({len(bad)} such rows)"
        )


def scale_exponent(max_norm: float) -> int:
    """Power-of-two exponent a float32 copy of vectors of norm up to
    ``max_norm`` is scaled by (the shadow, and top-k's query; see the
    module docstring): 0 inside the unscaled range, otherwise the one
    that brings ``max_norm`` into ``[0.5, 1)``."""
    if max_norm == 0.0 or 2.0 ** -_UNSCALED <= max_norm <= 2.0 ** _UNSCALED:
        return 0
    return -math.frexp(max_norm)[1]


def link_score(matrix: np.ndarray, src: int, dst: int) -> float:
    """Score of the candidate edge ``(src, dst)`` over ``matrix``.

    The embedding inner product — the §IV-B edge representation
    collapsed to a ranking scalar (no classifier head); higher means
    more likely.  Both frontends answer ``score_link`` with this one
    function, so their score bits match.  An id outside the matrix
    raises :class:`ServingError`.
    """
    num_nodes = matrix.shape[0]
    for node in (src, dst):
        if not 0 <= node < num_nodes:
            raise ServingError(f"node {node} out of range [0, {num_nodes})")
    return float(np.einsum("bd,bd->b", matrix[src][None, :],
                           matrix[dst][None, :])[0])


class EmbeddingSnapshot:
    """One immutable published embedding matrix.

    ``matrix``, ``norms`` and ``shadow`` are read-only arrays
    (``writeable=False``): ``shadow`` is the float32 rounding of
    ``matrix * 2**shadow_exp`` that top-k screens with.  ``generation``
    is the graph generation the embeddings were trained through,
    ``version`` the store-local publish counter, and ``published_at`` a
    monotonic timestamp (for staleness gauges).
    """

    __slots__ = ("matrix", "norms", "shadow", "shadow_exp", "generation",
                 "version", "published_at")

    def __init__(self, matrix: np.ndarray, norms: np.ndarray,
                 shadow: np.ndarray, shadow_exp: int,
                 generation: int, version: int, published_at: float) -> None:
        self.matrix = matrix
        self.norms = norms
        self.shadow = shadow
        self.shadow_exp = shadow_exp
        self.generation = generation
        self.version = version
        self.published_at = published_at

    @property
    def num_nodes(self) -> int:
        """Number of embedded nodes."""
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        """Embedding dimensionality."""
        return self.matrix.shape[1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"EmbeddingSnapshot(num_nodes={self.num_nodes}, "
                f"dim={self.dim}, generation={self.generation}, "
                f"version={self.version})")


class EmbeddingStore:
    """Atomically-swapped, versioned embedding snapshots."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._publish_cv = threading.Condition(self._lock)
        self._current: EmbeddingSnapshot | None = None
        self._version = 0
        self._subscribers: list[Callable[[EmbeddingSnapshot], None]] = []

    # ------------------------------------------------------------------
    def publish(self, matrix: np.ndarray, generation: int
                ) -> EmbeddingSnapshot:
        """Install a new snapshot; returns it.

        The matrix is copied (so the trainer may keep mutating its own
        buffer) and frozen, together with its norms and float32 shadow
        (one blocked pass, see the module docstring).  A matrix with a
        row whose norm is not finite, or publishing a generation older
        than the current snapshot's, raises :class:`ServingError` and
        leaves the served snapshot as it was — concurrent trainers must
        hand results over in generation order; equal generations are
        fine (continued training on an unchanged graph).
        """
        source = np.asarray(matrix, dtype=np.float64)
        if source.ndim != 2 or source.shape[0] < 1:
            raise ServingError(
                "published embeddings must be a non-empty 2-D matrix, got "
                f"shape {source.shape}"
            )
        n = source.shape[0]
        frozen = np.empty(source.shape)
        norms = np.empty(n)
        # Column-major, so the screen's matrix-vector product streams
        # each column of a block (see the module docstring).
        shadow = np.empty(source.shape, dtype=np.float32, order="F")
        # Rows too large for float32 overflow here; the scaled second
        # pass below rewrites the whole shadow for such catalogs.
        with np.errstate(over="ignore"):
            for start in range(0, n, _PUBLISH_ROWS):
                stop = start + _PUBLISH_ROWS
                block = frozen[start:stop]
                block[...] = source[start:stop]
                row_norms(block, out=norms[start:stop])
                shadow[start:stop] = block
        require_finite_norms(norms)
        exp = scale_exponent(float(norms.max()))
        if exp:
            for start in range(0, n, _PUBLISH_ROWS):
                stop = start + _PUBLISH_ROWS
                shadow[start:stop] = np.ldexp(frozen[start:stop], exp)
        for array in (frozen, norms, shadow):
            array.setflags(write=False)
        with self._lock:
            current = self._current
            if current is not None and generation < current.generation:
                raise ServingError(
                    f"stale publish: generation {generation} is older than "
                    f"the served generation {current.generation}"
                )
            self._version += 1
            snapshot = EmbeddingSnapshot(
                frozen, norms, shadow, exp, int(generation), self._version,
                time.monotonic(),
            )
            # The swap: one reference assignment, atomic under the GIL.
            # Readers holding the old snapshot keep a consistent view.
            self._current = snapshot
            subscribers = list(self._subscribers)
            self._publish_cv.notify_all()
        rec = get_recorder()
        rec.counter("serving.store.publishes")
        rec.gauge("serving.store.generation", snapshot.generation)
        rec.gauge("serving.store.version", snapshot.version)
        for callback in subscribers:
            try:
                callback(snapshot)
            except Exception:
                # A broken subscriber must not abort the publisher
                # mid-loop (starving later subscribers) once the
                # snapshot is already installed — same isolation as
                # DynamicTemporalGraph's generation hooks.
                rec.counter("serving.store.subscriber_errors")
                log.warning(
                    "publish subscriber %r raised on version %d",
                    callback, snapshot.version, exc_info=True,
                )
        return snapshot

    # ------------------------------------------------------------------
    def snapshot(self) -> EmbeddingSnapshot:
        """The currently served snapshot (never blocks on a publisher)."""
        snapshot = self._current
        if snapshot is None:
            raise ServingError(
                "no embeddings published yet; run the embedder (e.g. "
                "IncrementalEmbedder.rebuild with store=) first"
            )
        return snapshot

    @property
    def empty(self) -> bool:
        """True until the first :meth:`publish`."""
        return self._current is None

    @property
    def version(self) -> int:
        """Version of the current snapshot (0 while empty)."""
        snapshot = self._current
        return snapshot.version if snapshot is not None else 0

    @property
    def generation(self) -> int:
        """Generation of the current snapshot (-1 while empty)."""
        snapshot = self._current
        return snapshot.generation if snapshot is not None else -1

    # ------------------------------------------------------------------
    def subscribe(self, callback: Callable[[EmbeddingSnapshot], None]
                  ) -> None:
        """Run ``callback(snapshot)`` after every publish (writer thread,
        outside the store lock).

        An exception from one callback is logged and counted
        (``serving.store.subscriber_errors``) but neither skips the
        remaining callbacks nor propagates into the publishing thread.
        """
        with self._lock:
            self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[EmbeddingSnapshot], None]
                    ) -> bool:
        """Deregister ``callback``; returns False when it wasn't registered.

        Idempotent, so shutdown paths (e.g. a sharded publisher's
        ``detach()``) may call it unconditionally.
        """
        with self._lock:
            try:
                self._subscribers.remove(callback)
                return True
            except ValueError:
                return False

    def wait_for_generation(self, generation: int,
                            timeout: float | None = None) -> bool:
        """Block until a snapshot with ``generation`` or newer is served.

        Returns False on timeout.  Used by tests and by load generators
        that must observe a post-append publish before asserting
        freshness.
        """
        deadline = (time.monotonic() + timeout) if timeout is not None else None
        with self._publish_cv:
            while (self._current is None
                   or self._current.generation < generation):
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._publish_cv.wait(remaining)
            return True
