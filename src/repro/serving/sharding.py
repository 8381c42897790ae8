"""Sharded scatter/gather serving: the embedding space across processes.

Everything up to PR 7 serves from one process; the "millions of users"
scenario needs the embedding space *partitioned* across real processes
with a router in front — the same ingest → train → publish → route
pipeline that "Towards Real-Time Temporal Graph Learning" overlaps
across CPU/GPU stages, here spread across shard workers.  Five pieces:

- :class:`ShardPlan` — the deterministic partitioner.  ``hash`` spreads
  node ids via a Fibonacci mixing hash (load-balanced, stable per id);
  ``range`` assigns contiguous id ranges (locality-preserving, and
  re-balanced automatically when the node count grows between
  publishes).
- :class:`EmbeddingShard` workers — ``replication_factor`` processes
  per shard, each owning a shard-local
  :class:`~repro.serving.store.EmbeddingStore` +
  :class:`~repro.serving.index.RecommendationIndex` (exact, or a
  per-shard :class:`~repro.serving.ann.IvfIndex`), which answers each
  sub-query through the same cached request path as the in-process
  frontend.  Slices arrive through
  :class:`~repro.serving.shared_array.SharedArray` blocks, not the
  command pipe; sibling replicas attach the same block.
- :class:`ShardedFrontend` — the router.  It holds the served
  version's whole (read-only) matrix, so query-side vectors never
  cross a pipe.  ``top_k`` is a scatter/gather: ship the query row to
  one replica per shard (round-robin), take each shard's local top-k,
  merge with the documented (score desc, lower global id) tie-break —
  **bit-identical** to the single-process oracle.  ``score_link`` is
  answered at the router by :func:`~repro.serving.store.link_score`,
  as the single-process frontend answers it, so it needs no live
  worker.  A dead replica fails over to a live sibling transparently
  (``serving.shard.replica.failovers``); only
  when *every* replica of a shard is gone does the router degrade —
  surviving shards still answer and every partial gather is counted
  (``serving.shard.degraded_queries``).
- :class:`ShardedPublisher` — slices each new snapshot per shard,
  installs every slice on every live replica under one new version,
  and only then flips the router's served version.  Queries carry the
  version they were routed under and workers retain the previous
  version, so **no gather can ever mix two versions across shards**
  (the sharded analogue of the store's atomic snapshot swap).
  Publish, :meth:`ShardedFrontend.rebalance` and
  :meth:`ShardedFrontend.respawn_replica` all install through one
  slice-install routine from the served version's matrix.
- :meth:`ShardedFrontend.rebalance` — live migration between
  :class:`ShardPlan`\\ s without a stop-the-world republish: spawn the
  new worker set, install the served version's slices under the new
  plan, flip the routing table in one reference assignment, drain the
  queries still in flight under the old plan, retire the old workers.
  A query routes entirely against one table snapshot, so a gather can
  never combine old-plan and new-plan slices.

Worker-internal recorder metrics (per-shard index counters, GEMM rows,
ANN counters) are aggregated back to the router by
:meth:`ShardedFrontend.worker_metrics` via a ``metrics`` op and land in
the ambient recorder under ``serving.shard.workers.<name>``.

Known trade-off: each worker handles its command pipe serially, so a
publish (slice install + optional IVF build) briefly queues behind /
ahead of that shard's sub-queries — availability is bounded by install
time, never correctness.

Oracle harness: ``tests/test_serving_shards.py`` and
``tests/test_serving_replication.py`` (``pytest -m shards``); latency
and throughput: perfbench's ``serve_sharded`` workload.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import resource_tracker
from typing import NamedTuple

import numpy as np

from repro.errors import ServingError
from repro.observability import Recorder, get_recorder, use_recorder
from repro.serving.ann import INDEX_CHOICES, IvfConfig, IvfIndex
from repro.serving.index import METRIC_CHOICES, RecommendationIndex, TopK
from repro.serving.shared_array import SharedArray, SharedArraySpec, _mp_context
from repro.serving.store import (
    EmbeddingStore,
    link_score,
    require_finite_norms,
    row_norms,
)

PLAN_CHOICES = ("hash", "range")

#: Knuth's 64-bit golden-ratio multiplier; mixes consecutive node ids
#: into well-spread shard assignments.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


class _ShardDownError(ServingError):
    """The target worker process is dead (the router fails over to a
    sibling replica, then degrades the gather)."""


class _StaleVersionError(ServingError):
    """The worker already dropped the requested version (router retries)."""


# ---------------------------------------------------------------------------
# Partitioner
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ShardPlan:
    """Deterministic node-id → shard assignment.

    ``hash`` mixes each id with the 64-bit golden-ratio multiplier and
    takes the high bits modulo ``num_shards`` — stable per id however
    the node count grows.  ``range`` splits ``[0, num_nodes)`` into
    contiguous near-equal ranges (:func:`numpy.linspace` bounds);
    ownership is a function of the *current* node count, so a growing store
    rebalances naturally at the next publish.  Both sides of the wire
    (publisher and worker) recompute ownership from this same plan, so
    they can never disagree.
    """

    num_shards: int
    strategy: str = "hash"

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ServingError(
                f"num_shards must be >= 1, got {self.num_shards}"
            )
        if self.strategy not in PLAN_CHOICES:
            raise ServingError(
                f"unknown shard strategy {self.strategy!r}; options: "
                f"{list(PLAN_CHOICES)}"
            )

    # ------------------------------------------------------------------
    def _bounds(self, num_nodes: int) -> np.ndarray:
        return np.linspace(0, num_nodes,
                           self.num_shards + 1).astype(np.int64)

    def shard_of_many(self, nodes: np.ndarray, num_nodes: int) -> np.ndarray:
        """Owning shard id for every node in ``nodes`` (vectorized)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        if self.strategy == "hash":
            with np.errstate(over="ignore"):
                mixed = nodes.astype(np.uint64) * _GOLDEN
            return ((mixed >> np.uint64(33))
                    % np.uint64(self.num_shards)).astype(np.int64)
        bounds = self._bounds(num_nodes)
        return (np.searchsorted(bounds, nodes, side="right") - 1
                ).astype(np.int64)

    def shard_of(self, node: int, num_nodes: int) -> int:
        """Owning shard id of one node."""
        return int(self.shard_of_many(
            np.asarray([node], dtype=np.int64), num_nodes)[0])

    def owned_ids(self, shard: int, num_nodes: int) -> np.ndarray:
        """Global node ids owned by ``shard``, ascending.

        Ascending order is load-bearing: a slice built from it keeps
        local row order equal to global id order, which is what lets a
        shard's local lower-row tie-break stand in for the oracle's
        lower-*id* tie-break.
        """
        if not 0 <= shard < self.num_shards:
            raise ServingError(
                f"shard {shard} out of range [0, {self.num_shards})"
            )
        if self.strategy == "range":
            bounds = self._bounds(num_nodes)
            return np.arange(bounds[shard], bounds[shard + 1],
                             dtype=np.int64)
        everyone = np.arange(num_nodes, dtype=np.int64)
        return everyone[self.shard_of_many(everyone, num_nodes) == shard]


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------
class _ShardVersion(NamedTuple):
    """One installed slice version inside a worker (``index`` is None
    when the shard owns no rows)."""

    index: RecommendationIndex | None
    ivf: IvfIndex | None
    ids: np.ndarray


def _local_row(sv: _ShardVersion, node: int) -> int:
    """Local row of global ``node`` in this shard's slice, or -1."""
    pos = int(np.searchsorted(sv.ids, node))
    if pos < len(sv.ids) and int(sv.ids[pos]) == node:
        return pos
    return -1


class _WorkerState:
    """Everything a shard worker holds between commands."""

    def __init__(self, shard_id: int, plan: ShardPlan,
                 cfg: ShardedServingConfig) -> None:
        self.shard_id = shard_id
        self.plan = plan
        self.cfg = cfg
        self.versions: OrderedDict[int, _ShardVersion] = OrderedDict()

    # -- commands ------------------------------------------------------
    def _resolve(self, version: int) -> _ShardVersion:
        sv = self.versions.get(version)
        if sv is None:
            raise _StaleVersionError(
                f"shard {self.shard_id} no longer holds version {version}"
            )
        return sv

    def install(self, version: int, generation: int, num_nodes: int,
                spec: SharedArraySpec | None) -> bool:
        ids = self.plan.owned_ids(self.shard_id, num_nodes)
        if spec is None or len(ids) == 0:
            sv = _ShardVersion(None, None, ids)
        else:
            shared = SharedArray.attach(spec)
            try:
                local = np.array(shared.array, dtype=np.float64, copy=True)
            finally:
                shared.close()
            if local.shape[0] != len(ids):
                raise ServingError(
                    f"shard {self.shard_id} slice has {local.shape[0]} "
                    f"rows, plan owns {len(ids)}"
                )
            store = EmbeddingStore()
            snapshot = store.publish(local, generation)
            index = RecommendationIndex(
                store, cache_size=self.cfg.cache_size,
                block_size=self.cfg.block_size, metric=self.cfg.metric,
            )
            ivf = None
            if self.cfg.index == "ivf":
                ann = self.cfg.ann or IvfConfig()
                if len(ids) >= ann.min_index_nodes:
                    ivf = IvfIndex.build(snapshot, ann, self.cfg.metric)
            sv = _ShardVersion(index, ivf, ids)
        self.versions[version] = sv
        while len(self.versions) > max(1, self.cfg.keep_versions):
            self.versions.popitem(last=False)
        return True

    def topk(self, version: int, node: int, k: int, vec: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, bool]:
        """One shard's top-k for the shipped query vector; the third
        element is True when the slice's index answered from its cache."""
        sv = self._resolve(version)
        if sv.index is None:  # empty shard: nothing to contribute
            return (np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.float64), False)
        misses: list[bool] = []
        local_ids, scores = sv.index.top_k_vector(
            vec, k, exclude_row=_local_row(sv, node), key=int(node),
            mode=self.cfg.index, ivf=sv.ivf,
            on_miss=lambda: misses.append(True),
        )
        gids = sv.ids[local_ids]
        gids.setflags(write=False)
        return gids, scores, not misses


def _shard_worker_main(conn, shard_id: int, plan: ShardPlan,
                       cfg: ShardedServingConfig, fault_plan=None,
                       attempt: int = 0) -> None:
    """Worker entry point: serve commands until ``stop`` or EOF.

    Replies are ``(request_id, ok, payload, seconds)``; a failure
    payload is ``(kind, message)`` with ``kind`` either ``"stale"``
    (router refreshes its version and retries) or ``"error"``.

    The worker runs under its own :class:`~repro.observability
    .Recorder`, so index/ANN/store metrics recorded by shard-local
    components accumulate here instead of vanishing; the ``metrics`` op
    ships the recorder's mergeable state back to the router.

    ``fault_plan``/``attempt`` are only passed on the *respawn* path:
    the ``controlplane.respawn`` site fires here, before the first
    command is served, so a ``crash`` spec kills the replacement worker
    deterministically — the crash-loop drill the control plane's
    circuit breaker is tested against.
    """
    if fault_plan is not None:
        fault_plan.fire("controlplane.respawn", shard=shard_id,
                        attempt=attempt)
    recorder = Recorder()
    state = _WorkerState(shard_id, plan, cfg)
    handlers = {
        "install": state.install,
        "topk": state.topk,
        "metrics": recorder.export_state,
        "ping": lambda: shard_id,
    }
    with use_recorder(recorder):
        while True:
            try:
                request_id, op, payload = conn.recv()
            except (EOFError, OSError, KeyboardInterrupt):
                break
            start = time.perf_counter()
            if op == "stop":
                try:
                    conn.send((request_id, True, None, 0.0))
                except (OSError, BrokenPipeError):
                    pass
                break
            try:
                handler = handlers[op]
                result = (handler(*payload) if payload is not None
                          else handler())
                reply = (request_id, True, result,
                         time.perf_counter() - start)
            except _StaleVersionError as exc:
                reply = (request_id, False, ("stale", str(exc)),
                         time.perf_counter() - start)
            except Exception as exc:
                reply = (request_id, False,
                         ("error", f"{type(exc).__name__}: {exc}"),
                         time.perf_counter() - start)
            try:
                conn.send(reply)
            except (OSError, BrokenPipeError):
                break
    try:
        conn.close()
    except OSError:
        pass


# ---------------------------------------------------------------------------
# Router side: one client per worker
# ---------------------------------------------------------------------------
class _Reply:
    """One in-flight worker reply (event-resolved by the receiver)."""

    __slots__ = ("_event", "_ok", "_payload", "_seconds", "_error")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._ok = False
        self._payload = None
        self._seconds = 0.0
        self._error: ServingError | None = None

    def _resolve(self, ok: bool, payload, seconds: float) -> None:
        self._ok = ok
        self._payload = payload
        self._seconds = seconds
        self._event.set()

    def _fail(self, error: ServingError) -> None:
        self._error = error
        self._event.set()

    def result(self, timeout: float | None = None):
        """``(payload, worker_seconds)``; raises on failure/timeout."""
        if not self._event.wait(timeout):
            raise ServingError(
                f"shard request timed out after {timeout}s"
            )
        if self._error is not None:
            raise self._error
        if not self._ok:
            kind, message = self._payload
            if kind == "stale":
                raise _StaleVersionError(message)
            raise ServingError(f"shard worker error: {message}")
        return self._payload, self._seconds


class EmbeddingShard:
    """Router-side handle to one shard worker process.

    Wraps the command pipe with request-id multiplexing: any router
    thread may issue requests concurrently; a dedicated receiver thread
    dispatches replies.  A dead worker (EOF on the pipe, failed send)
    flips :attr:`alive` and fails every pending request with
    :class:`_ShardDownError`, which is what the router's replica
    failover and degraded mode key on.  ``replica`` distinguishes
    sibling workers of one shard when ``replication_factor > 1``.
    """

    def __init__(self, shard_id: int, process, conn,
                 replica: int = 0) -> None:
        self.shard_id = shard_id
        self.replica = replica
        self._process = process
        self._conn = conn
        self._send_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending: dict[int, _Reply] = {}
        self._next_id = 0
        self._alive = True
        self._receiver = threading.Thread(
            target=self._recv_loop, daemon=True,
            name=f"shard-recv-{shard_id}.{replica}",
        )
        self._receiver.start()

    @property
    def alive(self) -> bool:
        return self._alive

    # ------------------------------------------------------------------
    def request_async(self, op: str, payload) -> _Reply:
        reply = _Reply()
        if not self._alive:
            reply._fail(_ShardDownError(
                f"shard {self.shard_id} replica {self.replica} worker "
                f"is down"))
            return reply
        with self._pending_lock:
            self._next_id += 1
            request_id = self._next_id
            self._pending[request_id] = reply
        try:
            with self._send_lock:
                self._conn.send((request_id, op, payload))
        except (OSError, ValueError, BrokenPipeError):
            self._mark_dead()
        return reply

    def request(self, op: str, payload, timeout: float | None = None):
        return self.request_async(op, payload).result(timeout)

    # ------------------------------------------------------------------
    def _recv_loop(self) -> None:
        while True:
            try:
                request_id, ok, payload, seconds = self._conn.recv()
            except (EOFError, OSError, ValueError):
                self._mark_dead()
                return
            with self._pending_lock:
                reply = self._pending.pop(request_id, None)
            if reply is not None:
                reply._resolve(ok, payload, seconds)

    def _mark_dead(self) -> None:
        self._alive = False
        with self._pending_lock:
            pending, self._pending = self._pending, {}
        for reply in pending.values():
            reply._fail(_ShardDownError(
                f"shard {self.shard_id} replica {self.replica} worker "
                f"is down"))

    # ------------------------------------------------------------------
    def kill(self) -> None:
        """Hard-kill the worker (tests / chaos): no goodbye message."""
        try:
            self._process.kill()
        except Exception:
            pass
        self._process.join(5.0)
        self._mark_dead()
        # Process death closes the pipe's far end, so the receiver sees
        # EOF; the bounded join keeps chaos drills from leaking threads.
        self._receiver.join(2.0)
        try:
            self._conn.close()
        except OSError:
            pass

    def stop(self, timeout: float = 5.0) -> None:
        """Graceful shutdown; escalates to terminate/kill on a hang.

        Joins the receiver thread (bounded) after the process is down —
        the pipe EOF is what wakes it — and closes the router's pipe
        end, so a stopped shard holds no thread or fd.
        """
        if self._alive:
            try:
                self.request_async("stop", None)
            except Exception:
                pass
        self._process.join(timeout)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(1.0)
        if self._process.is_alive():  # pragma: no cover - last resort
            self._process.kill()
            self._process.join(1.0)
        self._mark_dead()
        self._receiver.join(2.0)
        try:
            self._conn.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Router
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ShardedServingConfig:
    """Knobs of the sharded tier (router + every worker).

    ``index``/``ann`` select each shard's local index exactly like
    :class:`~repro.serving.frontend.ServingConfig` does for the
    single-process frontend (per-shard IVF indexes are built at install
    time against the shard's slice).  ``replication_factor`` spawns
    that many workers per shard slice: reads fan out to one replica per
    shard (round-robin) and fail over to a live sibling when the chosen
    replica is dead — with R >= 2, killing one replica of every shard
    costs zero degraded queries.  ``keep_versions`` is how many
    installed versions each worker retains — 2 lets queries routed just
    before a publish finish against the version they were routed under.
    ``cache_size`` bounds the LRU of each worker's per-version
    :class:`~repro.serving.index.RecommendationIndex`; the router needs
    no cache of its own, because it holds the served
    matrix and reads query vectors and link scores from it.
    ``stop_timeout`` bounds each worker's graceful-stop wait before
    escalation (close/rebalance stop workers concurrently, so a hung
    worker costs one timeout, not one per worker).
    """

    default_k: int = 10
    metric: str = "dot"
    block_size: int = 8192
    cache_size: int = 4096
    index: str = "exact"
    ann: IvfConfig | None = None
    keep_versions: int = 2
    request_timeout: float = 60.0
    replication_factor: int = 1
    stop_timeout: float = 5.0

    def __post_init__(self) -> None:
        if self.default_k < 1:
            raise ServingError(
                f"default_k must be >= 1, got {self.default_k}")
        if self.metric not in METRIC_CHOICES:
            raise ServingError(
                f"unknown metric {self.metric!r}; options: "
                f"{list(METRIC_CHOICES)}")
        if self.block_size < 1:
            raise ServingError(
                f"block_size must be >= 1, got {self.block_size}")
        if self.cache_size < 0:
            raise ServingError(
                f"cache_size must be >= 0, got {self.cache_size}")
        if self.index not in INDEX_CHOICES:
            raise ServingError(
                f"unknown index {self.index!r}; options: "
                f"{list(INDEX_CHOICES)}")
        if self.keep_versions < 1:
            raise ServingError(
                f"keep_versions must be >= 1, got {self.keep_versions}")
        if self.request_timeout <= 0:
            raise ServingError(
                f"request_timeout must be > 0, got {self.request_timeout}")
        if self.replication_factor < 1:
            raise ServingError(
                "replication_factor must be >= 1, got "
                f"{self.replication_factor}")
        if self.stop_timeout <= 0:
            raise ServingError(
                f"stop_timeout must be > 0, got {self.stop_timeout}")


@dataclass(frozen=True, eq=False)
class _VersionInfo:
    """The router's served version: id, generation and read-only matrix.

    One reference, swapped under ``_publish_lock``, so a reader never
    pairs one version's number with another version's rows.  The
    matrix answers query vectors and link scores, and is what rebalance
    and respawn re-slice.
    """

    version: int
    generation: int
    matrix: np.ndarray

    @property
    def num_nodes(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class RebalanceReport:
    """One live rebalance's measurements (returned by
    :meth:`ShardedFrontend.rebalance`)."""

    seconds: float
    install_seconds: float
    drain_seconds: float
    drained: bool
    old_plan: ShardPlan
    new_plan: ShardPlan


class _RoutingTable:
    """One routing epoch: a plan plus its spawned replica groups.

    Every query snapshots the frontend's table once and routes entirely
    against it, so a live rebalance is a single reference flip on the
    frontend: queries still in flight finish under the plan *and*
    worker set they were routed on (tracked by the in-flight counter,
    which the rebalance drains before retiring the old workers), and a
    gather can never combine old-plan and new-plan slices.
    """

    __slots__ = ("plan", "groups", "replication", "_rr", "_cond",
                 "_inflight", "_retired")

    def __init__(self, plan: ShardPlan,
                 groups: list[list[EmbeddingShard]]) -> None:
        self.plan = plan
        self.groups = groups
        self.replication = len(groups[0]) if groups else 1
        # itertools.count.__next__ is atomic under the GIL, so the
        # round-robin cursor needs no lock of its own.
        self._rr = [itertools.count() for _ in groups]
        self._cond = threading.Condition()
        self._inflight = 0
        self._retired = False

    # ------------------------------------------------------------------
    def live_replicas(self, shard_id: int) -> list[EmbeddingShard]:
        """Live workers of ``shard_id``, rotated round-robin.

        The first entry is the chosen replica for this request; the
        rest are the failover order if it dies mid-request.  The cursor
        rotates over the *live* subset, not the full group: a known-dead
        replica is skipped at selection time (counted under
        ``serving.shard.replica.skipped_dead``) instead of soaking up
        every len(group)-th pick and skewing load 2:1 onto whichever
        sibling follows it in the rotation.
        """
        group = self.groups[shard_id]
        if len(group) == 1:
            client = group[0]
            return [client] if client.alive else []
        live = [client for client in group if client.alive]
        if len(live) < len(group):
            rec = get_recorder()
            if rec.enabled:
                rec.counter("serving.shard.replica.skipped_dead",
                            len(group) - len(live))
            if not live:
                return []
        start = next(self._rr[shard_id]) % len(live)
        return live[start:] + live[:start]

    def all_clients(self) -> list[EmbeddingShard]:
        return [client for group in self.groups for client in group]

    # ------------------------------------------------------------------
    def enter(self) -> bool:
        """Register an in-flight query; False once the table retired."""
        with self._cond:
            if self._retired:
                return False
            self._inflight += 1
            return True

    def exit(self) -> None:
        with self._cond:
            self._inflight -= 1
            if self._inflight <= 0:
                self._cond.notify_all()

    def retire(self) -> None:
        """Refuse new entrants (they re-read the frontend's table)."""
        with self._cond:
            self._retired = True

    def wait_drained(self, timeout: float) -> bool:
        """Block until every in-flight query exited, or ``timeout``."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True


class ShardedFrontend:
    """Scatter/gather query router over :class:`EmbeddingShard` workers."""

    def __init__(self, plan: ShardPlan,
                 config: ShardedServingConfig | None = None,
                 mp_context=None) -> None:
        self._initial_plan = plan
        self.config = config or ShardedServingConfig()
        self._ctx = mp_context or _mp_context()
        self._table: _RoutingTable | None = None
        self._epoch = 0
        self._started = False
        self._closed = False
        self._publish_lock = threading.Lock()
        self._current: _VersionInfo | None = None

    # ------------------------------------------------------------------
    def _spawn_worker(self, plan: ShardPlan, shard_id: int, replica: int,
                      epoch: int, fault_plan=None,
                      attempt: int = 0) -> EmbeddingShard:
        """Fork one shard worker and wrap it in a router-side client."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_shard_worker_main,
            args=(child_conn, shard_id, plan, self.config, fault_plan,
                  attempt),
            daemon=True,
            name=f"embedding-shard-e{epoch}-{shard_id}.{replica}",
        )
        process.start()
        # Drop the parent's copy of the child end *before* spawning the
        # next worker, so a dead worker reads as EOF and later workers
        # never inherit this pipe.
        child_conn.close()
        return EmbeddingShard(shard_id, process, parent_conn,
                              replica=replica)

    def _spawn_table(self, plan: ShardPlan) -> _RoutingTable:
        """Fork ``num_shards x replication_factor`` workers for ``plan``."""
        # Start the parent's shared-memory resource tracker *before*
        # forking, so every worker inherits it.  A worker forked first
        # would lazily start a private tracker at its first publish
        # attach, and that tracker would warn about — and try to
        # re-unlink — blocks the publisher already cleaned up.
        resource_tracker.ensure_running()
        self._epoch += 1
        epoch = self._epoch
        groups: list[list[EmbeddingShard]] = []
        for shard_id in range(plan.num_shards):
            groups.append([
                self._spawn_worker(plan, shard_id, replica, epoch)
                for replica in range(self.config.replication_factor)
            ])
        return _RoutingTable(plan, groups)

    def start(self) -> "ShardedFrontend":
        """Spawn the shard workers (idempotent); returns self."""
        if self._started:
            return self
        self._table = self._spawn_table(self._initial_plan)
        self._started = True
        # One synchronous round-trip per worker: surface spawn failures
        # here, not on the first query.
        for client in self._table.all_clients():
            client.request("ping", None, timeout=self.config.request_timeout)
        return self

    def close(self, timeout: float | None = None) -> None:
        """Stop every worker process concurrently (idempotent).

        A hung worker costs one ``stop_timeout`` escalation, not one
        per worker; receiver threads are joined (bounded).  Queries on
        a closed frontend raise :class:`~repro.errors.ServingError`.
        """
        if self._closed:
            return
        self._closed = True
        timeout = self.config.stop_timeout if timeout is None else timeout
        table = self._table
        if table is not None:
            table.retire()
            self._stop_table(table, timeout)

    @staticmethod
    def _stop_table(table: _RoutingTable, stop_timeout: float) -> None:
        """Stop every worker of ``table`` concurrently (bounded)."""
        clients = table.all_clients()
        if not clients:
            return
        if len(clients) == 1:
            clients[0].stop(stop_timeout)
            return
        threads = []
        for client in clients:
            thread = threading.Thread(
                target=client.stop, args=(stop_timeout,), daemon=True,
                name=f"shard-stop-{client.shard_id}.{client.replica}",
            )
            thread.start()
            threads.append(thread)
        # stop() itself escalates within ~stop_timeout + 2s of joins;
        # anything still hanging past that is left to its daemon thread.
        deadline = time.monotonic() + stop_timeout + 4.0
        for thread in threads:
            thread.join(max(0.1, deadline - time.monotonic()))

    def __enter__(self) -> "ShardedFrontend":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    @property
    def plan(self) -> ShardPlan:
        """The currently routed plan (flips on :meth:`rebalance`)."""
        table = self._table
        return table.plan if table is not None else self._initial_plan

    @property
    def num_shards(self) -> int:
        return self.plan.num_shards

    @property
    def alive_shards(self) -> int:
        """Shards with at least one live replica."""
        table = self._table
        if table is None:
            return 0
        return sum(
            1 for group in table.groups
            if any(client.alive for client in group)
        )

    @property
    def alive_workers(self) -> int:
        """Worker processes currently able to answer (all replicas)."""
        table = self._table
        if table is None:
            return 0
        return sum(1 for client in table.all_clients() if client.alive)

    def _require_running(self) -> None:
        if self._closed:
            raise ServingError("sharded frontend is closed")
        if not self._started:
            raise ServingError(
                "sharded frontend is not started; enter its context "
                "(or call start()) first"
            )

    def _require_current(self) -> _VersionInfo:
        info = self._current
        if info is None:
            raise ServingError(
                "no embeddings published to the sharded tier yet; "
                "publish through a ShardedPublisher first"
            )
        return info

    @contextmanager
    def _routed(self):
        """Snapshot the routing table and hold it in-flight.

        Loops on ``enter()`` so a query racing a rebalance lands on
        exactly one table: either the old one (still counted, drained
        before its workers retire) or the new one — never a mix.
        ``close()`` sets ``_closed`` before it retires the table, so a
        query racing a close raises instead of spinning.
        """
        while True:
            self._require_running()
            table = self._table
            if table.enter():
                break
        try:
            yield table
        finally:
            table.exit()

    @property
    def num_nodes(self) -> int:
        """Nodes in the served version (the load generator's id space)."""
        return self._require_current().num_nodes

    @property
    def version(self) -> int:
        """Served version (0 before the first publish)."""
        info = self._current
        return info.version if info is not None else 0

    @property
    def generation(self) -> int:
        """Served generation (-1 before the first publish)."""
        info = self._current
        return info.generation if info is not None else -1

    def kill_shard(self, shard_id: int) -> None:
        """Hard-kill every replica of one shard (tests / chaos drills)."""
        table = self._table
        if table is None:
            raise ServingError("sharded frontend is not started")
        for client in table.groups[shard_id]:
            client.kill()

    def kill_replica(self, shard_id: int, replica: int) -> None:
        """Hard-kill one replica of one shard (tests / chaos drills)."""
        table = self._table
        if table is None:
            raise ServingError("sharded frontend is not started")
        table.groups[shard_id][replica].kill()

    def respawn_replica(self, shard_id: int, replica: int,
                        fault_plan=None, attempt: int = 0,
                        timeout: float | None = None) -> bool:
        """Replace one dead replica with a freshly forked worker.

        The recovery mechanism the control plane drives: under
        ``_publish_lock``, fork a replacement, ping it, install the
        served version's slice through :meth:`_install_slices`, and
        swap the new client into the live routing table's slot in one
        assignment — readers pick it up at their next round-robin
        selection, so recovery is invisible to queries.

        Holding ``_publish_lock`` end to end serializes the install
        with :meth:`ShardedPublisher.publish` and :meth:`rebalance`:
        a respawn racing a publish reads ``_current`` either entirely
        before or entirely after the publish's flip, so the replacement
        can never hold a version the router no longer serves (and a
        publish that wins the race installs onto the replacement like
        any other live replica).  A replacement that does not ack the
        install is stopped and the respawn raises.

        Returns False without spawning when the slot is already live
        (the sweep raced a rebalance that replaced the whole table).
        ``fault_plan``/``attempt`` forward to the worker's
        ``controlplane.respawn`` fault site for crash-loop drills.
        """
        self._require_running()
        timeout = self.config.request_timeout if timeout is None else timeout
        with self._publish_lock:
            table = self._table
            if not 0 <= shard_id < table.plan.num_shards:
                raise ServingError(
                    f"shard {shard_id} out of range "
                    f"[0, {table.plan.num_shards})")
            group = table.groups[shard_id]
            if not 0 <= replica < len(group):
                raise ServingError(
                    f"replica {replica} out of range [0, {len(group)})")
            if group[replica].alive:
                return False
            resource_tracker.ensure_running()
            client = self._spawn_worker(
                table.plan, shard_id, replica, self._epoch, fault_plan,
                attempt)
            try:
                client.request("ping", None, timeout=timeout)
                info = self._current
                if info is not None:
                    acked, _issued = self._install_slices(
                        table.plan, [(shard_id, [client])], info, timeout)
                    if not acked:
                        raise ServingError(
                            f"respawned replica {shard_id}.{replica} died "
                            f"before installing version {info.version}"
                        )
            except BaseException:
                client.stop(self.config.stop_timeout)
                raise
            # THE swap: one list-slot assignment on the live table;
            # queries routed before it keep failing over to siblings,
            # queries routed after it see the recovered replica.
            group[replica] = client
        return True

    # ------------------------------------------------------------------
    @staticmethod
    def _install_slices(plan: ShardPlan,
                        groups: Iterable[tuple[int, list[EmbeddingShard]]],
                        info: _VersionInfo, timeout: float
                        ) -> tuple[int, int]:
        """Install ``info``'s matrix, sliced per ``plan``, on every live
        worker of ``groups`` (``(shard_id, clients)`` pairs) under
        ``info.version``; returns ``(acked, issued)`` counts.

        The one install path of publish, rebalance and respawn.  One
        shared block per shard slice — sibling replicas attach the same
        pages and copy locally.
        """
        blocks: list[SharedArray] = []
        acked = 0
        try:
            pending: list[_Reply] = []
            for shard_id, group in groups:
                live = [client for client in group if client.alive]
                if not live:
                    continue
                ids = plan.owned_ids(shard_id, info.num_nodes)
                spec = None
                if len(ids) > 0:
                    block = SharedArray.create(info.matrix[ids])
                    blocks.append(block)
                    spec = block.spec
                for client in live:
                    pending.append(client.request_async(
                        "install", (info.version, info.generation,
                                    info.num_nodes, spec)))
            issued = len(pending)
            for reply in pending:
                try:
                    reply.result(timeout)
                    acked += 1
                except _ShardDownError:
                    # Died mid-install; sibling replicas (or the
                    # degraded gather) cover for it.
                    pass
        finally:
            for block in blocks:
                block.close()
        return acked, issued

    def _with_stale_retry(self, fn):
        """Run ``fn`` once more under the refreshed version on staleness.

        A worker only drops a version after ``keep_versions`` newer
        publishes landed, so one retry against the *new* current
        version always finds installed slices (the publisher flips the
        router's version last).
        """
        try:
            return fn()
        except _StaleVersionError:
            get_recorder().counter("serving.shard.stale_retries")
            try:
                return fn()
            except _StaleVersionError as exc:
                raise ServingError(
                    f"shard versions churned during retry: {exc}"
                ) from exc

    # ------------------------------------------------------------------
    def top_k(self, node: int, k: int | None = None,
              timeout: float | None = None) -> TopK:
        """Top-``k`` nodes for ``node``, best first — the scatter/gather.

        The query row comes from the router's served matrix and ships
        with the scatter.  Bit-identical to the single-process oracle
        while every shard has a live replica (a dead replica fails over
        to a sibling transparently); with whole shards dead — the query
        node's own shard included — the merge covers the surviving
        slices and the query counts as ``serving.shard.degraded_queries``.
        """
        rec = get_recorder()
        start = time.monotonic()
        result = self._with_stale_retry(
            lambda: self._top_k_once(int(node), k, timeout))
        if rec.enabled:
            rec.counter("serving.shard.requests.topk")
            rec.observe("serving.shard.latency.topk_s",
                        time.monotonic() - start)
        return result

    def _top_k_once(self, node: int, k: int | None,
                    timeout: float | None) -> TopK:
        k = self.config.default_k if k is None else int(k)
        if k < 1:
            raise ServingError(f"k must be >= 1, got {k}")
        info = self._require_current()
        if not 0 <= node < info.num_nodes:
            raise ServingError(
                f"node {node} out of range [0, {info.num_nodes})"
            )
        timeout = self.config.request_timeout if timeout is None else timeout
        rec = get_recorder()
        start = time.monotonic()
        with self._routed() as table:
            payload = (info.version, node, k, info.matrix[node])
            pending = []
            for shard_id in range(table.plan.num_shards):
                order = table.live_replicas(shard_id)
                if not order:
                    continue  # whole shard dead: degrade at the merge
                pending.append(
                    (shard_id, order, order[0].request_async("topk",
                                                             payload)))
            replies: list[tuple[int, int, tuple, float]] = []
            stale: _StaleVersionError | None = None
            for shard_id, order, reply in pending:
                position = 0
                while True:
                    try:
                        answer, seconds = reply.result(timeout)
                        replies.append((shard_id, order[position].replica,
                                        answer, seconds))
                        break
                    except _StaleVersionError as exc:
                        stale = exc
                        break
                    except _ShardDownError:
                        # The chosen replica died between routing and
                        # reply: re-issue to the next live sibling; only
                        # a shard with no survivors degrades the gather.
                        nxt = next(
                            (i for i in range(position + 1, len(order))
                             if order[i].alive), None)
                        if nxt is None:
                            if rec.enabled:
                                rec.counter("serving.shard.gather_drops")
                            break
                        position = nxt
                        if rec.enabled:
                            rec.counter("serving.shard.replica.failovers")
                        reply = order[position].request_async(
                            "topk", payload)
            if stale is not None:
                raise stale
            if not replies:
                raise ServingError(
                    "top-k gather failed: no shard worker answered"
                )
            wall = time.monotonic() - start
            merged = self._merge_topk(info, k, replies)
            if rec.enabled:
                self._record_gather(rec, table, replies, wall)
            return merged

    def _merge_topk(self, info: _VersionInfo, k: int,
                    replies: list[tuple[int, int, tuple, float]]) -> TopK:
        """Merge per-shard local top-k pools under the oracle's order.

        Any row in the true global top-k is inside its own shard's
        local top-k (at most k rows of that shard precede it in the
        total order), so concatenating the pools and re-sorting by
        (score desc, lower global id) reproduces the oracle exactly.
        """
        pool_ids = np.concatenate(
            [answer[0] for _sid, _rep, answer, _s in replies])
        pool_scores = np.concatenate(
            [answer[1] for _sid, _rep, answer, _s in replies])
        k_eff = min(k, info.num_nodes - 1, len(pool_ids))
        order = np.lexsort((pool_ids, -pool_scores))[:k_eff]
        ids = pool_ids[order].copy()
        scores = pool_scores[order].copy()
        ids.setflags(write=False)
        scores.setflags(write=False)
        return ids, scores

    def _record_gather(self, rec, table: _RoutingTable, replies,
                       wall: float) -> None:
        rec.observe("serving.shard.gather_fanin", len(replies))
        slowest = 0.0
        for shard_id, replica, answer, seconds in replies:
            rec.counter(f"serving.shard.{shard_id}.requests")
            rec.observe(f"serving.shard.{shard_id}.seconds", seconds)
            if table.replication > 1:
                rec.counter(
                    f"serving.shard.{shard_id}.replica.{replica}.requests")
            slowest = max(slowest, seconds)
            if len(answer) > 2 and answer[2]:
                rec.counter("serving.shard.cache_hits")
        rec.observe("serving.shard.router_overhead_s",
                    max(0.0, wall - slowest))
        # Degraded means a *shard* went unanswered — a dead replica
        # whose sibling answered is invisible here.
        if len(replies) < table.plan.num_shards:
            rec.counter("serving.shard.degraded_queries")

    # ------------------------------------------------------------------
    def score_link(self, src: int, dst: int,
                   timeout: float | None = None) -> float:
        """Similarity score of ``(src, dst)``, answered at the router.

        :func:`~repro.serving.store.link_score` on the served matrix,
        as the single-process frontend computes it, so the score bits
        match and no worker — live or dead — is involved.  ``timeout``
        is accepted for interface parity with
        :class:`~repro.serving.frontend.ServingFrontend`; nothing here
        waits.
        """
        rec = get_recorder()
        start = time.monotonic()
        self._require_running()
        info = self._require_current()
        score = link_score(info.matrix, int(src), int(dst))
        if rec.enabled:
            rec.counter("serving.shard.requests.score")
            rec.observe("serving.shard.latency.score_s",
                        time.monotonic() - start)
        return score

    # ------------------------------------------------------------------
    def rebalance(self, new_plan: ShardPlan,
                  timeout: float | None = None,
                  drain_timeout: float | None = None) -> RebalanceReport:
        """Migrate the live tier to ``new_plan`` without stopping reads.

        Spawns the new worker set, installs the *served* version's
        slices under the new plan, flips the routing table in one
        reference assignment (queries in flight finish under the table
        — plan and workers — they were routed on; new queries route
        under the new plan), waits for the old table to drain, then
        retires the old workers concurrently.  Serialized against
        publishes, so the version a query carries always matches the
        slices of the table it routed on.  Zero query errors, zero
        degraded gathers, zero mixed-plan responses by construction.
        """
        if not isinstance(new_plan, ShardPlan):
            raise ServingError(
                f"rebalance needs a ShardPlan, got {type(new_plan).__name__}"
            )
        self._require_running()
        timeout = self.config.request_timeout if timeout is None else timeout
        drain_timeout = (self.config.request_timeout
                         if drain_timeout is None else drain_timeout)
        rec = get_recorder()
        start = time.perf_counter()
        install_s = 0.0
        with self._publish_lock:
            old_table = self._table
            new_table = self._spawn_table(new_plan)
            try:
                for client in new_table.all_clients():
                    client.request("ping", None, timeout=timeout)
                info = self._current
                if info is not None:
                    t0 = time.perf_counter()
                    acked, issued = self._install_slices(
                        new_plan, enumerate(new_table.groups), info,
                        timeout)
                    install_s = time.perf_counter() - t0
                    if issued and not acked:
                        raise ServingError(
                            "rebalance failed: no new worker installed "
                            "the served version"
                        )
            except BaseException:
                self._stop_table(new_table, self.config.stop_timeout)
                raise
            # THE flip: queries from here route under new_plan against
            # workers that already hold the served version.
            self._table = new_table
        # Outside the publish lock: let in-flight old-plan queries
        # finish, then retire the old worker set.
        old_table.retire()
        t0 = time.monotonic()
        drained = old_table.wait_drained(drain_timeout)
        drain_s = time.monotonic() - t0
        self._stop_table(old_table, self.config.stop_timeout)
        wall = time.perf_counter() - start
        if rec.enabled:
            rec.counter("serving.shard.rebalance.count")
            rec.observe("serving.shard.rebalance.seconds", wall)
            rec.observe("serving.shard.rebalance.install_s", install_s)
            rec.observe("serving.shard.rebalance.drain_s", drain_s)
            rec.gauge("serving.shard.rebalance.num_shards",
                      new_plan.num_shards)
            if not drained:
                rec.counter("serving.shard.rebalance.forced_stops")
        return RebalanceReport(
            seconds=wall, install_seconds=install_s,
            drain_seconds=drain_s, drained=drained,
            old_plan=old_table.plan, new_plan=new_plan,
        )

    # ------------------------------------------------------------------
    def worker_metrics(self, timeout: float | None = None
                       ) -> dict[str, object]:
        """Aggregate every live worker's recorder state at the router.

        Scatters a ``metrics`` op to every replica and merges the
        returned recorder states exactly (counters add, histograms
        merge by moments, gauges last-write-wins).  The merged document
        is returned and — when the ambient recorder is enabled — folded
        into it under ``serving.shard.workers.<name>`` (plus a
        ``serving.shard.workers.reporting`` gauge), so ``serve-sim``
        exports carry per-shard index/ANN internals that previously
        died with the worker processes.  Counters are cumulative over a
        worker's lifetime: call once per run, not per interval.
        """
        timeout = self.config.request_timeout if timeout is None else timeout
        merged = Recorder()
        reporting = 0
        with self._routed() as table:
            pending = [client.request_async("metrics", None)
                       for client in table.all_clients() if client.alive]
            for reply in pending:
                try:
                    state, _seconds = reply.result(timeout)
                except ServingError:
                    continue  # died mid-scatter: report the survivors
                merged.merge_state(state)
                reporting += 1
        doc = merged.export_state()
        rec = get_recorder()
        if rec.enabled and reporting:
            rec.merge_state(doc, prefix="serving.shard.workers.")
            rec.gauge("serving.shard.workers.reporting", reporting)
        return doc


# ---------------------------------------------------------------------------
# Publisher
# ---------------------------------------------------------------------------
class ShardedPublisher:
    """Slices snapshots per shard and installs them version-atomically.

    Every publish: slice the matrix by the frontend's current plan,
    copy each slice into a :class:`~repro.serving.shared_array
    .SharedArray` block, install all slices on every live replica under
    one new version, and only after every live worker acked flip the
    router's served version.  Queries are tagged with the version they
    were routed under and workers retain ``keep_versions`` installed
    versions, so a gather can never pair one shard's new slice with
    another's old one.

    :meth:`attach` subscribes to an :class:`EmbeddingStore` so an
    :class:`~repro.tasks.incremental.IncrementalEmbedder` (or the
    stream controller) publishing there fans out here automatically —
    the same hook the ANN manager uses.
    """

    def __init__(self, frontend: ShardedFrontend,
                 timeout: float = 120.0) -> None:
        if timeout <= 0:
            raise ServingError(f"timeout must be > 0, got {timeout}")
        self.frontend = frontend
        self._timeout = timeout
        self._attached: list[tuple[EmbeddingStore, object]] = []

    # ------------------------------------------------------------------
    def publish(self, matrix: np.ndarray, generation: int = 0) -> int:
        """Install ``matrix`` across every shard; returns the version.

        A row whose norm is not finite raises :class:`ServingError`
        before any install (every worker's store would reject it), so
        the tier keeps serving the current version.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] < 1:
            raise ServingError(
                "published embeddings must be a non-empty 2-D matrix, "
                f"got shape {matrix.shape}"
            )
        require_finite_norms(row_norms(matrix))
        # The router serves (and later re-slices) this matrix by
        # reference, so a buffer the caller could still write is frozen
        # into a private copy.
        if matrix.flags.writeable or not matrix.flags.owndata:
            matrix = matrix.copy()
            matrix.setflags(write=False)
        return self._install(matrix, generation)

    def _install(self, matrix: np.ndarray, generation: int) -> int:
        """:meth:`publish` for a read-only matrix of finite rows that
        nobody writes, such as a store snapshot's."""
        frontend = self.frontend
        frontend._require_running()
        start = time.perf_counter()
        with frontend._publish_lock:
            current = frontend._current
            if current is not None and generation < current.generation:
                raise ServingError(
                    f"stale publish: generation {generation} is older "
                    f"than the served generation {current.generation}"
                )
            info = _VersionInfo(
                (current.version if current is not None else 0) + 1,
                int(generation), matrix)
            table = frontend._table
            _acked, issued = frontend._install_slices(
                table.plan, enumerate(table.groups), info, self._timeout)
            if issued == 0:
                raise ServingError(
                    "sharded publish failed: every worker is down"
                )
            # The flip: queries issued from here on are tagged with the
            # fully-installed new version.
            frontend._current = info
        rec = get_recorder()
        rec.counter("serving.shard.publishes")
        rec.gauge("serving.shard.version", info.version)
        rec.gauge("serving.shard.generation", info.generation)
        rec.observe("serving.shard.install_s",
                    time.perf_counter() - start)
        return info.version

    # ------------------------------------------------------------------
    def attach(self, store: EmbeddingStore) -> None:
        """Fan out every future publish of ``store`` to the shards.

        The store's current snapshot (if any) is published immediately,
        so attaching to a warm store brings the tier up to date.
        """

        # A store snapshot's matrix is finite and immutable.
        def _on_publish(snapshot) -> None:
            self._install(snapshot.matrix, snapshot.generation)

        store.subscribe(_on_publish)
        self._attached.append((store, _on_publish))
        if not store.empty:
            _on_publish(store.snapshot())

    def detach(self) -> None:
        """Unsubscribe from every attached store (idempotent)."""
        attached, self._attached = self._attached, []
        for store, callback in attached:
            store.unsubscribe(callback)
