"""Thread-scaling simulator (Fig. 10).

The paper parallelizes the walk kernel's vertex loop with dynamically
scheduled (work-stealing) OpenMP threads because per-vertex work —
dependent on out-degree and timestamp distribution — is heavily
imbalanced; naive static partitioning scales poorly.  This module
simulates both policies as a deterministic greedy scheduler over the
*measured* per-vertex work array the walk engine records
(``WalkStats.work_per_start_node``), plus per-thread and per-chunk
overheads that reproduce the paper's observed scaling knee
(thread-management cost dominating past ~64 threads).

This simulator is where the repo's Fig. 10 scaling curves come from:
the phases themselves run in one process, so the scaling is modeled
over measured work, not timed on a many-core host.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError


@dataclass(frozen=True)
class SchedulerCosts:
    """Overhead parameters (work units, relative to one unit of task work).

    ``bandwidth_speedup_cap`` is a roofline ceiling: memory-bound kernels
    stop scaling once the cores saturate DRAM bandwidth regardless of
    thread count — the effect behind the paper's observation that more
    than 64 threads does not help (§VII-B).  ``None`` disables it.
    """

    per_thread_startup: float = 500.0
    per_chunk_dispatch: float = 3.0
    per_steal: float = 12.0
    bandwidth_speedup_cap: float | None = 48.0


@dataclass
class ScheduleResult:
    """Outcome of one simulated parallel execution."""

    policy: str
    num_threads: int
    makespan: float
    serial_work: float
    per_thread_work: np.ndarray

    @property
    def speedup(self) -> float:
        """Serial work divided by makespan."""
        if self.makespan == 0:
            return 0.0
        return self.serial_work / self.makespan

    @property
    def load_imbalance(self) -> float:
        """max/mean busy time across threads (1.0 = perfectly balanced)."""
        mean = self.per_thread_work.mean()
        if mean == 0:
            return 1.0
        return float(self.per_thread_work.max() / mean)


def simulate_schedule(
    work: np.ndarray,
    num_threads: int,
    policy: str = "dynamic",
    chunk: int = 64,
    costs: SchedulerCosts = SchedulerCosts(),
) -> ScheduleResult:
    """Simulate scheduling ``work`` items onto ``num_threads`` threads.

    ``static``: the item range is split into ``num_threads`` contiguous
    blocks up front (OpenMP ``schedule(static)``); makespan is the
    heaviest block.  ``dynamic``: threads repeatedly grab the next
    ``chunk`` items from a shared queue (OpenMP ``schedule(dynamic)`` —
    work stealing in the paper's terms), paying a dispatch overhead per
    grab; simulated exactly with a min-heap of thread completion times.
    """
    work = np.asarray(work, dtype=np.float64)
    if num_threads < 1:
        raise ModelError(f"num_threads must be >= 1, got {num_threads}")
    if policy not in ("static", "dynamic"):
        raise ModelError(f"policy must be 'static' or 'dynamic', got {policy!r}")
    serial = float(work.sum())
    startup = costs.per_thread_startup * np.log2(num_threads + 1)

    floor = 0.0
    if costs.bandwidth_speedup_cap is not None:
        floor = serial / costs.bandwidth_speedup_cap

    if policy == "static" or num_threads == 1:
        bounds = np.linspace(0, len(work), num_threads + 1).astype(int)
        per_thread = np.array(
            [work[bounds[i]: bounds[i + 1]].sum() for i in range(num_threads)]
        )
        makespan = max(float(per_thread.max()), floor) + startup
        return ScheduleResult(policy, num_threads, makespan, serial, per_thread)

    chunk_sums = [
        float(work[base: base + chunk].sum()) + costs.per_chunk_dispatch
        for base in range(0, len(work), chunk)
    ]
    # Greedy list scheduling with a completion-time heap: each idle thread
    # takes the next chunk in queue order, exactly like a dynamic OpenMP
    # loop with deterministic tie-breaking.
    heap = [(0.0, t) for t in range(num_threads)]
    heapq.heapify(heap)
    busy = np.zeros(num_threads, dtype=np.float64)
    for chunk_work in chunk_sums:
        finish, thread = heapq.heappop(heap)
        new_finish = finish + chunk_work + costs.per_steal / num_threads
        busy[thread] += chunk_work
        heapq.heappush(heap, (new_finish, thread))
    makespan = max(max(f for f, _ in heap), floor) + startup
    return ScheduleResult(policy, num_threads, makespan, serial, busy)


def scaling_curve(
    work: np.ndarray,
    thread_counts: list[int],
    policy: str = "dynamic",
    chunk: int = 64,
    costs: SchedulerCosts = SchedulerCosts(),
) -> dict[int, float]:
    """Speedup-vs-threads curve normalized to the single-thread run."""
    base = simulate_schedule(work, 1, policy="static", costs=costs).makespan
    curve: dict[int, float] = {}
    for t in thread_counts:
        result = simulate_schedule(work, t, policy=policy, chunk=chunk, costs=costs)
        curve[t] = base / result.makespan
    return curve
