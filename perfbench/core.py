"""Shared pieces of the benchmark: inputs, results, statistics, tracing,
memory and host facts.  Every timing uses ``time.perf_counter``.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Tail percentiles tried from the highest down; the first one with at
#: least ``TAIL_MIN_BEYOND`` samples beyond it is reported.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
TAIL_MIN_BEYOND = 10


@dataclass
class Metric:
    """One reported figure: value, unit and how it was obtained."""

    value: float
    unit: str
    note: str = ""


@dataclass
class Result:
    """What one workload run produced."""

    metrics: dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)

    def add(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = Metric(float(value), unit, note)

    def mismatch(self, message: str, count: int = 1) -> None:
        """Record a wrong output; it counts as a failed op."""
        self.mismatches.append(message)
        self.failed += count

    @property
    def correct(self) -> bool:
        return not self.mismatches and self.failed == 0


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------
#: The graph generator's own seed.  The benchmark seed relabels the
#: nodes of this one graph instead of drawing a new one: a new draw
#: changes the walk corpus by up to +-30% (and the op time with it),
#: while a relabeled graph is a different input with the same structure
#: and the same amount of work.
GRAPH_SEED = 0


def email_graph(scale: float, seed: int):
    """``ia_email_like(scale)`` with node ids permuted by ``seed``."""
    from repro.graph import TemporalEdgeList, generators

    base = generators.ia_email_like(scale=scale, seed=GRAPH_SEED)
    relabel = np.random.default_rng(seed).permutation(base.num_nodes)
    return TemporalEdgeList(relabel[base.src], relabel[base.dst],
                            base.timestamps, num_nodes=base.num_nodes)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
def percentile(values, q: float) -> float:
    return float(np.percentile(values, q))


def median(values) -> float:
    return percentile(values, 50.0)


def tail_percentile(count: int) -> float | None:
    """Highest percentile with at least ten samples beyond it, or None."""
    for q in TAIL_PERCENTILES:
        if round(count * (100.0 - q), 6) >= 100 * TAIL_MIN_BEYOND:
            return q
    return None


def add_latency(result: Result, name_p50: str, name_tail: str | None,
                seconds: list[float], what: str) -> None:
    """Report p50 (and the supported tail) of ``seconds`` in ms."""
    n = len(seconds)
    ms = [s * 1e3 for s in seconds]
    result.add(name_p50, median(ms), "ms", f"p50 over n={n} {what}")
    if name_tail is None:
        return
    q = tail_percentile(n)
    if q is None:
        print(f"  {name_tail:<28} (none: n={n} {what} cannot support a "
              f"tail with {TAIL_MIN_BEYOND} samples beyond it)")
        return
    result.add(name_tail, percentile(ms, q), "ms",
               f"p{q:g} over n={n} {what}")


# ---------------------------------------------------------------------------
# Tracing (benchmark-side spans around public calls)
# ---------------------------------------------------------------------------
class Tracer:
    """Thread-aware span recorder owned by the benchmark.

    :meth:`op` opens an op's root span on the calling thread; spans on
    that thread nest under the innermost open span there.  A span opened
    on a thread with nothing open (the stream controller's drain thread)
    is parented to the most recently started op, which is exact when
    one op is in flight at a time.  Spans are kept in memory and written
    out with :meth:`write_jsonl`.  While :attr:`enabled` is false every
    span is a no-op.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._last: tuple[int, int] | None = None  # (op id, root span id)

    def _record(self, span_id: int, name: str, start: float,
                parent: int | None, op: int | None) -> None:
        end = time.perf_counter()
        with self._lock:
            self.spans.append({"id": span_id, "name": name, "start": start,
                               "end": end, "parent": parent, "op": op})

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        stack = getattr(self._local, "stack", None)
        if stack:
            op, parent = stack[-1]
        else:
            stack = self._local.stack = []
            op, parent = self._last if self._last else (None, None)
        span_id = next(self._ids)
        stack.append((op, span_id))
        start = time.perf_counter()
        try:
            yield
        finally:
            stack.pop()
            self._record(span_id, name, start, parent, op)

    @contextmanager
    def op(self, op_id: int, name: str = "op"):
        """Trace one op: a root span that the op's layer spans hang off."""
        if not self.enabled:
            yield
            return
        root = next(self._ids)
        self._last = (op_id, root)
        self._local.stack = [(op_id, root)]
        start = time.perf_counter()
        try:
            yield
        finally:
            self._local.stack = []
            self._record(root, name, start, None, op_id)

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                handle.write(json.dumps(span) + "\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


#: How far (seconds) a layer span may run past its op's root span before
#: the op counts as badly attributed.  The drain thread finishes its
#: refresh bookkeeping just after the publish that ends an ingest op.
SPILL_TOLERANCE_S = 0.002


@dataclass
class OpBreakdown:
    """Self time per span name for one traced op."""

    wall: float
    self_seconds: dict[str, float]
    root_self: float
    spill: float


def breakdown(spans: list[dict]) -> dict[int, OpBreakdown]:
    """Self time of every span, grouped by op and summed by name.

    Spans are first clipped to their op's root interval; a span's self
    time is then its duration minus the part of its interval that its
    children cover, so the self times of one op sum to its wall time.
    ``spill`` is the longest stretch by which a span ran outside its
    root before clipping.
    """
    roots = {s["op"]: s for s in spans if s["parent"] is None}
    clipped: dict[int, tuple[float, float]] = {}
    ops: dict[int, OpBreakdown] = {
        op: OpBreakdown(r["end"] - r["start"], {}, 0.0, 0.0)
        for op, r in roots.items()}
    children: dict[int, list[int]] = {}
    for span in spans:
        root = roots.get(span["op"])
        if root is None:
            continue
        start = max(span["start"], root["start"])
        end = min(span["end"], root["end"])
        clipped[span["id"]] = (start, max(start, end))
        ops[span["op"]].spill = max(ops[span["op"]].spill,
                                    root["start"] - span["start"],
                                    span["end"] - root["end"])
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span["id"])
    for span in spans:
        if span["id"] not in clipped:
            continue
        start, end = clipped[span["id"]]
        kids = [clipped[c] for c in children.get(span["id"], ())]
        own = (end - start) - _union_length(
            [(max(a, start), min(b, end)) for a, b in kids
             if min(b, end) > max(a, start)])
        entry = ops[span["op"]]
        if span["parent"] is None:
            entry.root_self = own
        else:
            entry.self_seconds[span["name"]] = (
                entry.self_seconds.get(span["name"], 0.0) + own)
    return ops


def mean_self_ms(ops: dict[int, OpBreakdown], name: str) -> float:
    """Mean over ops of the summed self time of spans named ``name``."""
    if not ops:
        return 0.0
    return 1e3 * sum(o.self_seconds.get(name, 0.0)
                     for o in ops.values()) / len(ops)


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------
def _status_kb(path: str, key: str) -> float:
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith(key + ":"):
                return float(line.split()[1])
    raise KeyError(f"{key} not in {path}")


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (VmHWM), in MiB."""
    return _status_kb("/proc/self/status", "VmHWM") / 1024.0


def child_pids() -> list[int]:
    """Live child processes of this process (all threads)."""
    pids: list[int] = []
    for task in Path("/proc/self/task").iterdir():
        try:
            text = (task / "children").read_text()
        except OSError:
            continue
        pids.extend(int(p) for p in text.split())
    return sorted(set(pids))


def children_pss_mb() -> float:
    """Proportional set size of every live child, summed, in MiB.

    Pages a forked worker shares with this process (copy-on-write) or
    with its siblings (shared-memory slices) are split between the
    sharers instead of being counted once per process.
    """
    total = 0.0
    for pid in child_pids():
        try:
            total += _status_kb(f"/proc/{pid}/smaps_rollup", "Pss")
        except (OSError, KeyError):
            continue
    return total / 1024.0


# ---------------------------------------------------------------------------
# Host facts
# ---------------------------------------------------------------------------
def _commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if ref.startswith("ref: "):
        try:
            return (root / ".git" / ref[5:]).read_text().strip()
        except OSError:
            return ref[5:]
    return ref


def _filesystem(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (from mountinfo)."""
    best, fstype = "", "unknown"
    target = str(path.resolve())
    try:
        with open("/proc/self/mountinfo", encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                mount = parts[4]
                fs = parts[parts.index("-") + 1]
                if (target == mount or target.startswith(mount.rstrip("/") + "/")
                        or mount == "/") and len(mount) >= len(best):
                    best, fstype = mount, fs
    except (OSError, ValueError, IndexError):
        pass
    return fstype


def host_probe_ms() -> float:
    """Milliseconds a fixed CPU- and memory-bound probe takes (best of 3).

    Printed before and after each run: on a shared host the same code
    runs 20-30% slower in some minutes than in others, and the probe
    shows which kind of minute a run got.
    """
    matrix = np.arange(65_536, dtype=np.float64).reshape(256, 256) / 65_536
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        for _ in range(10):
            matrix @ matrix
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def host_facts(root: Path, work_dir: Path) -> dict:
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": _commit(root),
        "work_dir_fs": _filesystem(work_dir),
    }
