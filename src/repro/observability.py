"""Unified observability: metrics registry, span tracing, exporters.

The source paper is a *characterization* study — its headline artifacts
are per-kernel instruction mixes (Fig. 9), thread-scaling curves
(Fig. 10), and per-phase time breakdowns (Table III).  This module is
the single instrumentation substrate those analyses (and the checkpoint
store, the serving tier, and the benchmarks) share:

- :class:`Recorder` — a process-local registry of **counters** (monotone
  totals: edges scanned, pairs trained, retries), **gauges** (last-value
  samples: final learning rate), and **histograms** (streaming
  count/sum/min/max/sumsq statistics: per-update learning rates, span
  durations), plus a tree of **spans**;
- spans — ``with recorder.span("rwalk"):`` blocks that nest, measure
  wall time on a monotonic clock, carry attributes, and survive
  exceptions (an escaping exception marks the span ``status="error"``
  and re-raises);
- exporters — ``write_metrics`` (one JSON document) and ``write_trace``
  (JSON Lines, one span per line, parent links by id) with a
  ``read_trace`` round-trip helper;
- :class:`NullRecorder` — the ambient default.  Every mutation is a
  no-op and ``span()`` returns a minimal timing-only context, so
  instrumented hot paths cost two clock reads per *phase* (never per
  walk step) when observability is disabled.

Components discover the active recorder ambiently: ``get_recorder()``
returns the installed recorder (a :class:`NullRecorder` unless
``set_recorder`` / ``use_recorder`` installed a real one), so the walk
engine, SGNS trainer, and checkpoint store need no
recorder plumbing through their signatures.  The CLI exposes
``--metrics-out`` / ``--trace-out`` which install a :class:`Recorder`
around the pipeline run and export both files at exit.

See ``docs/observability.md`` for the metric/span catalog and the file
formats.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

__all__ = [
    "Histogram",
    "Span",
    "Recorder",
    "NullRecorder",
    "get_recorder",
    "set_recorder",
    "use_recorder",
    "validate_pipeline_observability",
]


# ---------------------------------------------------------------------------
# Metric primitives
# ---------------------------------------------------------------------------


class Histogram:
    """Streaming summary statistics of an observed value.

    Keeps count/sum/min/max/sum-of-squares so ``mean`` and ``std`` are
    exact without retaining samples; memory is O(1) no matter how many
    observations arrive (per-update learning rates can number in the
    tens of thousands).
    """

    __slots__ = ("count", "total", "min", "max", "sum_sq")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.sum_sq = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.sum_sq += value * value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def std(self) -> float:
        if self.count < 2:
            return 0.0
        var = self.sum_sq / self.count - self.mean ** 2
        return math.sqrt(max(0.0, var))

    def summary(self) -> dict[str, float]:
        """JSON-safe summary of the distribution."""
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "std": self.std,
        }

    def state(self) -> dict[str, float]:
        """Raw mergeable fields — exact, unlike :meth:`summary`'s
        derived ``std`` (which cannot be merged losslessly)."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "sum_sq": self.sum_sq,
        }

    def merge_state(self, state: dict[str, float]) -> None:
        """Fold another histogram's :meth:`state` into this one.

        Exact: count/total/sum-of-squares add, min/max combine, so the
        merged mean/std equal what one histogram observing both streams
        would report.  An empty state is a no-op.
        """
        count = int(state.get("count", 0))
        if count <= 0:
            return
        self.count += count
        self.total += float(state["total"])
        self.sum_sq += float(state["sum_sq"])
        self.min = min(self.min, float(state["min"]))
        self.max = max(self.max, float(state["max"]))


class Span:
    """One timed, attributed node of the trace tree.

    ``start``/``end`` are seconds on the recorder's monotonic clock,
    relative to recorder creation; ``duration`` is available after the
    span closes (``math.nan`` while still open).
    """

    __slots__ = ("span_id", "parent_id", "name", "attrs", "start", "end",
                 "status", "error", "children")

    def __init__(self, span_id: int, parent_id: int | None, name: str,
                 start: float, attrs: dict[str, Any] | None = None) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs: dict[str, Any] = dict(attrs) if attrs else {}
        self.start = start
        self.end: float | None = None
        self.status = "open"
        self.error: str | None = None
        self.children: list["Span"] = []

    @property
    def duration(self) -> float:
        """Wall seconds from open to close (NaN while still open)."""
        if self.end is None:
            return math.nan
        return self.end - self.start

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to this span."""
        self.attrs.update(attrs)

    def to_dict(self) -> dict[str, Any]:
        """Flat JSON-safe representation (one trace line)."""
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration if self.end is not None else None,
            "status": self.status,
            "error": self.error,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span(name={self.name!r}, duration={self.duration:.6f}, "
                f"status={self.status!r})")


class _NullSpan:
    """Timing-only span handed out by :class:`NullRecorder`.

    Measures wall time (so :class:`~repro.tasks.pipeline.PhaseTimings`
    stays populated when observability is off) but records nothing and
    swallows annotations.
    """

    __slots__ = ("start", "end")

    name = "null"
    attrs: dict[str, Any] = {}
    status = "ok"

    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.end: float | None = None

    @property
    def duration(self) -> float:
        if self.end is None:
            return math.nan
        return self.end - self.start

    def annotate(self, **attrs: Any) -> None:
        pass


# ---------------------------------------------------------------------------
# Recorder
# ---------------------------------------------------------------------------


class Recorder:
    """Process-local metrics registry plus span-based tracing.

    ``counter``, ``gauge`` and ``observe`` hold one lock: serving
    client threads update the same metrics concurrently, and an
    unlocked read-add-write loses increments.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._t0 = clock()
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()
        self._roots: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 1

    # -- metrics -------------------------------------------------------
    def counter(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to the monotone counter ``name``."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set the last-value gauge ``name``."""
        with self._lock:
            self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the histogram ``name``."""
        with self._lock:
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram()
            hist.observe(value)

    # -- spans ---------------------------------------------------------
    def _now(self) -> float:
        return self._clock() - self._t0

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a nested span; closes (and times) it on exit.

        An exception escaping the block marks the span
        ``status="error"`` with the exception's repr and re-raises; the
        span stack is popped either way, so tracing can never corrupt
        control flow.
        """
        parent = self._stack[-1] if self._stack else None
        span = Span(
            self._next_id,
            parent.span_id if parent is not None else None,
            name, self._now(), attrs,
        )
        self._next_id += 1
        if parent is not None:
            parent.children.append(span)
        else:
            self._roots.append(span)
        self._stack.append(span)
        try:
            yield span
            span.status = "ok"
        except BaseException as exc:
            span.status = "error"
            span.error = repr(exc)
            raise
        finally:
            span.end = self._now()
            self._stack.pop()

    @property
    def current_span(self) -> Span | None:
        """Innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to the innermost open span (no-op at root)."""
        if self._stack:
            self._stack[-1].annotate(**attrs)

    # -- queries -------------------------------------------------------
    def spans(self, name: str | None = None) -> Iterator[Span]:
        """Depth-first iteration over all spans (optionally by name)."""
        stack = list(reversed(self._roots))
        while stack:
            span = stack.pop()
            if name is None or span.name == name:
                yield span
            stack.extend(reversed(span.children))

    def span_seconds(self, name: str) -> float:
        """Total duration of all *closed* spans named ``name``."""
        return sum(
            s.duration for s in self.spans(name) if s.end is not None
        )

    # -- export --------------------------------------------------------
    def metrics(self) -> dict[str, Any]:
        """All registered metrics as one JSON-safe document."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: hist.summary()
                for name, hist in self.histograms.items()
            },
        }

    def export_state(self) -> dict[str, Any]:
        """All metrics with *mergeable* histogram fields.

        Unlike :meth:`metrics` (whose histogram summaries carry derived
        statistics), the returned document round-trips losslessly
        through :meth:`merge_state` — this is what shard workers ship
        back to the router over the command pipe.
        """
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: hist.state()
                for name, hist in self.histograms.items()
            },
        }

    def merge_state(self, state: dict[str, Any],
                    prefix: str = "") -> None:
        """Fold another recorder's :meth:`export_state` into this one.

        Counters add, gauges take the incoming value (last write wins),
        histograms merge exactly.  ``prefix`` namespaces every incoming
        metric (e.g. ``"serving.shard.workers."``) so aggregated
        worker-process metrics cannot collide with this process's own.
        """
        for name, value in state.get("counters", {}).items():
            self.counter(prefix + name, value)
        for name, value in state.get("gauges", {}).items():
            self.gauge(prefix + name, value)
        for name, hist_state in state.get("histograms", {}).items():
            hist = self.histograms.get(prefix + name)
            if hist is None:
                hist = self.histograms[prefix + name] = Histogram()
            hist.merge_state(hist_state)

    def trace(self) -> list[dict[str, Any]]:
        """Every span as a flat JSON-safe dict, depth-first."""
        return [span.to_dict() for span in self.spans()]

    def write_metrics(self, path: str | os.PathLike) -> None:
        """Write :meth:`metrics` to ``path`` as indented JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.metrics(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def write_trace(self, path: str | os.PathLike) -> None:
        """Write the trace to ``path`` as JSON Lines (one span per line)."""
        with open(path, "w", encoding="utf-8") as handle:
            for row in self.trace():
                handle.write(json.dumps(row, sort_keys=True))
                handle.write("\n")

    @staticmethod
    def read_trace(path: str | os.PathLike) -> list[dict[str, Any]]:
        """Parse a :meth:`write_trace` file back into span dicts."""
        rows = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    rows.append(json.loads(line))
        return rows


class NullRecorder(Recorder):
    """A recorder whose every operation is (nearly) free.

    Metric mutations are no-ops; ``span()`` still measures wall time
    (two clock reads per phase) because phase timings must stay correct
    with observability disabled, but nothing is retained.
    """

    enabled = False

    def __init__(self) -> None:  # skip Recorder state
        self.counters = {}
        self.gauges = {}
        self.histograms = {}

    def counter(self, name: str, value: float = 1.0) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def merge_state(self, state: dict[str, Any],
                    prefix: str = "") -> None:
        pass

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[_NullSpan]:
        span = _NullSpan()
        try:
            yield span
        finally:
            span.end = time.perf_counter()

    @property
    def current_span(self) -> None:
        return None

    def annotate(self, **attrs: Any) -> None:
        pass

    def spans(self, name: str | None = None) -> Iterator[Span]:
        return iter(())

    def span_seconds(self, name: str) -> float:
        return 0.0


# ---------------------------------------------------------------------------
# Ambient recorder
# ---------------------------------------------------------------------------

NULL_RECORDER = NullRecorder()
_ambient: Recorder = NULL_RECORDER


def get_recorder() -> Recorder:
    """The ambient recorder (a shared :class:`NullRecorder` by default)."""
    return _ambient


def set_recorder(recorder: Recorder | None) -> Recorder:
    """Install ``recorder`` ambiently; returns the previous one.

    ``None`` restores the null recorder.
    """
    global _ambient
    previous = _ambient
    _ambient = recorder if recorder is not None else NULL_RECORDER
    return previous


@contextmanager
def use_recorder(recorder: Recorder | None) -> Iterator[Recorder]:
    """Scope ``recorder`` as the ambient recorder; restores on exit."""
    previous = set_recorder(recorder)
    try:
        yield get_recorder()
    finally:
        set_recorder(previous)


# ---------------------------------------------------------------------------
# Emitted-file validation (CI smoke + tests)
# ---------------------------------------------------------------------------

#: Span names one full pipeline run must emit (Table III's phases).
PIPELINE_SPAN_NAMES = ("rwalk", "word2vec", "data_prep", "train", "test")

#: Walk-engine op counters a pipeline run must report nonzero.
PIPELINE_COUNTER_NAMES = ("walk.edges_scanned", "walk.steps",
                          "walk.search_iterations")

_SPAN_REQUIRED_KEYS = ("id", "parent", "name", "start", "end", "duration",
                       "status", "attrs")


def validate_pipeline_observability(
    metrics_path: str | os.PathLike, trace_path: str | os.PathLike
) -> dict[str, Any]:
    """Validate ``--metrics-out`` / ``--trace-out`` files of a pipeline run.

    Checks the documented schema (docs/observability.md): the metrics
    document has counters/gauges/histograms sections with the walk
    engine's op counters nonzero, and the trace is well-formed JSONL
    whose spans cover every pipeline phase, close cleanly, and whose
    parent links resolve.  Raises ``ValueError`` on the first violation;
    returns ``{"metrics": ..., "spans": ...}`` on success so callers can
    assert further.
    """
    with open(metrics_path, "r", encoding="utf-8") as handle:
        metrics = json.load(handle)
    for section in ("counters", "gauges", "histograms"):
        if section not in metrics or not isinstance(metrics[section], dict):
            raise ValueError(f"metrics file lacks a {section!r} mapping")
    for name in PIPELINE_COUNTER_NAMES:
        value = metrics["counters"].get(name, 0)
        if not value > 0:
            raise ValueError(f"counter {name!r} missing or zero ({value})")
    for name, summary in metrics["histograms"].items():
        for key in ("count", "sum", "mean", "min", "max", "std"):
            if key not in summary:
                raise ValueError(f"histogram {name!r} lacks {key!r}")

    spans = Recorder.read_trace(trace_path)
    if not spans:
        raise ValueError("trace file contains no spans")
    ids = set()
    for row in spans:
        for key in _SPAN_REQUIRED_KEYS:
            if key not in row:
                raise ValueError(f"span line lacks {key!r}: {row}")
        if row["status"] not in ("ok", "error"):
            raise ValueError(
                f"span {row['name']!r} did not close (status {row['status']!r})"
            )
        if row["end"] is None or row["duration"] is None or row["duration"] < 0:
            raise ValueError(f"span {row['name']!r} has no valid duration")
        ids.add(row["id"])
    for row in spans:
        if row["parent"] is not None and row["parent"] not in ids:
            raise ValueError(
                f"span {row['name']!r} has dangling parent {row['parent']}"
            )
    names = {row["name"] for row in spans}
    missing = [name for name in PIPELINE_SPAN_NAMES if name not in names]
    if missing:
        raise ValueError(f"trace lacks pipeline phase span(s): {missing}")
    return {"metrics": metrics, "spans": spans}
