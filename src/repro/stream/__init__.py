"""Durable streaming ingest: WAL, bounded queue, refresh controller.

This package closes the ingest half of §VII-B's deployment loop that
:mod:`repro.serving` (queries) and :mod:`repro.checkpoint` (batch
artifacts) left open — edge arrivals themselves were in-memory and
ephemeral, so a crash lost every edge appended since the last full
pipeline run, and nothing decided *when* accumulating edges justified
an embedding refresh:

- :class:`WriteAheadLog` / :func:`replay` — segmented, CRC-checked,
  fsync-on-batch edge log with torn-tail-truncating crash recovery;
- :class:`IngestQueue` — edge-bounded producer/consumer queue with
  ``block`` / ``drop_oldest`` / ``reject`` backpressure plus an
  optional token-bucket rate limiter;
- :class:`StreamController` — the drain thread enforcing log-ahead
  ordering (WAL append before graph apply) and triggering
  :class:`~repro.tasks.incremental.IncrementalEmbedder` refreshes via
  pluggable policies (:class:`EveryNEdges`, :class:`MaxStaleness`,
  :class:`AffectedFraction`);
- ``StreamController.recover`` — rebuilds graph + generation markers
  from the log at startup.

See ``docs/streaming.md`` for the WAL format, the backpressure/refresh
policy trade-offs, and the ``stream.*`` metric catalog; the ``repro
stream-sim`` / ``pipeline-sim`` / ``serve-sim --update-batches`` CLI
presets wire the full topology, and ``bench_stream_ingest`` measures
it.
"""

from repro.stream.controller import ControllerStats, StreamController
from repro.stream.policies import (
    AffectedFraction,
    EveryNEdges,
    MaxStaleness,
    PendingState,
    RefreshPolicy,
)
from repro.stream.queue import IngestQueue, TokenBucket
from repro.stream.wal import ReplayResult, WriteAheadLog, replay

__all__ = [
    "AffectedFraction",
    "ControllerStats",
    "EveryNEdges",
    "IngestQueue",
    "MaxStaleness",
    "PendingState",
    "RefreshPolicy",
    "ReplayResult",
    "StreamController",
    "TokenBucket",
    "WriteAheadLog",
    "replay",
]
