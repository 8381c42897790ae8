"""Segmented write-ahead edge log with crash-consistent replay.

§VII-B's deployment story assumes edges keep arriving while the
pipeline re-runs; :mod:`repro.serving` made query results durable-ish
(versioned snapshots) and :mod:`repro.checkpoint` made *batch* phase
artifacts durable, but the edge arrivals themselves were still
in-memory only — a crash lost every edge appended since the last full
pipeline run.  :class:`WriteAheadLog` closes that gap: the stream
controller appends each edge batch here *before* applying it to the
in-memory :class:`~repro.graph.dynamic.DynamicTemporalGraph`
(log-ahead ordering), so :func:`replay` can rebuild the acknowledged
edge stream bit-identically after any crash.

On-disk format (all little-endian, no padding)
----------------------------------------------

A log directory holds numbered segments.  The active segment is named
``segment-<n>.open``; rotation (at ``segment_max_bytes``) finalizes it
to ``segment-<n>.wal`` via the same fsync + atomic ``os.replace``
discipline as :mod:`repro.checkpoint`, then opens ``segment-<n+1>.open``.
Rotation only happens on batch boundaries, so a finalized segment always
ends on a commit record; only the single ``.open`` tail segment may be
torn.

Segment header (32 bytes)::

    magic        8s  b"RWALSEG1"
    version      <I  1
    base_edges   <Q  committed edges in all earlier segments
    base_batches <Q  committed batches in all earlier segments
    crc          <I  CRC32 of the preceding 28 bytes

Record (29 bytes, one fixed shape for edges and commits)::

    kind  <B  0 = edge, 1 = commit
    a     <q  edge: src        commit: edges in this batch
    b     <q  edge: dst        commit: committed edges after this batch
    t     <d  edge: timestamp  commit: float(num_nodes of the batch)
    crc   <I  CRC32 of the preceding 25 bytes

Durability contract
-------------------

``append`` writes the batch's edge records, then a commit record, then
(with ``sync=True``) fsyncs — and only then returns.  A batch is
*acknowledged* iff ``append`` returned.  :func:`replay` counts a batch
only when its commit record is intact, and on a torn or corrupt tail in
the final segment it truncates from the first bad byte instead of
failing — so replay yields exactly the acknowledged prefix after a
crash at any point inside ``append`` (this is what the fault-injection
suite asserts, via the ``stream.wal.write`` / ``stream.wal.fsync``
sites).  Corruption in a *finalized* segment is unrecoverable data loss
in the middle of the stream and raises :class:`~repro.errors.StreamError`.
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import StreamError
from repro.faults import FaultPlan
from repro.graph.edges import TemporalEdgeList
from repro.observability import get_recorder

MAGIC = b"RWALSEG1"
VERSION = 1

_HEADER = struct.Struct("<8sIQQ")           # + 4-byte CRC
_RECORD = struct.Struct("<Bqqd")            # + 4-byte CRC
HEADER_SIZE = _HEADER.size + 4              # 32
RECORD_SIZE = _RECORD.size + 4              # 29

_KIND_EDGE = 0
_KIND_COMMIT = 1

#: Default rotation threshold: ~64 KiB keeps recovery-time tests fast
#: while being large enough that rotation is off the per-batch path.
DEFAULT_SEGMENT_MAX_BYTES = 64 * 1024

OPEN_SUFFIX = ".open"
FINAL_SUFFIX = ".wal"


def _pack_record(kind: int, a: int, b: int, t: float) -> bytes:
    body = _RECORD.pack(kind, a, b, t)
    return body + struct.pack("<I", zlib.crc32(body))


def _segment_name(index: int, final: bool) -> str:
    return f"segment-{index:08d}{FINAL_SUFFIX if final else OPEN_SUFFIX}"


def _segment_index(path: Path) -> int:
    stem = path.name.split(".")[0]
    try:
        return int(stem.split("-", 1)[1])
    except (IndexError, ValueError) as exc:
        raise StreamError(f"unrecognized WAL segment name {path.name!r}") from exc


def _fsync_dir(directory: Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _list_segments(wal_dir: Path) -> list[Path]:
    """All segments in ``wal_dir``, ordered by index (any suffix)."""
    segments = [
        path for path in wal_dir.iterdir()
        if path.name.startswith("segment-")
        and path.name.endswith((OPEN_SUFFIX, FINAL_SUFFIX))
    ]
    segments.sort(key=_segment_index)
    indices = [_segment_index(path) for path in segments]
    if indices and indices != list(range(indices[0], indices[0] + len(indices))):
        raise StreamError(
            f"WAL segment sequence has gaps or duplicates: "
            f"{[p.name for p in segments]}"
        )
    return segments


@dataclass
class SegmentScan:
    """What one segment replay pass found."""

    path: Path
    base_edges: int
    base_batches: int
    batches: list[TemporalEdgeList] = field(default_factory=list)
    truncated_bytes: int = 0


@dataclass
class ReplayResult:
    """The committed content of a WAL directory.

    ``batches`` holds one :class:`TemporalEdgeList` per acknowledged
    append, in order; ``truncated_bytes`` counts torn/uncommitted tail
    bytes that were ignored (nonzero only after a crash mid-append).
    """

    batches: list[TemporalEdgeList]
    segments: int
    total_edges: int
    num_nodes: int
    truncated_bytes: int
    seconds: float

    def edge_list(self) -> TemporalEdgeList:
        """All committed edges as one list (empty list when no batches)."""
        if not self.batches:
            return TemporalEdgeList([], [], [], num_nodes=self.num_nodes)
        return TemporalEdgeList.concatenate(self.batches)


def _scan_segment(path: Path, *, final: bool, strict_base: tuple[int, int] | None
                  ) -> SegmentScan:
    """Parse one segment; ``final`` selects strict vs torn-tail handling.

    ``strict_base`` is the (edges, batches) committed total expected by
    the segment sequence; a mismatched header means segments from a
    different log were mixed in.
    """
    data = path.read_bytes()
    if len(data) < HEADER_SIZE:
        if final:
            raise StreamError(f"WAL segment {path.name} has a truncated header")
        return SegmentScan(path, *(strict_base or (0, 0)),
                           truncated_bytes=len(data))
    header, header_crc = data[:_HEADER.size], data[_HEADER.size:HEADER_SIZE]
    magic, version, base_edges, base_batches = _HEADER.unpack(header)
    if magic != MAGIC:
        raise StreamError(f"WAL segment {path.name} has bad magic {magic!r}")
    if version != VERSION:
        raise StreamError(
            f"WAL segment {path.name} has unsupported version {version}"
        )
    if struct.unpack("<I", header_crc)[0] != zlib.crc32(header):
        raise StreamError(f"WAL segment {path.name} has a corrupt header")
    if strict_base is not None and (base_edges, base_batches) != strict_base:
        raise StreamError(
            f"WAL segment {path.name} base ({base_edges} edges, "
            f"{base_batches} batches) does not continue the log at "
            f"{strict_base}"
        )

    scan = SegmentScan(path, base_edges, base_batches)
    committed_edges = base_edges
    pending: list[tuple[int, int, float]] = []
    offset = HEADER_SIZE
    committed_end = offset

    def torn(reason: str) -> SegmentScan:
        if final:
            raise StreamError(
                f"WAL segment {path.name} is corrupt at byte {offset}: "
                f"{reason} (finalized segments must be intact)"
            )
        scan.truncated_bytes = len(data) - committed_end
        return scan

    while offset < len(data):
        if offset + RECORD_SIZE > len(data):
            return torn("partial record")
        body = data[offset:offset + _RECORD.size]
        (crc,) = struct.unpack_from("<I", data, offset + _RECORD.size)
        if crc != zlib.crc32(body):
            return torn("record CRC mismatch")
        kind, a, b, t = _RECORD.unpack(body)
        if kind == _KIND_EDGE:
            pending.append((a, b, t))
        elif kind == _KIND_COMMIT:
            if a != len(pending) or b != committed_edges + len(pending):
                return torn(
                    f"commit record claims {a} batch edges / {b} total, "
                    f"saw {len(pending)} / {committed_edges + len(pending)}"
                )
            scan.batches.append(
                TemporalEdgeList.from_edges(pending, num_nodes=int(t))
            )
            committed_edges += len(pending)
            pending = []
            committed_end = offset + RECORD_SIZE
        else:
            return torn(f"unknown record kind {kind}")
        offset += RECORD_SIZE

    if pending:
        return torn("edge records with no commit")
    return scan


def replay(wal_dir: str | os.PathLike) -> ReplayResult:
    """Rebuild the acknowledged batch stream from a WAL directory.

    Finalized segments must be intact; the tail (``.open``) segment may
    be torn, in which case everything after its last commit record is
    ignored.  An empty or missing directory replays to zero batches.
    """
    start = time.perf_counter()
    wal_dir = Path(wal_dir)
    batches: list[TemporalEdgeList] = []
    truncated = 0
    segments: list[Path] = []
    if wal_dir.exists():
        segments = _list_segments(wal_dir)
    expected = (0, 0)
    for position, path in enumerate(segments):
        final = path.name.endswith(FINAL_SUFFIX)
        if not final and position != len(segments) - 1:
            raise StreamError(
                f"WAL segment {path.name} is still open but not the tail"
            )
        scan = _scan_segment(path, final=final, strict_base=expected)
        batches.extend(scan.batches)
        truncated += scan.truncated_bytes
        expected = (
            scan.base_edges + sum(len(b) for b in scan.batches),
            scan.base_batches + len(scan.batches),
        )
    total_edges = sum(len(b) for b in batches)
    num_nodes = max((b.num_nodes for b in batches), default=0)
    result = ReplayResult(
        batches=batches,
        segments=len(segments),
        total_edges=total_edges,
        num_nodes=num_nodes,
        truncated_bytes=truncated,
        seconds=time.perf_counter() - start,
    )
    rec = get_recorder()
    rec.counter("stream.wal.replays")
    rec.observe("stream.wal.replay_seconds", result.seconds)
    if truncated:
        rec.counter("stream.wal.truncated_bytes", truncated)
    return result


class WriteAheadLog:
    """Appendable, segmented, fsync-on-batch edge log.

    Opening a directory with existing segments *repairs* it first: the
    leftover ``.open`` tail (if any) is truncated back to its last
    commit record and finalized, and appending continues in a fresh
    segment — the log never appends to a file a previous process wrote.

    Not thread-safe by design: exactly one writer (the stream
    controller's drain thread) appends.  ``fault_plan`` wires the
    ``stream.wal.write`` / ``stream.wal.fsync`` injection sites, fired
    with the batch index as the shard.
    """

    def __init__(
        self,
        wal_dir: str | os.PathLike,
        segment_max_bytes: int = DEFAULT_SEGMENT_MAX_BYTES,
        sync: bool = True,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if segment_max_bytes < HEADER_SIZE + 2 * RECORD_SIZE:
            raise StreamError(
                f"segment_max_bytes={segment_max_bytes} cannot hold even "
                f"one record plus its commit"
            )
        self.wal_dir = Path(wal_dir)
        self.segment_max_bytes = int(segment_max_bytes)
        self.sync = bool(sync)
        self._fault_plan = fault_plan or FaultPlan()
        self._handle = None
        self._closed = False
        # Per-batch fault attempt counter: a retried append of the same
        # batch fires its injection sites with attempt=1, 2, ... so a
        # times=1 spec sabotages only the first try.
        self._attempt_batch = -1
        self._attempt = 0
        self.wal_dir.mkdir(parents=True, exist_ok=True)

        self._committed_edges, self._committed_batches, next_index = (
            self._repair_existing()
        )
        self._segment_index = next_index
        self._open_segment()

    # ------------------------------------------------------------------
    @property
    def committed_edges(self) -> int:
        """Edges acknowledged over the log's whole lifetime."""
        return self._committed_edges

    @property
    def committed_batches(self) -> int:
        """Batches acknowledged over the log's whole lifetime."""
        return self._committed_batches

    @property
    def segment_count(self) -> int:
        """Segments on disk, including the active one."""
        return self._segment_index + 1

    # ------------------------------------------------------------------
    def _repair_existing(self) -> tuple[int, int, int]:
        """Truncate + finalize leftover segments; return committed totals.

        Returns ``(committed_edges, committed_batches, next_index)``.
        """
        segments = _list_segments(self.wal_dir)
        edges = batches = 0
        expected = (0, 0)
        next_index = _segment_index(segments[-1]) + 1 if segments else 0
        for position, path in enumerate(segments):
            final = path.name.endswith(FINAL_SUFFIX)
            if not final and position != len(segments) - 1:
                raise StreamError(
                    f"WAL segment {path.name} is still open but not the tail"
                )
            scan = _scan_segment(path, final=final, strict_base=expected)
            seg_edges = sum(len(b) for b in scan.batches)
            edges = scan.base_edges + seg_edges
            batches = scan.base_batches + len(scan.batches)
            expected = (edges, batches)
            if not final:
                committed_size = path.stat().st_size - scan.truncated_bytes
                if committed_size < HEADER_SIZE:
                    # The header itself was torn: the segment committed
                    # nothing, so drop it and reuse its index (keeping
                    # the segment sequence gap-free).
                    os.unlink(path)
                    _fsync_dir(self.wal_dir)
                    next_index = _segment_index(path)
                    continue
                if scan.truncated_bytes:
                    with open(path, "r+b") as handle:
                        handle.truncate(committed_size)
                        handle.flush()
                        os.fsync(handle.fileno())
                self._finalize(path)
        return edges, batches, next_index

    def _finalize(self, open_path: Path) -> None:
        """Atomically rename ``.open`` → ``.wal`` (fsyncing the dir)."""
        final_path = open_path.with_suffix(FINAL_SUFFIX)
        os.replace(open_path, final_path)
        _fsync_dir(self.wal_dir)

    def _open_segment(self) -> None:
        path = self.wal_dir / _segment_name(self._segment_index, final=False)
        header = _HEADER.pack(MAGIC, VERSION, self._committed_edges,
                              self._committed_batches)
        self._handle = open(path, "xb")
        self._handle.write(header + struct.pack("<I", zlib.crc32(header)))
        self._handle.flush()
        if self.sync:
            os.fsync(self._handle.fileno())
        _fsync_dir(self.wal_dir)
        self._segment_path = path
        get_recorder().gauge("stream.wal.segments", self.segment_count)

    def _rotate(self) -> None:
        handle = self._handle
        handle.flush()
        os.fsync(handle.fileno())
        handle.close()
        self._finalize(self._segment_path)
        self._segment_index += 1
        self._open_segment()
        get_recorder().counter("stream.wal.rotations")

    # ------------------------------------------------------------------
    def append(self, edges: TemporalEdgeList) -> int:
        """Durably append one batch; returns the committed batch count.

        The batch is acknowledged — and will be replayed — only once
        this method returns.  On an injected (or real) exception the
        segment is truncated back to its pre-batch state, so a failed
        append never leaves stray records ahead of later commits.
        """
        if self._closed:
            raise StreamError("append on a closed WriteAheadLog")
        if len(edges) == 0:
            raise StreamError("cannot append an empty batch to the WAL")
        batch_index = self._committed_batches
        if batch_index == self._attempt_batch:
            self._attempt += 1
        else:
            self._attempt_batch = batch_index
            self._attempt = 0
        attempt = self._attempt
        handle = self._handle
        start_offset = handle.tell()
        rec = get_recorder()
        try:
            payload = bytearray()
            for src, dst, ts in zip(edges.src, edges.dst, edges.timestamps):
                payload += _pack_record(_KIND_EDGE, int(src), int(dst),
                                        float(ts))
            # Fire mid-write so a crash here leaves a torn segment tail
            # (the case replay must truncate, not reject).
            half = (len(payload) // (2 * RECORD_SIZE)) * RECORD_SIZE
            handle.write(payload[:half])
            handle.flush()
            self._fault_plan.fire("stream.wal.write", shard=batch_index,
                                  attempt=attempt)
            handle.write(payload[half:])
            handle.flush()
            # Fire between the records and the commit+fsync: a crash
            # here loses exactly this unacknowledged batch on replay.
            self._fault_plan.fire("stream.wal.fsync", shard=batch_index,
                                  attempt=attempt)
            commit = _pack_record(
                _KIND_COMMIT,
                len(edges),
                self._committed_edges + len(edges),
                float(edges.num_nodes),
            )
            handle.write(commit)
            handle.flush()
            if self.sync:
                fsync_start = time.perf_counter()
                os.fsync(handle.fileno())
                rec.observe("stream.wal.fsync_seconds",
                            time.perf_counter() - fsync_start)
        except Exception:
            # Roll the segment back so a retried or later append starts
            # from the last commit, keeping the record stream parseable.
            handle.seek(start_offset)
            handle.truncate(start_offset)
            handle.flush()
            raise
        self._committed_edges += len(edges)
        self._committed_batches += 1
        written = len(payload) + RECORD_SIZE
        rec.counter("stream.wal.batches")
        rec.counter("stream.wal.records", len(edges))
        rec.counter("stream.wal.bytes", written)
        if handle.tell() >= self.segment_max_bytes:
            self._rotate()
        return self._committed_batches

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush, fsync, and finalize the active segment."""
        if self._closed:
            return
        self._closed = True
        handle = self._handle
        handle.flush()
        os.fsync(handle.fileno())
        empty = handle.tell() <= HEADER_SIZE
        handle.close()
        if empty:
            # An untouched tail segment carries no data; drop it rather
            # than finalizing an edge-less file.
            os.unlink(self._segment_path)
            _fsync_dir(self.wal_dir)
        else:
            self._finalize(self._segment_path)

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"WriteAheadLog(dir={str(self.wal_dir)!r}, "
                f"batches={self._committed_batches}, "
                f"edges={self._committed_edges}, "
                f"segments={self.segment_count})")
