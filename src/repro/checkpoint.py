"""Atomic phase checkpointing for resumable pipeline runs.

A long pipeline run should survive its process: every phase artifact is
persisted as it completes, so a crashed or interrupted run restarts
from the last finished phase instead of from scratch.  The store keeps
one directory per *run identity* — the triple (configuration
fingerprint, dataset fingerprint, initial RNG state) — so a resume can
never silently splice artifacts from a different experiment: a dataset
sweep sharing one ``--checkpoint-dir`` gets one run directory per edge
list, and opening an existing run with a mismatched config or dataset
fingerprint raises :class:`CheckpointError` instead of serving stale
artifacts:

``<checkpoint_dir>/<key>/``
    ``manifest.json``    — run metadata plus one entry per completed
    phase: artifact file name, SHA-256, and the RNG snapshot taken
    *after* the phase ran.
    ``walks.npz``        — walk corpus + :class:`WalkStats`.
    ``embeddings.npz``   — embedding matrix + :class:`TrainerStats`.
    ``task-<name>.pkl``  — the downstream :class:`TaskResult` (model,
    scaler, history, metrics).

Atomicity: every artifact and every manifest revision is written to a
temp file in the same directory, fsynced, and ``os.replace``d into
place — a reader never observes a half-written file, and a writer dying
mid-checkpoint leaves the previous state intact.  Artifacts are hashed
on write and verified on read, so a corrupted checkpoint raises
:class:`CheckpointError` instead of poisoning a resumed run.

Determinism across resume: phase boundaries also snapshot the driving
``numpy`` Generator (bit-generator state *and* ``SeedSequence`` spawn
count).  Restoring the snapshot puts a resumed run in exactly the state
the uninterrupted run had at that boundary, which is what makes
"resume after phase N" produce bit-identical downstream artifacts and
final metrics.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import pickle
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Mapping

try:  # advisory manifest locking (POSIX only; see _manifest_lock)
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

import numpy as np

from repro.embedding.embeddings import NodeEmbeddings
from repro.embedding.trainer import TrainerStats
from repro.errors import CheckpointError
from repro.observability import get_recorder
from repro.nn.module import Module
from repro.graph.edges import TemporalEdgeList
from repro.walk.corpus import WalkCorpus
from repro.walk.engine import WalkStats

if TYPE_CHECKING:  # imported lazily at runtime (tasks imports pipeline
    # imports this module, so a top-level import would be circular)
    from repro.tasks.splits import EdgeSplits, NodeSplits

MANIFEST_NAME = "manifest.json"
_WALK_COUNTERS = (
    "num_walks", "total_steps", "candidates_scanned",
    "search_iterations", "terminated_early",
    "exp_evaluations", "cdf_search_iterations",
)
_TRAINER_COUNTERS = (
    "pairs_trained", "sentences", "updates", "fp_ops", "negatives_drawn",
    "mean_loss", "wall_seconds",
)

# ---------------------------------------------------------------------------
# RNG snapshots
# ---------------------------------------------------------------------------


def _json_safe(value: Any) -> Any:
    """Recursively convert numpy containers/scalars to JSON-native types.

    ``bit_generator.state`` is only plain ints for PCG64; MT19937 keys
    are a uint32 ndarray and Philox carries uint64 arrays and scalars,
    none of which ``json.dumps`` accepts.  Every supported bit
    generator's state setter accepts the list/int form back verbatim,
    so the conversion is lossless.
    """
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, Mapping):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


def rng_snapshot(rng: np.random.Generator) -> dict:
    """JSON-serializable snapshot of a Generator's full restart state.

    ``bit_generator.state`` alone is not enough: child seeds derived via
    ``SeedSequence.spawn`` advance a counter that lives on the seed
    sequence, not the bit generator.  The snapshot captures both so
    :func:`rng_restore` reproduces future draws *and* future spawns
    exactly.
    """
    bg = rng.bit_generator
    try:
        ss = bg.seed_seq
    except AttributeError as exc:  # pragma: no cover - exotic generators
        raise CheckpointError(
            f"cannot snapshot {type(bg).__name__}: no seed sequence"
        ) from exc
    if not isinstance(ss, np.random.SeedSequence):
        raise CheckpointError(
            f"cannot snapshot seed sequence of type {type(ss).__name__}"
        )
    snapshot = {
        "bit_generator": type(bg).__name__,
        "state": _json_safe(bg.state),
        "seed_seq": {
            "entropy": _json_safe(ss.entropy),
            "spawn_key": list(ss.spawn_key),
            "pool_size": ss.pool_size,
            "n_children_spawned": ss.n_children_spawned,
        },
    }
    try:
        json.dumps(snapshot)
    except TypeError as exc:
        raise CheckpointError(
            f"cannot snapshot {type(bg).__name__}: state is not "
            f"JSON-serializable ({exc})"
        ) from exc
    return snapshot


def rng_restore(snapshot: Mapping[str, Any]) -> np.random.Generator:
    """Rebuild a Generator from :func:`rng_snapshot` output."""
    try:
        bg_cls = getattr(np.random, snapshot["bit_generator"])
        ss_data = snapshot["seed_seq"]
        seed_seq = np.random.SeedSequence(
            entropy=ss_data["entropy"],
            spawn_key=tuple(ss_data["spawn_key"]),
            pool_size=ss_data["pool_size"],
            n_children_spawned=ss_data["n_children_spawned"],
        )
        bit_generator = bg_cls(seed_seq)
        bit_generator.state = snapshot["state"]
    except (KeyError, AttributeError, TypeError, ValueError) as exc:
        raise CheckpointError(f"invalid rng snapshot: {exc}") from exc
    return np.random.Generator(bit_generator)


# ---------------------------------------------------------------------------
# Fingerprints and atomic file primitives
# ---------------------------------------------------------------------------

#: PipelineConfig fields that cannot change results and therefore must
#: not change the run key: where checkpoints live, whether we resume,
#: and any injected fault plan.
NON_SEMANTIC_FIELDS = ("checkpoint_dir", "resume", "faults")


def config_fingerprint(config: Any) -> str:
    """Stable hash of a (nested) dataclass config's semantic fields."""
    if dataclasses.is_dataclass(config):
        data = dataclasses.asdict(config)
    elif isinstance(config, Mapping):
        data = dict(config)
    else:
        raise CheckpointError(
            f"cannot fingerprint config of type {type(config).__name__}"
        )
    for name in NON_SEMANTIC_FIELDS:
        data.pop(name, None)
    blob = json.dumps(data, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def dataset_fingerprint(edges: TemporalEdgeList) -> str:
    """Stable hash of an edge list's contents (src, dst, ts, num_nodes).

    Part of the run identity: two runs over different graphs must never
    share a checkpoint directory, even with identical config and seed.
    """
    digest = hashlib.sha256()
    digest.update(np.int64(edges.num_nodes).tobytes())
    for column in (edges.src, edges.dst, edges.timestamps):
        digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()


def _resolve_dataset_fingerprint(dataset: "TemporalEdgeList | str | None"
                                 ) -> str | None:
    """Accept an edge list or a precomputed fingerprint string."""
    if dataset is None:
        return None
    if isinstance(dataset, str):
        return dataset
    return dataset_fingerprint(dataset)


def run_key(config: Any, rng: np.random.Generator,
            dataset: "TemporalEdgeList | str | None" = None) -> str:
    """Checkpoint directory key: config x dataset x initial RNG state.

    ``dataset`` is the input edge list (or its precomputed
    :func:`dataset_fingerprint`); omitting it keys on config and seed
    alone, which is only safe when a checkpoint root is never shared
    across datasets.
    """
    seed_blob = json.dumps(rng_snapshot(rng), sort_keys=True)
    digest = hashlib.sha256()
    digest.update(config_fingerprint(config).encode("utf-8"))
    data_fp = _resolve_dataset_fingerprint(dataset)
    if data_fp is not None:
        digest.update(data_fp.encode("utf-8"))
    digest.update(seed_blob.encode("utf-8"))
    return digest.hexdigest()[:16]


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write so ``path`` is either the old content or all of ``data``."""
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


class CheckpointStore:
    """Atomic, hash-verified artifact store for one pipeline run."""

    #: Meta fields that define the run identity; opening an existing run
    #: directory with a different value for any of them is an error, not
    #: a silent artifact reuse.
    IDENTITY_FIELDS = ("config_fingerprint", "dataset_fingerprint")

    def __init__(self, root: str | os.PathLike, key: str,
                 meta: Mapping[str, Any] | None = None) -> None:
        self.root = Path(root)
        self.key = key
        self.run_dir = self.root / key
        self.run_dir.mkdir(parents=True, exist_ok=True)
        with self._manifest_lock():
            if not (self.run_dir / MANIFEST_NAME).exists():
                self._write_manifest({
                    "version": 1,
                    "key": key,
                    "meta": dict(meta or {}),
                    "phases": {},
                })
                return
        stored = self.manifest().get("meta", {})
        for name in self.IDENTITY_FIELDS:
            mine = (meta or {}).get(name)
            theirs = stored.get(name)
            if mine is not None and theirs is not None and mine != theirs:
                raise CheckpointError(
                    f"checkpoint {self.run_dir} belongs to a different run: "
                    f"{name} mismatch (stored {theirs[:12]}..., "
                    f"current {mine[:12]}...); it will not be resumed"
                )

    @classmethod
    def open(cls, root: str | os.PathLike, config: Any,
             rng: np.random.Generator,
             dataset: "TemporalEdgeList | str | None" = None
             ) -> "CheckpointStore":
        """Open (creating if needed) the store for (config, dataset, rng).

        ``dataset`` — the input edge list or its precomputed
        :func:`dataset_fingerprint` — is part of the run identity: it is
        folded into the directory key *and* verified against the stored
        manifest, so a resume against a different graph raises
        :class:`CheckpointError` rather than loading foreign artifacts.
        """
        meta = {
            "config_fingerprint": config_fingerprint(config),
            "initial_rng": rng_snapshot(rng),
        }
        data_fp = _resolve_dataset_fingerprint(dataset)
        if data_fp is not None:
            meta["dataset_fingerprint"] = data_fp
        return cls(root, run_key(config, rng, dataset=data_fp), meta=meta)

    # -- manifest ------------------------------------------------------
    @contextmanager
    def _manifest_lock(self) -> Iterator[None]:
        """Advisory inter-process lock for manifest read-modify-writes.

        Each manifest *write* is atomic (temp file + ``os.replace``) but
        an update is read-modify-write: two concurrent processes sharing
        one run directory could each read the same manifest and silently
        drop the other's phase entry.  An ``fcntl.flock`` on a lockfile
        in the run directory serializes updates; on platforms without
        ``fcntl`` this degrades to no locking (single-process use only).
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        with open(self.run_dir / ".manifest.lock", "a+b") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def manifest(self) -> dict:
        """Load the manifest (raises :class:`CheckpointError` if bad)."""
        path = self.run_dir / MANIFEST_NAME
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except FileNotFoundError as exc:
            raise CheckpointError(f"no manifest at {path}") from exc
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"corrupt manifest at {path}: {exc}") from exc

    def _write_manifest(self, manifest: Mapping[str, Any]) -> None:
        _atomic_write_bytes(
            self.run_dir / MANIFEST_NAME,
            json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8"),
        )

    def _record_phase(self, phase: str, entry: Mapping[str, Any]) -> None:
        with self._manifest_lock():
            manifest = self.manifest()
            manifest["phases"][phase] = dict(entry)
            self._write_manifest(manifest)

    # -- phase queries -------------------------------------------------
    def phases(self) -> dict[str, str]:
        """Phase name -> status for every recorded phase."""
        return {
            name: entry.get("status", "unknown")
            for name, entry in self.manifest()["phases"].items()
        }

    def has(self, phase: str) -> bool:
        """True when ``phase`` completed and its artifact file exists."""
        entry = self.manifest()["phases"].get(phase)
        if entry is None or entry.get("status") != "complete":
            return False
        return (self.run_dir / entry["file"]).exists()

    def invalidate(self, phase: str) -> None:
        """Drop one phase's artifact + manifest entry (for forced recompute)."""
        with self._manifest_lock():
            manifest = self.manifest()
            entry = manifest["phases"].pop(phase, None)
            self._write_manifest(manifest)
        if entry is not None:
            try:
                os.remove(self.run_dir / entry["file"])
            except OSError:
                pass

    # -- generic payloads ----------------------------------------------
    def _save_payload(self, phase: str, filename: str, data: bytes,
                      extra: Mapping[str, Any] | None,
                      rng: np.random.Generator | None) -> None:
        rec = get_recorder()
        with rec.span("checkpoint.save", phase=phase, bytes=len(data)):
            _atomic_write_bytes(self.run_dir / filename, data)
            entry: dict[str, Any] = {
                "file": filename,
                "sha256": _sha256(data),
                "bytes": len(data),
                "status": "complete",
            }
            if extra:
                entry["extra"] = dict(extra)
            if rng is not None:
                entry["rng"] = rng_snapshot(rng)
            self._record_phase(phase, entry)
        rec.counter("checkpoint.saves")
        rec.counter("checkpoint.bytes_written", len(data))

    def _load_payload(self, phase: str) -> tuple[bytes, dict]:
        rec = get_recorder()
        with rec.span("checkpoint.load", phase=phase):
            entry = self.manifest()["phases"].get(phase)
            if entry is None or entry.get("status") != "complete":
                raise CheckpointError(
                    f"phase {phase!r} is not checkpointed in {self.run_dir}"
                )
            path = self.run_dir / entry["file"]
            try:
                data = path.read_bytes()
            except OSError as exc:
                raise CheckpointError(
                    f"cannot read artifact for phase {phase!r}: {exc}"
                ) from exc
            if _sha256(data) != entry["sha256"]:
                raise CheckpointError(
                    f"artifact for phase {phase!r} failed integrity check "
                    f"({path}); delete the run directory and re-run"
                )
        rec.counter("checkpoint.loads")
        rec.counter("checkpoint.bytes_read", len(data))
        return data, entry

    def save_arrays(self, phase: str, arrays: Mapping[str, np.ndarray],
                    extra: Mapping[str, Any] | None = None,
                    rng: np.random.Generator | None = None) -> None:
        """Checkpoint named arrays (npz) atomically under ``phase``."""
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **dict(arrays))
        self._save_payload(phase, f"{phase}.npz", buffer.getvalue(), extra, rng)

    def load_arrays(self, phase: str) -> tuple[dict[str, np.ndarray], dict]:
        """Load a :meth:`save_arrays` checkpoint -> (arrays, manifest entry)."""
        data, entry = self._load_payload(phase)
        try:
            with np.load(io.BytesIO(data)) as bundle:
                arrays = {name: bundle[name] for name in bundle.files}
        except Exception as exc:
            raise CheckpointError(
                f"artifact for phase {phase!r} is not a readable npz: {exc}"
            ) from exc
        return arrays, entry

    def save_pickle(self, phase: str, obj: Any,
                    extra: Mapping[str, Any] | None = None,
                    rng: np.random.Generator | None = None) -> None:
        """Checkpoint an arbitrary picklable object under ``phase``."""
        data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        self._save_payload(phase, f"{phase}.pkl", data, extra, rng)

    def load_pickle(self, phase: str) -> tuple[Any, dict]:
        """Load a :meth:`save_pickle` checkpoint -> (object, manifest entry)."""
        data, entry = self._load_payload(phase)
        try:
            return pickle.loads(data), entry
        except Exception as exc:
            raise CheckpointError(
                f"artifact for phase {phase!r} failed to unpickle: {exc}"
            ) from exc

    def load_rng(self, phase: str) -> np.random.Generator:
        """The Generator state recorded when ``phase`` completed."""
        entry = self.manifest()["phases"].get(phase)
        if entry is None or "rng" not in entry:
            raise CheckpointError(f"phase {phase!r} has no rng snapshot")
        return rng_restore(entry["rng"])

    # -- typed phase artifacts -----------------------------------------
    def save_walks(self, corpus: WalkCorpus, stats: WalkStats,
                   rng: np.random.Generator | None = None,
                   phase: str = "walks") -> None:
        """Persist the phase-1 artifact: corpus matrix + work counters."""
        self.save_arrays(
            phase,
            {
                "matrix": corpus.matrix,
                "lengths": corpus.lengths,
                "start_nodes": corpus.start_nodes,
                "work_per_start_node": stats.work_per_start_node,
            },
            extra={name: int(getattr(stats, name)) for name in _WALK_COUNTERS},
            rng=rng,
        )

    def load_walks(self, phase: str = "walks"
                   ) -> tuple[WalkCorpus, WalkStats]:
        """Load the phase-1 artifact back into live objects."""
        arrays, entry = self.load_arrays(phase)
        try:
            corpus = WalkCorpus(
                arrays["matrix"], arrays["lengths"],
                start_nodes=arrays["start_nodes"],
            )
            counters = entry["extra"]
            # .get tolerates checkpoints written before a counter existed.
            stats = WalkStats(
                work_per_start_node=arrays["work_per_start_node"],
                **{name: int(counters.get(name, 0))
                   for name in _WALK_COUNTERS},
            )
        except KeyError as exc:
            raise CheckpointError(
                f"walks checkpoint is missing field {exc}"
            ) from exc
        return corpus, stats

    def save_embeddings(self, embeddings: NodeEmbeddings,
                        stats: TrainerStats,
                        rng: np.random.Generator | None = None,
                        phase: str = "embeddings") -> None:
        """Persist the phase-2 artifact: embedding matrix + loss trace."""
        self.save_arrays(
            phase,
            {
                "matrix": embeddings.matrix,
                "losses": np.asarray(stats.losses, dtype=np.float64),
            },
            extra={name: getattr(stats, name) for name in _TRAINER_COUNTERS},
            rng=rng,
        )

    def load_embeddings(self, phase: str = "embeddings"
                        ) -> tuple[NodeEmbeddings, TrainerStats]:
        """Load the phase-2 artifact back into live objects."""
        arrays, entry = self.load_arrays(phase)
        try:
            embeddings = NodeEmbeddings(arrays["matrix"])
            counters = entry["extra"]
            stats = TrainerStats(
                pairs_trained=int(counters["pairs_trained"]),
                sentences=int(counters["sentences"]),
                updates=int(counters["updates"]),
                fp_ops=int(counters["fp_ops"]),
                # Absent from artifacts written before the field existed.
                negatives_drawn=int(counters.get("negatives_drawn", 0)),
                mean_loss=float(counters["mean_loss"]),
                wall_seconds=float(counters["wall_seconds"]),
                losses=[float(v) for v in arrays["losses"]],
            )
        except KeyError as exc:
            raise CheckpointError(
                f"embeddings checkpoint is missing field {exc}"
            ) from exc
        return embeddings, stats

    def save_splits(self, splits: "EdgeSplits | NodeSplits",
                    phase: str = "splits",
                    rng: np.random.Generator | None = None) -> None:
        """Persist split indices (edge or node partitions)."""
        from repro.tasks.splits import EdgeSplits, NodeSplits

        if isinstance(splits, EdgeSplits):
            arrays: dict[str, np.ndarray] = {}
            num_nodes = 0
            for part in ("train", "valid", "test"):
                edges: TemporalEdgeList = getattr(splits, part)
                arrays[f"{part}_src"] = edges.src
                arrays[f"{part}_dst"] = edges.dst
                arrays[f"{part}_ts"] = edges.timestamps
                num_nodes = max(num_nodes, edges.num_nodes)
            self.save_arrays(phase, arrays,
                             extra={"kind": "edge", "num_nodes": num_nodes},
                             rng=rng)
        elif isinstance(splits, NodeSplits):
            self.save_arrays(
                phase,
                {part: getattr(splits, part)
                 for part in ("train", "valid", "test")},
                extra={"kind": "node"}, rng=rng,
            )
        else:
            raise CheckpointError(
                f"cannot checkpoint splits of type {type(splits).__name__}"
            )

    def load_splits(self, phase: str = "splits") -> "EdgeSplits | NodeSplits":
        """Load split indices saved by :meth:`save_splits`."""
        from repro.tasks.splits import EdgeSplits, NodeSplits

        arrays, entry = self.load_arrays(phase)
        kind = entry.get("extra", {}).get("kind")
        if kind == "edge":
            num_nodes = int(entry["extra"]["num_nodes"])
            parts = {
                part: TemporalEdgeList(
                    arrays[f"{part}_src"], arrays[f"{part}_dst"],
                    arrays[f"{part}_ts"], num_nodes=num_nodes,
                )
                for part in ("train", "valid", "test")
            }
            return EdgeSplits(**parts)
        if kind == "node":
            return NodeSplits(train=arrays["train"], valid=arrays["valid"],
                              test=arrays["test"])
        raise CheckpointError(f"unknown splits kind {kind!r} in {phase!r}")

    def save_classifier(self, model: Module, phase: str = "classifier",
                        rng: np.random.Generator | None = None) -> None:
        """Persist a classifier's parameter arrays (architecture-free)."""
        params = model.parameters()
        self.save_arrays(
            phase,
            {f"param_{i}": p.data for i, p in enumerate(params)},
            extra={
                "num_params": len(params),
                "names": [p.name for p in params],
            },
            rng=rng,
        )

    def load_classifier_into(self, model: Module,
                             phase: str = "classifier") -> Module:
        """Load saved parameters into an architecture-matching model."""
        arrays, entry = self.load_arrays(phase)
        params = model.parameters()
        saved = int(entry.get("extra", {}).get("num_params", len(arrays)))
        if saved != len(params):
            raise CheckpointError(
                f"classifier checkpoint has {saved} parameters, "
                f"model has {len(params)}"
            )
        for i, param in enumerate(params):
            data = arrays[f"param_{i}"]
            if data.shape != param.data.shape:
                raise CheckpointError(
                    f"classifier parameter {i} shape mismatch: "
                    f"checkpoint {data.shape} vs model {param.data.shape}"
                )
            param.data[...] = data
        return model
