"""One numpy array in a ``multiprocessing.shared_memory`` block.

Each :class:`~repro.serving.sharding.ShardedPublisher` publish copies
one embedding slice per shard into a named block, ships the tiny
picklable :class:`SharedArraySpec` over the worker's command pipe, and
the worker maps the same physical pages instead of unpickling megabytes
through the pipe.

The creator owns the block and unlinks it on :meth:`SharedArray.close`;
attachers only drop their mapping.  The intended publish lifecycle is
create → send spec → worker attaches, copies, closes, acks → creator
closes (unlinks).
"""

from __future__ import annotations

import multiprocessing as mp
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.errors import ServingError


def _mp_context() -> mp.context.BaseContext:
    """Prefer fork (cheap, Linux); fall back to spawn elsewhere."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


@dataclass(frozen=True)
class SharedArraySpec:
    """Picklable description of a shared array (name + shape + dtype)."""

    block_name: str
    shape: tuple[int, ...]
    dtype: str


class SharedArray:
    """One ndarray in a shared-memory block (creator or attacher side)."""

    def __init__(self, shm: shared_memory.SharedMemory,
                 spec: SharedArraySpec, owner: bool) -> None:
        self._shm = shm
        self.spec = spec
        self._owner = owner
        self.array = np.ndarray(
            spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf
        )

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, array: np.ndarray) -> "SharedArray":
        """Creator side: copy ``array`` into a fresh shared block.

        A failed construction closes *and unlinks* the segment before
        the exception propagates, so no ``/dev/shm`` entry can leak from
        this path.
        """
        array = np.ascontiguousarray(array)
        if array.dtype.hasobject:
            raise ServingError(
                f"cannot share object-dtype array (dtype {array.dtype})"
            )
        shm = shared_memory.SharedMemory(
            create=True, size=max(1, array.nbytes)
        )
        shared = None
        try:
            spec = SharedArraySpec(shm.name, tuple(array.shape),
                                   array.dtype.str)
            shared = cls(shm, spec, owner=True)
            shared.array[...] = array
        except BaseException:
            if shared is not None:
                shared.array = None  # release the view so close() can unmap
            try:
                shm.close()
            except BufferError:
                pass
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
            raise
        return shared

    @classmethod
    def attach(cls, spec: SharedArraySpec) -> "SharedArray":
        """Attacher side: map an existing block by name."""
        shm = shared_memory.SharedMemory(name=spec.block_name)
        # bpo-39959: under spawn each worker runs its own resource
        # tracker which would unlink the creator's block at worker exit,
        # so deregister; under fork the tracker is shared and
        # deregistering would break the creator's cleanup.
        if "fork" not in mp.get_all_start_methods():
            try:
                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:
                pass
        return cls(shm, spec, owner=False)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop this process's mapping; the owner also unlinks the block."""
        self.array = None
        try:
            self._shm.close()
        except BufferError:
            # A caller still holds a view (error-path cleanup); the
            # mapping is reclaimed at process exit instead.
            pass
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass

    def __enter__(self) -> "SharedArray":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
