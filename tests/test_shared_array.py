"""SharedArray: the serving tier's shared-memory block, and its hygiene.

A publish copies each embedding slice into a named block that shard
workers attach by name.  The creator owns the block: closing it, or
failing halfway through creating it, must leave no ``/dev/shm`` entry
behind.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.errors import ServingError
from repro.serving.shared_array import SharedArray, SharedArraySpec

pytestmark = pytest.mark.shards


def shm_entries() -> set[str]:
    """Names of live POSIX shared-memory segments (this machine's)."""
    shm = Path("/dev/shm")
    if not shm.exists():
        pytest.skip("no /dev/shm on this platform")
    return {entry.name for entry in shm.iterdir()
            if entry.name.startswith("psm_")}


@pytest.mark.parametrize("array", [
    np.arange(24, dtype=np.float64).reshape(4, 6) / 7.0,
    np.arange(10, dtype=np.int32)[::-1],  # non-contiguous input
    np.zeros((0, 8), dtype=np.float32),   # empty slice
], ids=["float64-2d", "int32-strided", "float32-empty"])
def test_round_trip_preserves_shape_dtype_and_bytes(array):
    with SharedArray.create(array) as shared:
        assert shared.spec.shape == array.shape
        assert np.dtype(shared.spec.dtype) == array.dtype
        assert shared.array.tobytes() == np.ascontiguousarray(array).tobytes()


def test_attacher_sees_creator_data():
    matrix = np.random.default_rng(3).standard_normal((5, 4))
    with SharedArray.create(matrix) as shared:
        attached = SharedArray.attach(shared.spec)
        np.testing.assert_array_equal(attached.array, matrix)
        shared.array[0, 0] = 42.0  # same physical pages, not a copy
        assert attached.array[0, 0] == 42.0
        attached.close()


def test_owner_close_unlinks_the_block():
    before = shm_entries()
    shared = SharedArray.create(np.ones(16))
    spec = shared.spec
    assert spec.block_name.lstrip("/") in shm_entries()
    shared.close()
    assert spec.block_name.lstrip("/") not in shm_entries()
    with pytest.raises(FileNotFoundError):
        SharedArray.attach(spec)
    assert shm_entries() <= before


def test_attacher_close_keeps_the_block():
    with SharedArray.create(np.ones(4)) as shared:
        SharedArray.attach(shared.spec).close()
        assert shared.spec.block_name.lstrip("/") in shm_entries()


class _ExplodingArray(SharedArray):
    """Fails after the segment exists and a view of it is mapped."""

    def __init__(self, shm, spec: SharedArraySpec, owner: bool) -> None:
        super().__init__(shm, spec, owner)
        raise RuntimeError("disk fell off")


def test_failed_create_leaves_no_segment():
    before = shm_entries()
    with pytest.raises(RuntimeError, match="disk fell off"):
        _ExplodingArray.create(np.ones((3, 3)))
    assert shm_entries() <= before


def test_object_dtype_rejected():
    before = shm_entries()
    with pytest.raises(ServingError, match="object-dtype"):
        SharedArray.create(np.array([{"a": 1}, None], dtype=object))
    assert shm_entries() <= before
