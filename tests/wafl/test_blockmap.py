"""Unit tests for the 32-bit-plane block map."""

import numpy as np
import pytest

from repro.errors import FilesystemError, NoSpaceError
from repro.wafl.blockmap import BlockMap
from tests.conftest import map_words


def test_fresh_map_all_free():
    blockmap = BlockMap(1000, reserved=8)
    assert blockmap.free_blocks() == 992
    assert blockmap.active_block_count() == 0


def test_allocation_sets_active_bit():
    blockmap = BlockMap(1000, reserved=8)
    start, count = blockmap.allocate_run(10, cursor=8)
    assert count == 10
    words = map_words(blockmap)
    for block in range(start, start + count):
        assert int(words[block]) & 1


def test_allocation_respects_reserved_area():
    blockmap = BlockMap(1000, reserved=8)
    start, _count = blockmap.allocate_run(5, cursor=0)
    assert start >= 8


def test_allocation_wraps_at_end():
    blockmap = BlockMap(100, reserved=8)
    blockmap.allocate_run(92, cursor=8, allow_reserve=True)  # fill everything
    blockmap.free_active(50)
    start, count = blockmap.allocate_run(1, cursor=99, allow_reserve=True)
    assert (start, count) == (50, 1)


def test_allocation_returns_partial_run():
    blockmap = BlockMap(100, reserved=8)
    blockmap.allocate_run(92, cursor=8, allow_reserve=True)
    blockmap.free_active(20)
    blockmap.free_active(21)
    start, count = blockmap.allocate_run(10, cursor=8, allow_reserve=True)
    assert (start, count) == (20, 2)


def test_full_map_raises():
    blockmap = BlockMap(100, reserved=8)
    blockmap.allocate_run(92, cursor=8, allow_reserve=True)
    with pytest.raises(NoSpaceError):
        blockmap.allocate_run(1, cursor=8, allow_reserve=True)


def test_cp_reserve_guards_ordinary_allocations():
    blockmap = BlockMap(100, reserved=8)
    # Fill down to (but not into) the consistency-point reserve.
    while blockmap.free_blocks() > blockmap.cp_reserve:
        blockmap.allocate_run(1, cursor=8)
    with pytest.raises(NoSpaceError):
        blockmap.allocate_run(1, cursor=8)
    # A consistency point may still allocate.
    start, count = blockmap.allocate_run(1, cursor=8, allow_reserve=True)
    assert count == 1


def test_double_free_rejected():
    blockmap = BlockMap(100, reserved=8)
    start, _count = blockmap.allocate_run(1, cursor=8)
    blockmap.free_active(start)
    with pytest.raises(FilesystemError):
        blockmap.free_active(start)


def test_free_extent_merging():
    blockmap = BlockMap(100, reserved=8)
    blockmap.allocate_run(10, cursor=8)
    for block in (10, 12, 11):  # free out of order; must merge
        blockmap.free_active(block)
    start, count = blockmap.allocate_run(3, cursor=8)
    assert (start, count) == (10, 3)


def test_deferred_reuse_blocks_allocation_until_commit():
    blockmap = BlockMap(100, reserved=8)
    blockmap.allocate_run(92, cursor=8, allow_reserve=True)
    blockmap.free_active(30, defer_reuse=True)
    assert int(map_words(blockmap)[30]) == 0  # bit cleared immediately
    with pytest.raises(NoSpaceError):
        blockmap.allocate_run(1, cursor=8, allow_reserve=True)
    committed = blockmap.commit_deferred_reuse()
    assert committed == 1
    start, _count = blockmap.allocate_run(1, cursor=8, allow_reserve=True)
    assert start == 30


def test_snapshot_pins_blocks():
    blockmap = BlockMap(100, reserved=8)
    start, _ = blockmap.allocate_run(5, cursor=8)
    blockmap.snapshot_create(3)
    blockmap.free_active(start)
    # The block stays unavailable: plane 3 still holds it.
    assert int(map_words(blockmap)[start]) == (1 << 3)
    assert start not in [int(b) for b in blockmap.plane_blocks(0)]
    freed = blockmap.snapshot_delete(3)
    assert freed == 1  # only the freed block returns; others still active
    new_start, _ = blockmap.allocate_run(1, cursor=start)
    assert new_start == start


def test_plane_difference_semantics():
    blockmap = BlockMap(100, reserved=8)
    first, _ = blockmap.allocate_run(4, cursor=8)
    blockmap.snapshot_create(1)  # plane A
    second, _ = blockmap.allocate_run(4, cursor=8)
    blockmap.snapshot_create(2)  # plane B
    diff = blockmap.plane_difference(2, 1)
    assert list(diff) == list(range(second, second + 4))


def test_plane_validation():
    blockmap = BlockMap(100, reserved=8)
    with pytest.raises(FilesystemError):
        blockmap.snapshot_create(0)  # the active plane
    with pytest.raises(FilesystemError):
        blockmap.snapshot_create(32)


def test_serialize_deserialize_roundtrip():
    blockmap = BlockMap(3000, reserved=8)
    blockmap.allocate_run(100, cursor=8)
    blockmap.snapshot_create(5)
    raw = b"".join(
        blockmap.serialize_fblock(f) for f in range(blockmap.n_fblocks())
    )
    recovered = BlockMap.deserialize(3000, 8, [(0, raw)])
    assert np.array_equal(map_words(recovered), map_words(blockmap))
    assert recovered.free_blocks() == blockmap.free_blocks()


def test_dirty_tracking():
    blockmap = BlockMap(3000, reserved=8)
    blockmap.dirty_fblocks.clear()
    start, _count = blockmap.allocate_run(1, cursor=2048)
    assert start // 1024 in blockmap.dirty_fblocks


def test_plane_in_use():
    blockmap = BlockMap(100, reserved=8)
    assert not blockmap.plane_in_use(4)
    blockmap.allocate_run(1, cursor=8)
    blockmap.snapshot_create(4)
    assert blockmap.plane_in_use(4)


def test_used_vs_active_counts():
    blockmap = BlockMap(100, reserved=8)
    start, _ = blockmap.allocate_run(5, cursor=8)
    blockmap.snapshot_create(1)
    blockmap.free_active(start)
    assert blockmap.active_block_count() == 4
    assert blockmap.used_block_count() == 5
