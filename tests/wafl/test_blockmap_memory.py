"""Block-map operations allocate by the slab, not by the map.

Wall clock on a two-core sandbox cannot gate this; ``tracemalloc`` can
(numpy reports its buffers to it).  On a 4 Mi-block map every whole-map
operation must peak far below the map's own size, serialising a run must
cost the run once, and ``mount`` must cost the map once plus what
``read_run`` needs to return its largest extent.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.raid.layout import make_geometry
from repro.raid.volume import RaidVolume
from repro.storage.device import IoRecorder
from repro.wafl.blockmap import BlockMap
from repro.wafl.filesystem import WaflFilesystem

NBLOCKS = 4 * 1024 * 1024
RESERVED = 64


def peak_during(operation):
    """``(result, peak bytes allocated above the starting level)``."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = operation()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - base


@pytest.fixture(scope="module")
def sparse_map():
    """4 Mi words, a few thousand active blocks in scattered runs."""
    blockmap = BlockMap(NBLOCKS, reserved=RESERVED)
    rng = np.random.RandomState(14)
    for cursor in sorted(rng.randint(RESERVED, NBLOCKS - 64, size=120)):
        blockmap.allocate_run(int(rng.randint(1, 64)), int(cursor))
    assert 1000 < blockmap.active_block_count() < 10000
    return blockmap


def test_plane_operations_allocate_slabs_not_maps(sparse_map):
    blockmap = sparse_map.clone()
    budget = blockmap.words.nbytes // 8
    _, peak = peak_during(lambda: blockmap.snapshot_create(7))
    assert peak < budget
    in_use, peak = peak_during(lambda: blockmap.plane_in_use(9))
    assert not in_use and peak < budget
    runs, peak = peak_during(lambda: blockmap.plane_runs(7))
    assert runs == blockmap.plane_runs(0) and peak < budget
    freed, peak = peak_during(lambda: blockmap.snapshot_delete(7))
    assert freed == 0 and peak < budget     # the active plane holds them all
    # Blocks the snapshot alone holds: the delete frees them and rebuilds.
    blockmap.snapshot_create(7)
    blockmap.free_active_many(blockmap.plane_blocks(0)[:50].tolist())
    freed, peak = peak_during(lambda: blockmap.snapshot_delete(7))
    assert freed == 50 and peak < budget


def test_extent_rebuild_and_active_count_allocate_slabs_not_maps(sparse_map):
    blockmap = sparse_map.clone()
    budget = blockmap.words.nbytes // 8
    expected = (list(blockmap._starts), dict(blockmap._lengths),
                blockmap.free_blocks())
    _, peak = peak_during(blockmap._rebuild_extents)
    assert peak < budget
    assert (blockmap._starts, blockmap._lengths,
            blockmap.free_blocks()) == expected
    image = blockmap.words.copy()
    recovered, peak = peak_during(
        lambda: BlockMap.deserialize(NBLOCKS, RESERVED, image))
    assert peak < budget                    # adopted, counted, indexed
    assert recovered.active_block_count() == blockmap.active_block_count()
    assert recovered._starts == blockmap._starts


def test_serialising_a_run_costs_the_run_once(sparse_map):
    n_fblocks = sparse_map.n_fblocks()
    data, peak = peak_during(
        lambda: sparse_map.serialize_fblock_run(0, n_fblocks))
    assert len(data) == sparse_map.words.nbytes
    assert peak < 1.1 * len(data)


def test_mount_costs_the_map_once_plus_its_largest_read():
    # 4 groups x 8 data disks x 128 Ki stripes = 4 Mi volume blocks.
    volume = RaidVolume(make_geometry(4, 8, 128 * 1024), name="mem")
    assert volume.nblocks == NBLOCKS
    WaflFilesystem.format(volume)
    volume.cache.clear()                    # a cold boot
    volume.recorder = IoRecorder()
    fs, peak = peak_during(lambda: WaflFilesystem.mount(volume))
    largest = max(count for kind, _start, count in volume.recorder._pending
                  if kind == "read") * volume.block_size
    assert largest >= fs.blockmap.words.nbytes // 2   # the map, nearly whole
    # The word array, read_run's bytearray and the bytes it returns (which
    # the buffer cache goes on referencing) — nothing else map-sized.
    assert peak < fs.blockmap.words.nbytes + 2.2 * largest
    assert fs.blockmap.active_block_count() > 0
