"""Block-map operations allocate by the slab, not by the map.

Wall clock on a two-core sandbox cannot gate this; ``tracemalloc`` can
(numpy reports its buffers to it).  On a 4 Mi-block map every whole-map
operation must peak far below the dense map's size (four bytes a block),
serialising a run must cost its held slabs, a clone must cost less than
one slab, ``format`` must cost under a quarter of the map, and a cold
``mount`` of a fresh volume — whose map file is nearly all zeros — must
cost a small fraction of the dense map.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.raid.layout import make_geometry
from repro.raid.volume import RaidVolume
from repro.storage.device import IoRecorder
from repro.wafl import blockmap as blockmap_module
from repro.wafl.blockmap import BlockMap
from repro.wafl.filesystem import WaflFilesystem
from tests.conftest import map_of, map_words

NBLOCKS = 4 * 1024 * 1024
RESERVED = 64
DENSE_BYTES = NBLOCKS * 4                   # the map as one uint32 array
SLAB_BYTES = blockmap_module._SLAB_WORDS * 4


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


def private_copy(blockmap):
    """The map's words in slabs of its own: what a clone holds once it
    has written every slab, so a peak measures the kernels, not the
    copy-on-write copies (:func:`test_a_clone_allocates_under_one_slab`)."""
    return map_of(map_words(blockmap).copy(), blockmap.reserved)


def test_plane_operations_allocate_slabs_not_maps(sparse_map):
    blockmap = private_copy(sparse_map)
    budget = DENSE_BYTES // 8
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
    blockmap = private_copy(sparse_map)
    budget = DENSE_BYTES // 8
    expected = (list(blockmap._starts), dict(blockmap._lengths),
                blockmap.free_blocks())
    _, peak = peak_during(blockmap._rebuild_extents)
    assert peak < budget
    assert (blockmap._starts, blockmap._lengths,
            blockmap.free_blocks()) == expected
    image = map_words(blockmap).copy()
    recovered, peak = peak_during(
        lambda: BlockMap.deserialize(NBLOCKS, RESERVED, [(0, image)]))
    held = sum(slab.nbytes for _lo, slab in recovered.held_slabs())
    assert peak < held + budget             # its slabs, counted, indexed
    assert recovered.active_block_count() == blockmap.active_block_count()
    assert recovered._starts == blockmap._starts


def test_serialising_a_run_costs_its_held_slabs(sparse_map):
    n_fblocks = sparse_map.n_fblocks()
    pieces, peak = peak_during(
        lambda: sparse_map.serialize_fblock_run(0, n_fblocks))
    assert sum(map(len, pieces)) == DENSE_BYTES
    # A copy of each held slab; an absent slab is a view of zeros.
    held = sum(slab.nbytes for _lo, slab in sparse_map.held_slabs())
    assert peak < held + SLAB_BYTES
    fresh = BlockMap(NBLOCKS, reserved=RESERVED)
    fresh.allocate_run(100, RESERVED)
    pieces, peak = peak_during(
        lambda: fresh.serialize_fblock_run(0, n_fblocks))
    assert sum(map(len, pieces)) == DENSE_BYTES
    assert peak < 2 * SLAB_BYTES


def test_a_clone_allocates_under_one_slab(sparse_map):
    source = sparse_map.clone()
    clone, peak = peak_during(source.clone)
    assert peak < SLAB_BYTES
    # The first write to a shared slab copies that slab alone, on the
    # side that writes; the other side keeps the words it had.
    before = map_words(source).copy()
    block = int(clone.plane_blocks(0)[0])
    _, peak = peak_during(lambda: clone.free_active(block))
    assert SLAB_BYTES <= peak < 2 * SLAB_BYTES
    assert np.array_equal(map_words(source), before)
    assert int(map_words(clone)[block]) == 0


def test_a_cold_mount_of_a_fresh_volume_costs_under_an_eighth_of_the_map():
    # 4 groups x 8 data disks x 128 Ki stripes = 4 Mi volume blocks.
    volume = RaidVolume(make_geometry(4, 8, 128 * 1024), name="mem")
    assert volume.nblocks == NBLOCKS
    WaflFilesystem.format(volume)
    volume.cache.clear()                    # a cold boot
    volume.recorder = IoRecorder()
    fs, peak = peak_during(lambda: WaflFilesystem.mount(volume))
    largest = max(count for kind, _start, count in volume.recorder._pending
                  if kind == "read") * volume.block_size
    assert largest >= DENSE_BYTES // 2      # the map file, nearly whole
    # The extents come back as views of the stripe store (zeros where no
    # chunk was written) and only the slabs holding a word are copied.
    assert peak < DENSE_BYTES // 8
    assert fs.blockmap.active_block_count() > 0


def test_format_writes_the_map_from_its_slab_pieces():
    volume = RaidVolume(make_geometry(4, 8, 128 * 1024), name="fmt")
    fs, peak = peak_during(lambda: WaflFilesystem.format(volume))
    # The whole-map consistency point writes each slab's piece of the map
    # file in place, zeros as views: no join of the map, slabs only where
    # format allocated blocks.
    assert peak < DENSE_BYTES // 4
    held = sum(slab.nbytes for _lo, slab in fs.blockmap.held_slabs())
    assert held <= SLAB_BYTES
