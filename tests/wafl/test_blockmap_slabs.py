"""Slab kernels against the whole-array forms they replaced.

``BlockMap`` holds its words in fixed-size slabs and runs its whole-map
operations (snapshot planes, the free extent rebuild, the active count)
slab by slab.
The reference functions below are the previous whole-array bodies; the
tests drive both over seeded random maps whose sizes, reserved areas,
free runs and deferred-reuse entries straddle the slab edges, and
require identical words, extent index and counters.  A snapshot
operation dirties exactly the fblocks that hold a word it changed: the
oracle for that is the whole-array ``words_before != words_after``,
on top of whatever was dirty already — no fblock more, none fewer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.wafl import blockmap as blockmap_module
from repro.wafl.blockmap import BlockMap, runs_from_blocks
from repro.wafl.consts import BLOCKMAP_ENTRIES_PER_BLOCK
from tests.conftest import map_of, map_words, set_word

SLAB = blockmap_module._SLAB_WORDS

SIZES = (SLAB - 1, SLAB, SLAB + 1, 3 * SLAB + 17)


# -- the whole-array references ---------------------------------------------

def ref_rebuild_extents(words, reserved, excluded):
    free = words == 0
    if reserved:
        free[:reserved] = False
    for block in excluded:
        free[block] = False
    starts, lengths = [], {}
    free_count = int(free.sum())
    if free.any():
        padded = np.concatenate(([False], free, [False]))
        edges = np.flatnonzero(padded[1:] != padded[:-1])
        for start, end in zip(edges[0::2], edges[1::2]):
            starts.append(int(start))
            lengths[int(start)] = int(end - start)
    return starts, lengths, free_count


def ref_snapshot_create(words, plane):
    active = (words & np.uint32(1)) != 0
    words[active] |= np.uint32(1 << plane)


def ref_snapshot_delete(words, plane):
    mask = np.uint32(1 << plane)
    held = (words & mask) != 0
    words[held] &= np.uint32(~(1 << plane) & 0xFFFFFFFF)
    return int((held & (words == 0)).sum())


def ref_active_count(words):
    return int(((words & np.uint32(1)) != 0).sum())


def ref_plane_in_use(words, plane):
    return bool((words & np.uint32(1 << plane)).any())


def ref_changed_fblocks(before, after):
    """The fblocks that hold a word an operation changed."""
    changed = np.flatnonzero(before != after) // BLOCKMAP_ENTRIES_PER_BLOCK
    return set(changed.tolist())


def drain(blockmap):
    """Every dirty fblock, in the order the consistency point pops them."""
    drained = []
    while blockmap.dirty_fblocks:
        start, count = blockmap.pop_dirty_run()
        drained.extend(range(start, start + count))
    return drained


# -- seeded maps that straddle the slab edges --------------------------------

def random_map(seed, nblocks, reserved, plane):
    """A map whose words were laid down in runs (free, active, held by
    ``plane`` alone, shared, held by another plane), with run boundaries
    forced onto and across every slab edge, one all-free and one all-used
    slab in the middle when the map has one, and deferred-reuse blocks on
    both sides of an edge."""
    rng = np.random.RandomState(seed)
    mask = 1 << plane
    other = 1 << (2 if plane != 2 else 3)
    palette = np.array([0, 0, 1, mask, mask | 1, other, other | mask | 1],
                       dtype=np.uint32)
    words = np.zeros(nblocks, dtype="<u4")
    cuts = set(rng.randint(0, nblocks, size=40).tolist())
    for edge in range(SLAB, nblocks, SLAB):
        cuts.update((edge - 3, edge + 2))     # a run crossing the edge
    cuts = sorted(c for c in cuts if 0 < c < nblocks)
    for lo, hi in zip([0] + cuts, cuts + [nblocks]):
        words[lo:hi] = palette[rng.randint(len(palette))]
    if nblocks > 3 * SLAB:
        words[SLAB : 2 * SLAB] = 0                # all free …
        words[2 * SLAB : 3 * SLAB] = mask | 1     # … next to all used
    excluded = set()
    for edge in range(SLAB, nblocks + 1, SLAB):
        for block in (edge - 1, edge):
            if reserved <= block < nblocks and rng.rand() < 0.8:
                words[block] = 0
                excluded.add(block)
    blockmap = map_of(words, reserved)
    blockmap.reuse_excluded = excluded
    blockmap._rebuild_extents()
    blockmap._active_count = ref_active_count(words)
    return blockmap


def reserved_choices(nblocks):
    inside = [0, 8, SLAB - 2]
    if nblocks > SLAB + 5:
        inside.append(SLAB + 5)               # across the first slab
    return [r for r in inside if r < nblocks]


CASES = [(seed, nblocks, reserved, plane)
         for seed, nblocks in enumerate(SIZES)
         for reserved in reserved_choices(nblocks)
         for plane in (1, 31)]


def index_of(blockmap):
    return (list(blockmap._starts), dict(blockmap._lengths),
            blockmap._free_count)


@pytest.mark.parametrize("seed,nblocks,reserved,plane", CASES)
def test_rebuild_extents_matches_whole_array_scan(seed, nblocks, reserved,
                                                  plane):
    blockmap = random_map(seed, nblocks, reserved, plane)
    expected = ref_rebuild_extents(map_words(blockmap).copy(), reserved,
                                   blockmap.reuse_excluded)
    assert index_of(blockmap) == expected
    assert sorted(blockmap._lengths) == blockmap._starts
    assert all(type(start) is int for start in blockmap._starts)
    assert all(type(n) is int for n in blockmap._lengths.values())


@pytest.mark.parametrize("seed,nblocks,reserved,plane", CASES)
def test_snapshot_create_and_delete_match_whole_array_forms(
        seed, nblocks, reserved, plane):
    blockmap = random_map(seed, nblocks, reserved, plane)
    # Leave the dirty state a drain would find mid-life: some fblocks
    # dirty, and a stale (popped-elsewhere) entry in the heap.
    blockmap._dirty_add_many([blockmap.n_fblocks() - 1, 0])
    blockmap.dirty_fblocks.discard(0)
    words = map_words(blockmap).copy()

    # Delete first: the random words hold the plane already.
    assert blockmap.plane_in_use(plane) == ref_plane_in_use(words, plane)
    already_dirty = set(blockmap.dirty_fblocks)
    before = words.copy()
    freed = blockmap.snapshot_delete(plane)
    assert freed == ref_snapshot_delete(words, plane)
    assert np.array_equal(map_words(blockmap), words)
    assert index_of(blockmap) == ref_rebuild_extents(
        words.copy(), reserved, blockmap.reuse_excluded)
    assert not blockmap.plane_in_use(plane)
    changed = ref_changed_fblocks(before, words)
    assert drain(blockmap) == sorted(already_dirty | changed)
    if nblocks > 3 * SLAB:
        # The all-free slab held nothing to clear, the all-used one a
        # plane bit in every word.
        per_slab = SLAB // BLOCKMAP_ENTRIES_PER_BLOCK
        assert changed.isdisjoint(range(per_slab, 2 * per_slab))
        assert changed.issuperset(range(2 * per_slab, 3 * per_slab))

    index_before = index_of(blockmap)
    before = words.copy()
    blockmap.snapshot_create(plane)
    ref_snapshot_create(words, plane)
    assert np.array_equal(map_words(blockmap), words)
    assert all(slab.dtype == np.dtype("<u4")
               for _lo, slab in blockmap.held_slabs())
    assert index_of(blockmap) == index_before   # a snapshot frees nothing
    changed = ref_changed_fblocks(before, words)
    assert 0 < len(changed) < blockmap.n_fblocks()
    assert drain(blockmap) == sorted(changed)
    assert blockmap.pop_dirty_run() is None
    assert blockmap.active_block_count() == ref_active_count(words)

    # Every active block holds the plane now: copying it again changes no
    # word, so there is nothing to write — and where one block lacks the
    # bit, that block's fblock alone.
    blockmap.snapshot_create(plane)
    assert np.array_equal(map_words(blockmap), words)
    assert not blockmap.dirty_fblocks
    block = int(np.flatnonzero(words & np.uint32(1 << plane))[-1])
    set_word(blockmap, block, int(words[block]) ^ (1 << plane))
    blockmap.snapshot_create(plane)
    assert np.array_equal(map_words(blockmap), words)
    assert drain(blockmap) == [block // BLOCKMAP_ENTRIES_PER_BLOCK]


@pytest.mark.parametrize("seed,nblocks,reserved,plane", CASES[::3])
def test_deserialize_counts_and_indexes_like_the_whole_array_forms(
        seed, nblocks, reserved, plane):
    source = random_map(seed, nblocks, reserved, plane)
    raw = b"".join(source.serialize_fblock_run(0, source.n_fblocks()))
    recovered = BlockMap.deserialize(nblocks, reserved, [(0, raw)])
    assert np.array_equal(map_words(recovered), map_words(source))
    assert recovered.active_block_count() == ref_active_count(
        map_words(source))
    # The deferred-reuse set is in-memory state: a remounted map has none.
    assert index_of(recovered) == ref_rebuild_extents(
        map_words(source).copy(), reserved, ())


def ref_mask_runs(mask):
    """The whole-array run-length encoding ``_runs_where`` replaced."""
    padded = np.concatenate(([False], mask, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return [(int(start), int(end - start))
            for start, end in zip(edges[0::2], edges[1::2])]


@pytest.mark.parametrize("seed,nblocks,reserved,plane", CASES[1::2])
def test_plane_run_lists_match_whole_array_encoding(seed, nblocks, reserved,
                                                    plane):
    blockmap = random_map(seed, nblocks, reserved, plane)
    words = map_words(blockmap)
    other = 2 if plane != 2 else 3
    for which in (0, plane, other):
        held = (words & np.uint32(1 << which)) != 0
        assert blockmap.plane_runs(which) == ref_mask_runs(held)
        assert blockmap.plane_runs(which) == runs_from_blocks(
            blockmap.plane_blocks(which))
    both = np.uint32((1 << plane) | 1)
    assert blockmap.mask_runs(both) == ref_mask_runs((words & both) != 0)
    for newer, older in ((plane, 0), (0, plane), (other, plane), (plane, plane)):
        assert blockmap.plane_difference_runs(newer, older) == runs_from_blocks(
            blockmap.plane_difference(newer, older))
    empty = BlockMap(nblocks, reserved=reserved)
    assert empty.plane_runs(0) == []
    full = map_of(np.ones(nblocks, dtype="<u4"), reserved)
    assert full.plane_runs(0) == [(0, nblocks)]


@pytest.mark.parametrize("excluded", [(), (2 * SLAB + 7,), (SLAB, 3 * SLAB - 1)])
def test_whole_free_and_whole_used_slabs_carry_the_edge_state(excluded):
    """A free run entering two untouched slabs from a mixed one, ending
    at an all-used slab, and a map that ends free."""
    nblocks = 5 * SLAB + 100
    words = np.zeros(nblocks, dtype="<u4")
    words[8:500] = 1
    words[SLAB - 40 : SLAB - 10] = 4        # free again up to the edge
    words[3 * SLAB : 4 * SLAB] = 2          # all used
    words[4 * SLAB + 10 : 4 * SLAB + 20] = 1
    blockmap = map_of(words, 8)
    blockmap.reuse_excluded = set(excluded)
    blockmap._rebuild_extents()
    assert index_of(blockmap) == ref_rebuild_extents(
        words.copy(), 8, excluded)
    if not excluded:
        assert blockmap._lengths[SLAB - 10] == 2 * SLAB + 10
    assert blockmap._starts[-1] == 4 * SLAB + 20
    assert blockmap._lengths[4 * SLAB + 20] == nblocks - (4 * SLAB + 20)


# -- construction, serialisation, adoption -----------------------------------

def test_fresh_map_writes_its_single_extent_down(monkeypatch):
    def scanned(self):
        raise AssertionError("a fresh map must not scan its words")
    monkeypatch.setattr(BlockMap, "_rebuild_extents", scanned)
    monkeypatch.setattr(BlockMap, "_slabs", scanned)
    blockmap = BlockMap(3 * SLAB + 17, reserved=24)
    assert blockmap._starts == [24]
    assert blockmap._lengths == {24: 3 * SLAB + 17 - 24}
    assert blockmap.free_blocks() == 3 * SLAB + 17 - 24
    assert blockmap.active_block_count() == 0
    assert not blockmap.dirty_fblocks


def test_round_trip_with_a_partial_last_fblock():
    nblocks = 2 * BLOCKMAP_ENTRIES_PER_BLOCK + 300
    blockmap = BlockMap(nblocks, reserved=8)
    cursor = 8
    for want in (5, 900, 40, 700):
        start, count = blockmap.allocate_run(want, cursor)
        cursor = start + count + 3
    blockmap.snapshot_create(31)
    last = blockmap.serialize_fblock(2)
    assert len(last) == BLOCKMAP_ENTRIES_PER_BLOCK * 4
    assert last[300 * 4 :] == bytes((BLOCKMAP_ENTRIES_PER_BLOCK - 300) * 4)
    whole = b"".join(blockmap.serialize_fblock_run(0, 3))
    assert whole == b"".join(blockmap.serialize_fblock(f) for f in range(3))
    assert b"".join(blockmap.serialize_fblock_run(1, 2)) == whole[
        BLOCKMAP_ENTRIES_PER_BLOCK * 4 :]
    recovered = BlockMap.deserialize(nblocks, 8, [(0, whole)])
    assert np.array_equal(map_words(recovered), map_words(blockmap))
    assert index_of(recovered) == index_of(blockmap)
    assert recovered.active_block_count() == blockmap.active_block_count()


def test_serialized_run_is_a_snapshot_not_a_view():
    """Each piece of a run is a ``bytes`` copy of a held slab or a
    read-only view of zeros: none aliases a slab, so the run holds while
    the map changes — a snapshot, and a write that materializes an
    absent slab."""
    for nblocks in (4096, 2 * SLAB + 300):
        blockmap = BlockMap(nblocks, reserved=8)
        blockmap.allocate_run(100, 8)
        pieces = blockmap.serialize_fblock_run(0, blockmap.n_fblocks())
        assert all(type(piece) is bytes or piece.readonly
                   for piece in pieces)
        assert not any(
            np.shares_memory(np.frombuffer(piece, dtype=np.uint8), slab)
            for piece in pieces for _lo, slab in blockmap.held_slabs())
        before = [bytes(piece) for piece in pieces]
        blockmap.snapshot_create(1)
        blockmap.set_active(nblocks - 1)
        assert [bytes(piece) for piece in pieces] == before
        assert b"".join(before) != b"".join(
            blockmap.serialize_fblock_run(0, blockmap.n_fblocks()))


def test_deserialize_copies_only_the_slabs_that_hold_words():
    """A slab all of whose words are zero stays absent, whether the file
    image holds its zeros or a hole; the buffers are copied, not kept."""
    nblocks = 3 * SLAB + 17
    source = BlockMap(nblocks, reserved=8)
    source.allocate_run(700, 8)
    source.allocate_run(50, 2 * SLAB + 100)
    n_fblocks = source.n_fblocks()
    image = np.frombuffer(b"".join(source.serialize_fblock_run(0, n_fblocks)),
                          dtype=np.uint8).copy()
    whole = BlockMap.deserialize(nblocks, 8, [(0, image)])
    # One buffer per non-zero fblock, last first, every hole unread: the
    # pieces mount hands over, in any order.
    size = BLOCKMAP_ENTRIES_PER_BLOCK * 4
    fblocks = [image[f * size : (f + 1) * size] for f in range(n_fblocks)]
    pieced = BlockMap.deserialize(
        nblocks, 8, [(f, fblocks[f]) for f in reversed(range(n_fblocks))
                     if fblocks[f].any()])
    for recovered in (whole, pieced):
        assert [lo for lo, _w in recovered.held_slabs()] == [0, 2 * SLAB]
        assert np.array_equal(map_words(recovered), map_words(source))
        assert index_of(recovered) == index_of(source)
        assert not any(np.shares_memory(slab, image)
                       for _lo, slab in recovered.held_slabs())
    image[:] = 0
    assert np.array_equal(map_words(whole), map_words(source))
    whole.snapshot_create(3)                # writable, independent
    assert np.array_equal(map_words(pieced), map_words(source))
    assert not np.array_equal(map_words(whole), map_words(pieced))
