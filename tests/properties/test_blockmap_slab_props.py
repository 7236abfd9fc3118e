"""The slab block map against a dense numpy model.

``BlockMap`` holds its words in copy-on-write slabs, absent where every
word is zero.  These tests run seeded sequences of allocations, frees
(single, batched, deferred), deferred-reuse commits, snapshot creates
and deletes and clones over maps several slabs long, apply the same
operations to one plain ``uint32`` array per map, and require after
every step the same words, the same free extents and the same active
and used counts.  A clone and its source are two maps with two models:
an operation on one must not show in the other.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NoSpaceError
from repro.wafl import blockmap as blockmap_module
from repro.wafl.blockmap import BlockMap
from repro.wafl.consts import BLOCKMAP_ENTRIES_PER_BLOCK
from tests.conftest import map_words

SLAB = blockmap_module._SLAB_WORDS
NBLOCKS = 3 * SLAB + 17
RESERVED = 40


class Model:
    """What a map should hold, as one dense array and a deferred set."""

    def __init__(self, nblocks, reserved):
        self.words = np.zeros(nblocks, dtype="<u4")
        self.reserved = reserved
        self.deferred = set()

    def copy(self):
        other = Model(self.words.size, self.reserved)
        other.words = self.words.copy()
        other.deferred = set(self.deferred)
        return other

    def free_extents(self):
        free = self.words == 0
        free[: self.reserved] = False
        free[sorted(self.deferred)] = False
        edges = np.flatnonzero(np.diff(np.concatenate(([0], free, [0]))))
        return [(int(a), int(b - a)) for a, b in zip(edges[0::2], edges[1::2])]

    def free(self, block, defer):
        self.words[block] &= np.uint32(~1 & 0xFFFFFFFF)
        if defer and self.words[block] == 0:
            self.deferred.add(block)


def expected_run(extents, want, cursor, cp_reserve):
    """The write-anywhere choice: the free extent holding ``cursor``
    from there, else the next extent after it, else the first; None when
    the allocation would dip into the consistency-point reserve."""
    free = sum(n for _s, n in extents)
    if not extents or free - min(want, free) < cp_reserve:
        return None
    for start, count in extents:
        if start <= cursor < start + count:
            return cursor, min(want, start + count - cursor)
    later = [extent for extent in extents if extent[0] > cursor]
    start, count = (later or extents)[0]
    return start, min(want, count)


def check(blockmap, model):
    assert np.array_equal(map_words(blockmap), model.words)
    extents = model.free_extents()
    assert list(zip(blockmap._starts,
                    [blockmap._lengths[s] for s in blockmap._starts])) \
        == extents
    assert blockmap.free_blocks() == sum(n for _s, n in extents)
    assert blockmap.reuse_excluded == model.deferred
    assert blockmap.active_block_count() == int(
        np.count_nonzero(model.words & np.uint32(1)))
    assert blockmap.used_block_count() == int(np.count_nonzero(model.words))
    # Only slabs holding a non-zero word were ever materialized by
    # these operations, and every absent one reads as zero.
    held = {lo for lo, _words in blockmap.held_slabs()}
    for lo in range(0, NBLOCKS, SLAB):
        if lo not in held:
            assert not model.words[lo : lo + SLAB].any()


OPS = st.sampled_from(["allocate", "allocate", "allocate", "free",
                       "free_many", "commit", "snap_create", "snap_delete",
                       "clone"])


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_slab_maps_follow_their_dense_models(data):
    maps = [(BlockMap(NBLOCKS, reserved=RESERVED),
             Model(NBLOCKS, RESERVED))]
    for _step in range(data.draw(st.integers(5, 30), label="steps")):
        which = data.draw(st.integers(0, len(maps) - 1), label="map")
        blockmap, model = maps[which]
        op = data.draw(OPS, label="op")
        active = np.flatnonzero(model.words & np.uint32(1))
        if op == "allocate":
            want = data.draw(st.integers(1, 3 * SLAB // 2), label="want")
            cursor = data.draw(st.integers(0, NBLOCKS - 1), label="cursor")
            expected = expected_run(model.free_extents(), want, cursor,
                                    blockmap.cp_reserve)
            if expected is None:
                with pytest.raises(NoSpaceError):
                    blockmap.allocate_run(want, cursor)
                continue
            assert blockmap.allocate_run(want, cursor) == expected
            start, count = expected
            model.words[start : start + count] |= np.uint32(1)
        elif op == "free" and active.size:
            block = int(active[data.draw(
                st.integers(0, active.size - 1), label="block")])
            defer = data.draw(st.booleans(), label="defer")
            blockmap.free_active(block, defer_reuse=defer)
            model.free(block, defer)
        elif op == "free_many" and active.size:
            picks = data.draw(st.lists(st.integers(0, active.size - 1),
                                       min_size=1, max_size=200,
                                       unique=True), label="blocks")
            blocks = [int(active[i]) for i in picks]
            defer = data.draw(st.booleans(), label="defer")
            blockmap.free_active_many(blocks, defer_reuse=defer)
            for block in blocks:
                model.free(block, defer)
        elif op == "commit":
            blockmap.commit_deferred_reuse()
            model.deferred.clear()
        elif op == "snap_create":
            plane = data.draw(st.integers(1, 31), label="plane")
            blockmap.snapshot_create(plane)
            held = (model.words & np.uint32(1)) != 0
            model.words[held] |= np.uint32(1 << plane)
        elif op == "snap_delete":
            plane = data.draw(st.integers(1, 31), label="plane")
            bit = np.uint32(1 << plane)
            freed = int(np.count_nonzero(model.words == bit))
            assert blockmap.snapshot_delete(plane) == freed
            model.words &= ~bit
        elif op == "clone" and len(maps) < 4:
            maps.append((blockmap.clone(), model.copy()))
        for other, other_model in maps:
            check(other, other_model)


def test_a_clone_and_its_source_diverge_without_cross_talk():
    source = BlockMap(NBLOCKS, reserved=RESERVED)
    model = Model(NBLOCKS, RESERVED)
    for cursor in (RESERVED, SLAB - 400, 2 * SLAB + 100):
        start, count = source.allocate_run(300, cursor)
        model.words[start : start + count] |= np.uint32(1)
    source.snapshot_create(2)
    model.words[(model.words & np.uint32(1)) != 0] |= np.uint32(1 << 2)
    clone, twin = source.clone(), model.copy()
    # Every slab is shared: neither side owns one before it writes.
    assert source._shared == clone._shared == {0, 2}
    # The clone frees in slab 0 and allocates into the absent slab 1;
    # the source deletes the snapshot (every held slab).
    clone.free_active_many(range(RESERVED, RESERVED + 50))
    twin.words[RESERVED : RESERVED + 50] &= np.uint32(~1 & 0xFFFFFFFF)
    start, count = clone.allocate_run(70, SLAB + 1000)
    twin.words[start : start + count] |= np.uint32(1)
    assert SLAB <= start < 2 * SLAB
    assert source.snapshot_delete(2) == 0
    model.words &= np.uint32(~(1 << 2) & 0xFFFFFFFF)
    check(source, model)
    check(clone, twin)
    assert [lo for lo, _w in source.held_slabs()] == [0, 2 * SLAB]
    assert [lo for lo, _w in clone.held_slabs()] == [0, SLAB, 2 * SLAB]
    # Slab 2 the source rewrote and the clone did not: the clone still
    # shares the original, the source holds its own copy.
    assert source._slab_words[2] is not clone._slab_words[2]
    assert 2 in clone._shared and 2 not in source._shared


def test_snapshots_over_zero_slabs_leave_them_absent():
    blockmap = BlockMap(NBLOCKS, reserved=RESERVED)
    blockmap.allocate_run(100, RESERVED)
    blockmap.allocate_run(100, 3 * SLAB)            # the short last slab
    held = [lo for lo, _w in blockmap.held_slabs()]
    assert held == [0, 3 * SLAB]
    clone = blockmap.clone()
    for side in (blockmap, clone):
        side.snapshot_create(5)
        side.snapshot_create(6)
        assert side.snapshot_delete(5) == 0
        assert [lo for lo, _w in side.held_slabs()] == held
        assert not side.plane_in_use(5) and side.plane_in_use(6)
        assert side.dirty_fblocks.isdisjoint(range(
            SLAB // BLOCKMAP_ENTRIES_PER_BLOCK,
            3 * SLAB // BLOCKMAP_ENTRIES_PER_BLOCK))
