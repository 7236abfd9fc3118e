"""Property-based tests for the block map's allocation invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import NoSpaceError
from repro.wafl.blockmap import BlockMap
from tests.conftest import map_of

NBLOCKS = 600
RESERVED = 8


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=40), min_size=1,
                max_size=30))
def test_allocations_never_overlap(requests):
    blockmap = BlockMap(NBLOCKS, reserved=RESERVED)
    claimed = set()
    cursor = RESERVED
    for want in requests:
        try:
            start, count = blockmap.allocate_run(want, cursor)
        except NoSpaceError:
            break
        run = set(range(start, start + count))
        assert not run & claimed
        assert all(block >= RESERVED for block in run)
        claimed |= run
        cursor = start + count
    assert blockmap.active_block_count() == len(claimed)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_free_then_alloc_conserves_counts(data):
    blockmap = BlockMap(NBLOCKS, reserved=RESERVED)
    allocated = []
    for _ in range(data.draw(st.integers(1, 20))):
        start, count = blockmap.allocate_run(
            data.draw(st.integers(1, 16)), RESERVED
        )
        allocated.extend(range(start, start + count))
    to_free = data.draw(
        st.lists(st.sampled_from(allocated), unique=True, max_size=len(allocated))
    ) if allocated else []
    for block in to_free:
        blockmap.free_active(block)
    expected_free = (NBLOCKS - RESERVED) - (len(allocated) - len(to_free))
    assert blockmap.free_blocks() == expected_free


@settings(max_examples=30, deadline=None)
@given(st.sets(st.integers(RESERVED, NBLOCKS - 1), max_size=100),
       st.sets(st.integers(RESERVED, NBLOCKS - 1), max_size=100))
def test_plane_difference_is_set_difference(in_a_only, shared):
    """Table 1 as a property: B − A over arbitrary block sets."""
    words = np.zeros(NBLOCKS, dtype="<u4")
    in_b_only = {(b + 37) % (NBLOCKS - RESERVED) + RESERVED
                 for b in in_a_only} - in_a_only - shared
    for block in in_a_only | shared:
        words[block] |= np.uint32(1 << 1)
    for block in in_b_only | shared:
        words[block] |= np.uint32(1 << 2)
    blockmap = map_of(words, RESERVED)
    diff = set(int(x) for x in blockmap.plane_difference(2, 1))
    assert diff == in_b_only


class BlockMapMachine(RuleBasedStateMachine):
    """Stateful fuzz: alloc/free/snapshot operations keep invariants."""

    def __init__(self):
        super().__init__()
        self.blockmap = BlockMap(NBLOCKS, reserved=RESERVED)
        self.active = set()
        self.snapshots = {}  # plane -> frozenset of blocks

    @rule(want=st.integers(1, 24), cursor=st.integers(0, NBLOCKS))
    def allocate(self, want, cursor):
        try:
            start, count = self.blockmap.allocate_run(want, cursor)
        except NoSpaceError:
            return
        for block in range(start, start + count):
            assert block not in self.active
            self.active.add(block)

    @rule(index=st.integers(0, 10000))
    def free_one(self, index):
        if not self.active:
            return
        block = sorted(self.active)[index % len(self.active)]
        self.blockmap.free_active(block)
        self.active.discard(block)

    @rule(plane=st.integers(1, 6))
    def snapshot(self, plane):
        if plane in self.snapshots:
            return
        self.blockmap.snapshot_create(plane)
        self.snapshots[plane] = frozenset(self.active)

    @rule(plane=st.integers(1, 6))
    def delete_snapshot(self, plane):
        if plane not in self.snapshots:
            return
        self.blockmap.snapshot_delete(plane)
        del self.snapshots[plane]

    @invariant()
    def active_plane_matches_model(self):
        assert self.active == set(
            int(b) for b in self.blockmap.plane_blocks(0)
        )

    @invariant()
    def snapshot_planes_match_model(self):
        for plane, blocks in self.snapshots.items():
            assert blocks == set(
                int(b) for b in self.blockmap.plane_blocks(plane)
            )

    @invariant()
    def free_count_consistent(self):
        used = set(self.active)
        for blocks in self.snapshots.values():
            used |= blocks
        assert self.blockmap.free_blocks() == NBLOCKS - RESERVED - len(used)


TestBlockMapMachine = BlockMapMachine.TestCase
TestBlockMapMachine.settings = settings(max_examples=25, deadline=None,
                                        stateful_step_count=30)
