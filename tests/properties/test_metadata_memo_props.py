"""Property tests pinning memoized extents and sliced truncation to the
per-block code they replaced.

``BlockTree.extents`` memoizes its runs on the inode through indirect
blocks, and ``truncate_blocks`` cuts each pointer segment with one slice.
The oracles below are the code they replaced — the extents scan over
the cursor's loaded pointer lists and the per-block ``_set_pointer``
truncation — kept so that the new code must give the same runs, the same
freed blocks in the same order, the same pointers and dirty flags, and
touch the buffer cache, the I/O recorder and the member disks exactly
as the old code did.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
import numpy as np

from repro.storage.device import IoRecorder
from repro.wafl.blocktree import BlockTree
from repro.wafl.consts import BLOCK_SIZE, NDIRECT, PTRS_PER_BLOCK

from tests.conftest import make_fs

_slow = settings(max_examples=25, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

NFILES = 3
#: First file block of each tree level: direct, single indirect, and the
#: first two children of the double indirect.
REGIONS = (0, NDIRECT, NDIRECT + PTRS_PER_BLOCK,
           NDIRECT + 2 * PTRS_PER_BLOCK + 7)


def _old_ptr_segments(tree):
    """``(base_fbn, pointer_list)`` per tree level, loaded through the
    cursor — the walk the old ``extents`` made."""
    inode = tree.inode
    segments = [(0, inode.direct)]
    if inode.indirect or ("ind",) in tree._cache:
        segments.append((NDIRECT, tree._load(("ind",), inode.indirect).ptrs))
    if inode.dindirect or ("dptr",) in tree._cache:
        dptr = tree._load(("dptr",), inode.dindirect)
        for child, child_vbn in enumerate(dptr.ptrs):
            if not child_vbn and ("dind", child) not in tree._cache:
                continue
            block = tree._load(("dind", child), child_vbn)
            base = NDIRECT + PTRS_PER_BLOCK + child * PTRS_PER_BLOCK
            segments.append((base, block.ptrs))
    return segments


def _old_extents(tree):
    """The old ``extents``, without its direct-only memo (which did no
    I/O either way)."""
    fbn_parts = []
    vbn_parts = []
    for base, ptrs in _old_ptr_segments(tree):
        arr = np.array(ptrs, dtype=np.int64)
        hot = np.flatnonzero(arr)
        if hot.size:
            fbn_parts.append(hot + base)
            vbn_parts.append(arr[hot])
    if not fbn_parts:
        return []
    fbns = np.concatenate(fbn_parts)
    vbns = np.concatenate(vbn_parts)
    breaks = np.flatnonzero((np.diff(fbns) != 1) | (np.diff(vbns) != 1))
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks + 1, [fbns.size]))
    return [(int(fbns[s]), int(vbns[s]), int(e - s))
            for s, e in zip(starts, ends)]


def _old_truncate_blocks(tree, keep_blocks):
    """The old per-block ``truncate_blocks``, verbatim."""
    doomed = []
    for fbn, vbn in list(tree.allocated_fblocks()):
        if fbn >= keep_blocks:
            tree._set_pointer(fbn, 0)
            doomed.append(vbn)
    tree.ctx.free_blocks(doomed)


class _EventRecorder(IoRecorder):
    """Keeps every access as it came, before any coalescing."""

    def __init__(self):
        super().__init__()
        self.events = []

    def on_read(self, start_block: int, nblocks: int = 1) -> None:
        self.events.append(("read", start_block, nblocks))
        super().on_read(start_block, nblocks)

    def on_write(self, start_block: int, nblocks: int = 1) -> None:
        self.events.append(("write", start_block, nblocks))
        super().on_write(start_block, nblocks)


def _touches(fs):
    """What the reads since the recorder went on left behind."""
    volume = fs.volume
    cache = volume.cache
    members = [disk.reads for group in volume.groups
               for disk in group.data_disks + [group.parity_disk]]
    return (volume.recorder.events, list(cache._blocks), cache.hits,
            cache.misses, cache.evictions, members)


def _payload(seed: int, nbytes: int) -> bytes:
    return bytes((seed * 131 + i * 7) % 251 + 1 for i in range(nbytes))


def _check_extents(fs, paths):
    """The live file system's (memoized) extents against the oracle on a
    clone taken just before: same runs, same touches — twice, so the
    second call is a memo hit on the live side."""
    twin = fs.clone_volume()
    for side in (fs, twin):
        side.volume.recorder = _EventRecorder()
    for _round in range(2):
        for path in paths:
            new = BlockTree(fs, fs.inode(fs.namei(path))).extents()
            old = _old_extents(BlockTree(twin, twin.inode(twin.namei(path))))
            assert new == old
    assert _touches(fs) == _touches(twin)
    fs.volume.recorder = None


def _truncate_both(fs, path, keep_blocks):
    """Cut ``path`` at ``keep_blocks`` with the new code on ``fs`` and
    the oracle on a clone; every observable must match."""
    twin = fs.clone_volume()
    seen = []
    for side, cut in ((fs, BlockTree.truncate_blocks),
                      (twin, _old_truncate_blocks)):
        freed = []
        free_blocks = side.free_blocks
        side.free_blocks = lambda vbns, f=free_blocks: (
            freed.append(list(vbns)), f(vbns))
        side.volume.recorder = _EventRecorder()
        inode = side.inode(side.namei(path))
        tree = BlockTree(side, inode)
        cut(tree, keep_blocks)
        blocks = sorted((key, block.vbn, list(block.ptrs), block.dirty)
                        for key, block in tree._cache.items())
        seen.append((freed, list(inode.direct), inode.indirect,
                     inode.dindirect, blocks, sorted(side._dirty_inodes),
                     sorted(side._fresh_blocks), _touches(side)))
        del side.free_blocks
        tree.flush()
        side.volume.recorder = None
    assert seen[0] == seen[1]


ops = st.lists(
    st.tuples(
        st.sampled_from(["write", "write", "write", "truncate", "check",
                         "cp"]),
        st.integers(0, NFILES - 1),
        st.integers(0, len(REGIONS) - 1),   # which tree level
        st.integers(0, 40),                 # block offset into the level
        st.integers(1, 24),                 # blocks written
        st.integers(0, 255),
    ),
    min_size=1, max_size=16,
)


@_slow
@given(ops)
@example([("write", 0, 0, 3, 20, 1), ("write", 0, 1, 5, 9, 2),
          ("write", 0, 3, 0, 4, 3), ("check", 0, 0, 0, 1, 0),
          ("truncate", 0, 1, 7, 1, 1), ("truncate", 0, 0, 0, 1, 3)])
@example([("write", 1, 2, 30, 24, 4), ("cp", 0, 0, 0, 1, 0),
          ("write", 1, 0, 0, 16, 5), ("truncate", 1, 2, 35, 1, 2),
          ("write", 1, 2, 36, 3, 6), ("truncate", 1, 0, 4, 1, 1)])
def test_extents_and_truncate_match_the_per_block_code(steps):
    fs = make_fs(cache_blocks=40)
    paths = ["/f%d" % index for index in range(NFILES)]
    for path in paths:
        fs.create(path)
    for kind, index, region, at, nblocks, seed in steps:
        path = paths[index]
        fbn = REGIONS[region] + at
        if kind == "write":
            fs.write_file(path, _payload(seed, nblocks * BLOCK_SIZE),
                          fbn * BLOCK_SIZE)
        elif kind == "truncate":
            _truncate_both(fs, path, fbn if seed % 3 else 0)
        elif kind == "cp":
            fs.consistency_point()
        _check_extents(fs, paths)


def test_an_indirect_block_rewritten_in_place_misses_the_memo():
    """A fresh indirect block (allocated since the last CP) is rewritten
    where it lies when its file grows, so its number stays and only its
    bytes change: the memo must miss on the bytes."""
    fs = make_fs(cache_blocks=40)
    fs.create("/f")
    fs.consistency_point()
    fs.write_file("/f", _payload(1, 3 * BLOCK_SIZE), NDIRECT * BLOCK_SIZE)
    inode = fs.inode(fs.namei("/f"))
    first = BlockTree(fs, inode).extents()
    indirect = inode.indirect
    assert fs.allows_inplace(indirect)
    fs.write_file("/f", _payload(2, 2 * BLOCK_SIZE), (NDIRECT + 9) * BLOCK_SIZE)
    assert inode.indirect == indirect
    second = BlockTree(fs, inode).extents()
    assert second != first
    assert second == _old_extents(BlockTree(fs.clone_volume(), inode.copy()))
    _check_extents(fs, ["/f"])
