"""Each fsinfo copy written as one run lands as its blocks one by one did.

``FsInfo.write_to`` writes the primary copy, then the backup, each as one
``write_run`` of ``FSINFO_BLOCKS`` blocks; the repair loop of
``read_and_repair`` rewrites a losing copy the same way.  Against a
test-local copy of the writer that wrote every fsinfo block on its own,
on 1-3 RAID groups of 1-10 data disks (a copy may cross a stripe or a
group seam), with a write fuse armed at every count 1-9 and with one
failed data disk, the two must leave the same volume bytes, drain the
same accesses, leave the same cache residency in the same LRU order and
raise the same exception.  The cache's ``evictions`` count may differ:
when an fsinfo block is the LRU head, the block-at-a-time writer evicts
it before writing it again, where a run refreshes it.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos.verify import volume_digest
from repro.errors import PowerLossError, RaidError
from repro.raid.layout import make_geometry
from repro.raid.volume import RaidVolume
from repro.storage.device import WRITE, IoRecorder
from repro.wafl.buffercache import BlockCache
from repro.wafl.consts import FSINFO_BACKUP, FSINFO_BLOCKS, FSINFO_PRIMARY
from repro.wafl.fsinfo import FsInfo, SnapshotRecord
from repro.wafl.inode import FileType, Inode

BS = 512    # four blocks hold the header and up to five snapshots

_fast = settings(max_examples=30, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def _old_write_to(info, volume):
    """``FsInfo.write_to`` as it was: every fsinfo block its own write."""
    image = info.pack()
    for base in (FSINFO_PRIMARY, FSINFO_BACKUP):
        for i in range(FSINFO_BLOCKS):
            chunk = image[i * info.block_size : (i + 1) * info.block_size]
            volume.write_block(base + i, chunk)


class _BlockAtATime:
    """What ``read_and_repair`` sees of a volume whose repair loop wrote
    the losing copy a block at a time, as it once did."""

    def __init__(self, volume):
        self.volume = volume
        self.read_block = volume.read_block

    def write_run(self, start, image, offset, nblocks):
        assert (offset, nblocks) == (0, FSINFO_BLOCKS)   # one whole copy
        for i in range(FSINFO_BLOCKS):
            self.volume.write_block(start + i, image[i * BS : (i + 1) * BS])


def _info(rng):
    info = FsInfo(BS, 0)
    info.cp_count = rng.randint(1, 1000)
    info.clock_ticks = rng.getrandbits(40)
    for snap_id in rng.sample(range(1, 21), rng.randint(0, 5)):
        inode = Inode(0, FileType.REGULAR)
        inode.size = rng.getrandbits(30)
        info.snapshots.append(SnapshotRecord(
            snap_id, "s%d" % snap_id, rng.getrandbits(30), snap_id, inode))
    return info


def _fail(volume, failed):
    """Fail every block of data disk ``failed`` — ``(group, disk)`` — if
    there is one."""
    if failed is not None:
        disk = volume.groups[failed[0]].data_disks[failed[1]]
        for block in range(disk.nblocks):
            disk.fail_block(block)


def _volume(case, failed):
    """The case's volume: some blocks written (the fsinfo region among
    them), a small cache warmed by reads, then ``failed`` failed."""
    ngroups, ndata, per_disk, capacity, seed = case
    rng = random.Random(seed)
    volume = RaidVolume(make_geometry(ngroups, ndata, per_disk, block_size=BS),
                        name="v")
    for _write in range(rng.randint(1, 4)):
        at = rng.randrange(volume.nblocks)
        count = rng.randint(1, min(12, volume.nblocks - at))
        volume.write_run(at, rng.randbytes(count * BS))
    volume.cache = BlockCache(capacity)
    for _read in range(rng.randint(0, 12)):
        volume.read_block(rng.randrange(min(volume.nblocks, 16)))
    _fail(volume, failed)
    volume.recorder = IoRecorder()
    return volume


def _outcome(write):
    try:
        write()
    except (PowerLossError, RaidError) as error:
        return type(error).__name__, str(error)
    return None


def _state(volume):
    cache = volume.cache
    return (volume_digest(volume), volume.recorder.drain(),
            list(cache._blocks), cache.hits, cache.misses,
            volume.bad_blocks(), volume._write_fuse)


@st.composite
def _cases(draw):
    ngroups = draw(st.integers(1, 3))
    ndata = draw(st.integers(1, 10))
    # Both copies fit: at least 2 * FSINFO_BLOCKS blocks in all.
    per_disk = draw(st.integers(-(-2 * FSINFO_BLOCKS // (ngroups * ndata)), 12))
    return (ngroups, ndata, per_disk, draw(st.integers(1, 16)),
            draw(st.integers(0, 2 ** 32)))


def _faults(case):
    """No fault, then one failed data disk of the case's geometry."""
    ngroups, ndata, _per_disk, _capacity, seed = case
    rng = random.Random(seed + 1)
    return [None, (rng.randrange(ngroups), rng.randrange(ndata))]


@_fast
@given(_cases())
def test_write_to_equals_the_block_at_a_time_writer(case):
    info = _info(random.Random(case[-1]))
    for failed in _faults(case):
        for fuse in [None] + list(range(1, 10)):
            twins = []
            for write in (info.write_to, lambda v: _old_write_to(info, v)):
                volume = _volume(case, failed)
                if fuse is not None:
                    volume.arm_write_fuse(fuse)
                twins.append((_outcome(lambda: write(volume)), _state(volume)))
            assert twins[0] == twins[1]
            outcome = twins[0][0]
            assert (outcome is None) == (fuse is None or fuse > 2 * FSINFO_BLOCKS)


@_fast
@given(_cases(), st.integers(1, 2 * FSINFO_BLOCKS))
def test_repair_equals_the_block_at_a_time_repair(case, fuse):
    """A CP torn at ``fuse`` leaves the copies divergent; repairing a
    losing copy as one run leaves what repairing it a block at a time
    left."""
    rng = random.Random(case[-1])
    old, new = _info(rng), _info(rng)
    new.cp_count = old.cp_count + 1
    for failed in _faults(case):
        twins = []
        for wrap in (lambda volume: volume, _BlockAtATime):
            volume = _volume(case, None)
            old.write_to(volume)
            _fail(volume, failed)
            volume.arm_write_fuse(fuse)
            _outcome(lambda: new.write_to(volume))
            volume.disarm_write_fuse()
            volume.recorder.discard()
            read = []
            outcome = _outcome(lambda: read.append(
                FsInfo.read_and_repair(wrap(volume))))
            twins.append((outcome, [(info.pack(), repaired)
                                    for info, repaired in read],
                          _state(volume)))
        assert twins[0] == twins[1]
        # Repaired, both copies read as the winner, and a rewritten one
        # is its image (a torn copy that still checks keeps its padding).
        (info, repaired), = read
        image = info.pack()
        copies = [volume.read_run(base, FSINFO_BLOCKS)
                  for base in (FSINFO_PRIMARY, FSINFO_BACKUP)]
        assert [FsInfo.unpack(raw).pack() for raw in copies] == [image] * 2
        assert repaired == 0 or image in copies


def test_each_copy_is_its_own_write():
    """The primary, then the backup: a crash between the two writes still
    leaves the copies divergent, which ``read_and_repair`` mends."""
    volume = RaidVolume(make_geometry(1, 8, 4, block_size=BS), name="v")
    volume.recorder = IoRecorder()
    _info(random.Random(1)).write_to(volume)
    assert volume.recorder._pending == [
        (WRITE, FSINFO_PRIMARY, FSINFO_BLOCKS),
        (WRITE, FSINFO_BACKUP, FSINFO_BLOCKS)]
