"""The block map's host-side rewrite moved no simulated I/O.

Three checks on one fixed-seed volume whose map file reaches the double
indirect level: ``mount`` issues the accesses the byte-image route it
replaced issued (same recorder events, same buffer-cache traffic, equal
words); a snapshot create/delete cycle — consistency points through
``write_cow_run`` and the strided RAID column writes — leaves the disks,
their counters and the access stream at pinned values; and that cycle
writes in proportion to the map blocks that hold data, not to the map.
The mount pin dates from the commit before the rewrite.  The cycle's
was taken again when a snapshot operation stopped dirtying every map
block: it now writes only the map blocks a word of which changed.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np

from repro.chaos.verify import volume_digest
from repro.raid.layout import make_geometry
from repro.raid.volume import RaidVolume
from repro.storage.device import IoRecorder
from repro.wafl.consts import BLOCKMAP_ENTRIES_PER_BLOCK, INO_BLOCKMAP
from repro.wafl.filesystem import WaflFilesystem
from repro.wafl.fsck import fsck, fsck_snapshot
from repro.wafl.fsinfo import FsInfo


def aged_fs() -> WaflFilesystem:
    """1.2 Mi blocks (1200 map fblocks: direct, indirect and one double
    indirect child), a few dozen files, then deletes and overwrites so
    the free space is in pieces."""
    volume = RaidVolume(make_geometry(2, 8, 76800), name="pin")
    fs = WaflFilesystem.format(volume, cache_blocks=4096)
    rng = random.Random(14)
    for index in range(40):
        fs.create("/f%d" % index, rng.randbytes(rng.randint(1, 60000)))
    fs.consistency_point()
    for index in range(0, 40, 3):
        fs.unlink("/f%d" % index)
    for index in range(1, 40, 3):
        fs.write_file("/f%d" % index, rng.randbytes(9000),
                      offset=rng.randint(0, 20000))
    fs.consistency_point()
    return fs


def cache_state(volume):
    cache = volume.cache
    return cache.hits, cache.misses, cache.evictions, list(cache._blocks)


def byte_image_mount(volume):
    """The route ``mount`` took before it read into the adopted array:
    the map file as one ``bytes`` image, then a converted copy."""
    fsinfo, _repairs = FsInfo.read_and_repair(volume)
    fs = WaflFilesystem(volume, fsinfo, None)
    raw = fs._read_tree_bytes(fs._load_inode(INO_BLOCKMAP))
    words = np.frombuffer(raw[: volume.nblocks * 4],
                          dtype="<u4").astype(np.uint32)
    fs._scan_inodes()
    return words


def test_mount_reads_what_the_byte_image_route_read():
    source = aged_fs()
    for cold in (False, True):
        volumes = [source.volume.clone() for _ in range(2)]
        for volume in volumes:
            if cold:
                volume.cache.clear()
            volume.recorder = IoRecorder()
        words = byte_image_mount(volumes[0])
        mounted = WaflFilesystem.mount(volumes[1])
        assert volumes[1].recorder._pending == volumes[0].recorder._pending
        assert cache_state(volumes[1]) == cache_state(volumes[0])
        assert np.array_equal(mounted.blockmap.words, words)
        assert np.array_equal(mounted.blockmap.words, source.blockmap.words)
        assert mounted.blockmap._starts == source.blockmap._starts
        assert (mounted.blockmap.active_block_count()
                == source.blockmap.active_block_count())
        if cold:
            assert volumes[1].recorder.total_read_blocks >= 1200


def test_mount_builds_exactly_one_block_map(monkeypatch):
    from repro.wafl import blockmap as blockmap_module

    volume = aged_fs().volume
    built = []
    adopt = blockmap_module.BlockMap.deserialize.__func__

    def counting_init(self, *args, **kwargs):
        built.append("init")
        raise AssertionError("mount must not build a boot map")

    def counting_deserialize(cls, *args, **kwargs):
        built.append("deserialize")
        return adopt(cls, *args, **kwargs)

    monkeypatch.setattr(blockmap_module.BlockMap, "__init__", counting_init)
    monkeypatch.setattr(blockmap_module.BlockMap, "deserialize",
                        classmethod(counting_deserialize))
    WaflFilesystem.mount(volume)
    assert built == ["deserialize"]


def snapshot_cycle():
    """``(volume digest, per-member (reads, writes), access-stream hash,
    blocks read, blocks written, blocks each delete freed, words hash)``
    after two snapshots are created over a changing tree and deleted."""
    fs = aged_fs()
    volume = fs.volume
    volume.recorder = IoRecorder()
    events = []

    def drain():
        events.extend(volume.recorder._pending)
        volume.recorder.discard()

    rng = random.Random(15)
    fs.snapshot_create("a")
    drain()
    for index in range(2, 40, 3):
        fs.write_file("/f%d" % index, rng.randbytes(5000),
                      offset=rng.randint(0, 30000))
    fs.unlink("/f1")
    fs.snapshot_create("b")
    drain()
    freed = [fs.snapshot_delete("a"), fs.snapshot_delete("b")]
    drain()
    counters = [(disk.reads, disk.writes)
                for group in volume.groups
                for disk in group.data_disks + [group.parity_disk]]
    stream = hashlib.sha256(repr(events).encode()).hexdigest()
    words = hashlib.sha256(fs.blockmap.words.tobytes()).hexdigest()
    return (volume_digest(volume), counters, stream,
            volume.recorder.total_read_blocks,
            volume.recorder.total_written_blocks, freed, words)


# Printed by ``python tests/wafl/test_io_stream_unmoved.py``: 102 blocks
# written, where rewriting the whole map per snapshot operation wrote 4922.
PINNED = (
    "c832702bd0a41e6de3dd167d65347f8e1be15f65eafb7c3ffda623198d764203",
    [(53, 208), (56, 211), (58, 213), (55, 210), (55, 210), (53, 208),
     (53, 208), (56, 211), (257, 412)] + [(0, 0)] * 9,
    "a9ebf06830eb32394d949b2bc43f121e6264df854c598ac625c6a45dd266e5ea",
    0, 102, [29, 3],
    "99d6d93916852181dd198d5f66a19f26abe52e3c160e22fb04bf204d30bd35f3",
)


def test_snapshot_cycle_leaves_the_pinned_disks_and_stream():
    """The snapshot cycle writes only the map blocks that changed."""
    assert snapshot_cycle() == PINNED


def test_snapshot_writes_follow_the_data_not_the_address_space():
    """On a mostly empty volume two snapshot creates and a delete — five
    consistency points — write a few blocks per map fblock that holds
    data, and a crash afterwards mounts the map the live system had."""
    fs = aged_fs()
    volume, blockmap = fs.volume, fs.blockmap
    assert blockmap.nblocks >= 1 << 20
    holding = np.count_nonzero(np.bitwise_or.reduceat(
        blockmap.words,
        np.arange(0, blockmap.nblocks, BLOCKMAP_ENTRIES_PER_BLOCK)))
    assert 0 < holding * 100 < blockmap.n_fblocks()
    volume.recorder = IoRecorder()
    fs.snapshot_create("kept")
    fs.snapshot_create("dropped")
    fs.snapshot_delete("dropped")
    written = volume.recorder.total_written_blocks
    assert 0 < written <= 32 * holding < blockmap.n_fblocks()
    words = blockmap.words.copy()
    fs.crash()
    mounted = WaflFilesystem.mount(volume)
    assert np.array_equal(mounted.blockmap.words, words)
    assert fsck(mounted).clean
    assert fsck_snapshot(mounted, "kept").clean


if __name__ == "__main__":
    print(repr(snapshot_cycle()))
