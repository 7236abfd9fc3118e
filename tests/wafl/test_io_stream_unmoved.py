"""The block map's host-side rewrite moved no simulated I/O.

Two checks on one fixed-seed volume whose map file reaches the double
indirect level: ``mount`` issues the accesses the byte-image route it
replaced issued (same recorder events, same buffer-cache traffic, equal
words), and a snapshot create/delete cycle — whole-map consistency
points through ``write_cow_run`` and the strided RAID column writes —
leaves the disks, their counters and the access stream at values pinned
from the commit before the rewrite.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np

from repro.chaos.verify import volume_digest
from repro.raid.layout import make_geometry
from repro.raid.volume import RaidVolume
from repro.storage.device import IoRecorder
from repro.wafl.consts import INO_BLOCKMAP
from repro.wafl.filesystem import WaflFilesystem
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


# Printed by ``python tests/wafl/test_io_stream_unmoved.py`` at the commit
# before the block-map rewrite (PR 12).
PINNED = (
    "093093321a1edae8b0ffb861973b708b580452c359e6b2e3cff35d5f2edea6ab",
    [(62, 814), (60, 812), (62, 814), (62, 814), (60, 812), (58, 810),
     (60, 812), (59, 811), (271, 1023)] + [(0, 0)] * 9,
    "18e99118915d418519c409695829bc4a7de8c12be90777edf2aa0a4667b9fb65",
    0, 4922, [1230, 1204],
    "0cac236833b5441193630dfffe0db70355aa837f554aebe622c0e5e3e99d9bf6",
)


def test_snapshot_cycle_leaves_the_pinned_disks_and_stream():
    assert snapshot_cycle() == PINNED


if __name__ == "__main__":
    print(repr(snapshot_cycle()))
