"""fsinfo serialization and the block buffer cache."""

import tracemalloc

import pytest

from repro.errors import FilesystemError, SnapshotError
from repro.wafl.buffercache import BlockCache
from repro.wafl.consts import FSINFO_BLOCKS
from repro.wafl.fsinfo import FsInfo, SnapshotRecord
from repro.wafl.inode import FileType, Inode


class TestFsInfo:
    def make_info(self):
        info = FsInfo(4096, 10000)
        info.cp_count = 42
        info.alloc_cursor = 777
        info.next_generation = 9
        info.clock_ticks = 123
        info.inofile_inode = Inode(0, FileType.REGULAR)
        info.inofile_inode.size = 8192
        info.inofile_inode.direct[0] = 55
        return info

    def test_pack_unpack_roundtrip(self):
        info = self.make_info()
        recovered = FsInfo.unpack(info.pack())
        assert recovered.cp_count == 42
        assert recovered.alloc_cursor == 777
        assert recovered.next_generation == 9
        assert recovered.inofile_inode.direct[0] == 55
        assert recovered.inofile_inode.size == 8192

    def test_snapshot_table_roundtrip(self):
        info = self.make_info()
        root = Inode(0, FileType.REGULAR)
        root.direct[0] = 99
        info.snapshots.append(SnapshotRecord(3, "nightly.0", 100, 7, root))
        recovered = FsInfo.unpack(info.pack())
        assert len(recovered.snapshots) == 1
        record = recovered.snapshots[0]
        assert record.snap_id == 3
        assert record.name == "nightly.0"
        assert record.cp_count == 7
        assert record.inofile_inode.direct[0] == 99

    def test_checksum_detects_corruption(self):
        raw = bytearray(self.make_info().pack())
        raw[100] ^= 0xFF
        with pytest.raises(FilesystemError):
            FsInfo.unpack(bytes(raw))

    def test_bad_magic_rejected(self):
        raw = b"NOTMAGIC" + self.make_info().pack()[8:]
        with pytest.raises(FilesystemError):
            FsInfo.unpack(raw)

    def test_image_fits_reserved_region(self):
        info = self.make_info()
        for index in range(20):
            info.snapshots.append(
                SnapshotRecord(index + 1, "s%d" % index, 0, 0,
                               Inode(0, FileType.REGULAR))
            )
        assert len(info.pack()) == FSINFO_BLOCKS * 4096

    def test_free_plane_allocation(self):
        info = self.make_info()
        assert info.free_snapshot_plane() == 1
        info.snapshots.append(
            SnapshotRecord(1, "a", 0, 0, Inode(0, FileType.REGULAR))
        )
        assert info.free_snapshot_plane() == 2

    def test_find_by_name_and_id(self):
        info = self.make_info()
        record = SnapshotRecord(5, "x", 0, 0, Inode(0, FileType.REGULAR))
        info.snapshots.append(record)
        assert info.find_snapshot("x") is record
        assert info.find_snapshot("y") is None

    def test_long_snapshot_name_rejected(self):
        with pytest.raises(SnapshotError):
            SnapshotRecord(1, "n" * 40, 0, 0, Inode(0, FileType.REGULAR)).pack()

    def test_invalid_plane_rejected(self):
        with pytest.raises(SnapshotError):
            SnapshotRecord(0, "x", 0, 0, Inode(0, FileType.REGULAR))


class TestBlockCache:
    """The cache keeps residency, LRU order and counts — never bytes."""

    def test_get_put(self):
        cache = BlockCache(4)
        cache.put(1)
        assert cache.get(1) is True
        assert cache.get(2) is False
        assert cache.hits == 1
        assert cache.misses == 1

    def test_lru_eviction_order(self):
        cache = BlockCache(2)
        cache.put(1)
        cache.put(2)
        cache.get(1)  # 1 becomes most recent
        cache.put(3)  # evicts 2
        assert cache.get(2) is False
        assert cache.get(1) is True
        assert cache.evictions == 1

    def test_a_long_run_does_not_pin_its_whole_buffer(self):
        cache = BlockCache(8)
        cache.put(5000)
        tracemalloc.start()
        try:
            before, _peak = tracemalloc.get_traced_memory()
            cache.put_run(40, 1000)
            held, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The eight blocks that fit are the run's last eight, and all the
        # cache holds for them is their numbers: a 4 MB run leaves bytes,
        # not blocks, behind.
        assert held - before < 8 * 200
        assert len(cache) == 8 and cache.evictions == 1 + 992
        assert cache.get_run(1032, 8) is True
        assert cache.get(1031) is False and cache.get(5000) is False

    def test_every_cold_lookup_is_one_miss(self):
        cache = BlockCache(8)
        cache.put_run(1, 4)
        assert cache.get_run(1, 4) is True
        assert cache.get_run(3, 4) is False  # 5 and 6 are cold: one miss
        assert cache.get_run(7, 1) is False
        assert cache.get(9) is False
        assert (cache.hits, cache.misses) == (4, 3)
        assert cache.hit_rate == pytest.approx(4 / 7)

    def test_one_block_run_is_the_single_block_lookup(self):
        cache = BlockCache(2)
        cache.put(1)
        cache.put_run(2, 1)
        assert cache.get_run(1, 1) is True  # 1 refreshed, like get
        cache.put(3)  # evicts 2
        assert cache.get(2) is False
        assert cache.get(1) is True
        assert (cache.hits, cache.misses, cache.evictions) == (2, 1, 1)

    def test_invalidate_and_clear(self):
        cache = BlockCache(4)
        cache.put(2)
        cache.clear()
        assert len(cache) == 0

    def test_hit_rate(self):
        cache = BlockCache(4)
        cache.put(1)
        cache.get(1)
        cache.get(9)
        assert cache.hit_rate == pytest.approx(0.5)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            BlockCache(0)


class TestCacheOnVolume:
    def test_cache_hides_reads_from_recorder(self):
        from repro.storage.device import IoRecorder
        from tests.conftest import make_volume

        volume = make_volume()
        volume.cache = BlockCache(64)
        volume.write_block(10, b"z" * 4096)
        recorder = IoRecorder()
        volume.recorder = recorder
        volume.read_block(10)  # cache hit: silent
        assert recorder.drain() == []
        volume.cache.clear()
        volume.read_block(10)  # cold: recorded
        assert recorder.drain() == [("read", 10, 1)]

    def test_uncached_reads_flag_bypasses(self):
        from tests.conftest import make_volume

        volume = make_volume()
        volume.cache = BlockCache(64)
        volume.write_block(3, b"q" * 4096)
        volume.uncached_reads = True
        from repro.storage.device import IoRecorder

        recorder = IoRecorder()
        volume.recorder = recorder
        volume.read_block(3)
        assert recorder.drain() == [("read", 3, 1)]

    def test_a_restored_cache_checkpoint_cannot_serve_stale_bytes(self):
        """Chaos recovery puts a cache clone back after later writes
        (``replay_dump``): the clone says what is resident, the store
        says what the bytes are."""
        from tests.conftest import make_volume

        volume = make_volume()
        volume.cache = BlockCache(64)
        volume.write_block(5, b"a" * 4096)
        checkpoint = volume.cache.clone()
        volume.write_block(5, b"b" * 4096)
        volume.cache = checkpoint
        assert volume.read_block(5) == b"b" * 4096
        assert (checkpoint.hits, checkpoint.misses) == (1, 0)

    def test_a_hit_is_blind_to_the_device(self):
        """No ``reads`` count, no fault lookup, no reconstruction — and
        the same bytes, because a media error leaves them in the store."""
        from tests.conftest import make_volume

        volume = make_volume()
        volume.cache = BlockCache(64)
        payload = bytes(range(256)) * (8 * 4096 // 256)
        volume.write_run(16, payload)
        location = volume.locate(18)
        group = volume.groups[location.group_index]
        group.data_disks[location.disk_index].fail_block(location.disk_block)
        reads = [disk.reads for disk in group.data_disks]
        assert volume.read_run(16, 8) == payload
        assert volume.read_block(18) == payload[2 * 4096 : 3 * 4096]
        assert [disk.reads for disk in group.data_disks] == reads
        assert group.reconstructed_reads == 0
        volume.cache.clear()
        assert volume.read_run(16, 8) == payload   # cold: through parity
        assert group.reconstructed_reads == 1
