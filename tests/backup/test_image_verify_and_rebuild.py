"""Image verification and RAID rebuild tests."""

import pytest

from repro.backup import ImageDump, drain_engine
from repro.backup.physical import compare_image
from repro.errors import RaidError
from repro.wafl.consts import BLOCK_SIZE
from repro.wafl.fsck import fsck

from tests.conftest import make_drive, make_fs, populate_small_tree


class TestCompareImage:
    def test_fresh_image_matches(self):
        fs = make_fs()
        populate_small_tree(fs)
        drive = make_drive()
        drain_engine(ImageDump(fs, drive, snapshot_name="v").run())
        assert compare_image(fs.volume, drive) == []

    def test_snapshot_protects_verification_across_changes(self):
        """Because the dumped snapshot pins its blocks, the image still
        verifies even after the active file system changes."""
        fs = make_fs()
        populate_small_tree(fs)
        drive = make_drive()
        drain_engine(ImageDump(fs, drive, snapshot_name="pin").run())
        fs.write_file("/docs/readme.txt", b"post-dump edit", 0)
        fs.consistency_point()
        assert compare_image(fs.volume, drive) == []

    def test_detects_changed_blocks_after_snapshot_deleted(self):
        fs = make_fs()
        fs.create("/f", b"A" * (20 * BLOCK_SIZE))
        drive = make_drive()
        drain_engine(ImageDump(fs, drive, snapshot_name="gone").run())
        fs.snapshot_delete("gone")
        # With the snapshot gone nothing pins the dumped blocks: clobber
        # one of them directly (as block reuse eventually would).
        victim = int(fs.inode(fs.namei("/f")).direct[0])
        fs.volume.write_block(victim, b"\x5a" * BLOCK_SIZE)
        problems = compare_image(fs.volume, drive)
        assert any("differs" in p for p in problems)

    def test_detects_tape_corruption(self):
        fs = make_fs()
        fs.create("/f", b"payload" * 2000)
        drive = make_drive()
        drain_engine(ImageDump(fs, drive, snapshot_name="c").run())
        cartridge = drive.stacker.cartridges[0]
        middle = cartridge.used // 2  # inside a chunk
        cartridge.overwrite(middle,
                            bytes([cartridge.read_at(middle, 1)[0] ^ 0xFF]))
        problems = compare_image(fs.volume, drive)
        assert any("corrupt" in p for p in problems)

    def test_multidrive_verification(self):
        fs = make_fs()
        populate_small_tree(fs)
        drives = [make_drive("v%d" % i) for i in range(2)]
        drain_engine(ImageDump(fs, drives, snapshot_name="m").run())
        assert compare_image(fs.volume, drives) == []


class TestRaidRebuild:
    def test_rebuild_restores_full_redundancy(self):
        fs = make_fs()
        populate_small_tree(fs)
        fs.consistency_point()
        group = fs.volume.groups[0]
        failed = group.data_disks[2]
        for stripe in range(failed.nblocks):
            failed.fail_block(stripe)
        spare = group.rebuild_disk(2)
        assert spare is group.data_disks[2]
        # Data reads no longer need reconstruction...
        before = group.reconstructed_reads
        if fs.volume.cache is not None:
            fs.volume.cache.clear()
        assert fs.read_file("/src/main.c") == bytes(range(256)) * 64
        assert group.reconstructed_reads == before
        # ... and the group can survive a NEW failure.
        other = group.data_disks[0]
        for stripe in range(other.nblocks):
            other.fail_block(stripe)
        assert fs.read_file("/src/main.c") == bytes(range(256)) * 64
        assert fsck(fs).clean

    def test_rebuild_bad_index(self):
        fs = make_fs()
        with pytest.raises(RaidError):
            fs.volume.groups[0].rebuild_disk(99)

    def test_rebuild_is_bit_faithful(self):
        fs = make_fs()
        fs.create("/data", bytes(range(256)) * 160)
        fs.consistency_point()
        group = fs.volume.groups[0]
        original = {
            stripe: group.data_disks[1].read_block(stripe)
            for stripe in range(group.data_disks[1].nblocks)
            if group.data_disks[1].is_allocated(stripe)
        }
        for stripe in range(group.data_disks[1].nblocks):
            group.data_disks[1].fail_block(stripe)
        group.rebuild_disk(1)
        for stripe, data in original.items():
            assert group.data_disks[1].read_block(stripe) == data
