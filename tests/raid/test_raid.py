"""Unit tests for RAID layout, groups, and volumes."""

import pytest

from repro.errors import RaidError
from repro.raid.group import RaidGroup
from repro.raid.layout import (
    GroupGeometry,
    geometry_for_capacity,
    locate,
    make_geometry,
)
from repro.raid.volume import RaidVolume
from repro.storage.device import IoRecorder
from repro.units import MB

BS = 4096


class TestLayout:
    def test_make_geometry_counts(self):
        geometry = make_geometry(3, 10, 1000)
        assert geometry.data_blocks == 30000
        assert geometry.size_bytes == 30000 * BS
        assert len(geometry.groups) == 3

    def test_geometry_for_capacity_has_slack(self):
        geometry = geometry_for_capacity(10 * MB, ngroups=2, ndata_disks=4)
        assert geometry.size_bytes >= 10 * MB * 1.25

    def test_locate_stripes_horizontally(self):
        geometry = make_geometry(1, 4, 100)
        loc = locate(geometry, 0)
        assert (loc.disk_index, loc.disk_block) == (0, 0)
        loc = locate(geometry, 5)
        assert (loc.disk_index, loc.disk_block) == (1, 1)

    def test_locate_crosses_groups(self):
        geometry = make_geometry(2, 4, 100)
        loc = locate(geometry, 400)  # first block of group 1
        assert loc.group_index == 1
        assert loc.group_block == 0

    def test_locate_out_of_range(self):
        geometry = make_geometry(1, 4, 100)
        with pytest.raises(RaidError):
            locate(geometry, 400)
        with pytest.raises(RaidError):
            locate(geometry, -1)

    def test_geometry_equality_is_structural(self):
        assert make_geometry(2, 4, 100) == make_geometry(2, 4, 100)
        assert make_geometry(2, 4, 100) != make_geometry(2, 4, 101)

    def test_describe(self):
        text = make_geometry(3, 10, 50).describe()
        assert "3 groups" in text
        assert "33 disks" in text  # 3 * (10 + parity)


class TestRaidGroup:
    def test_parity_maintained_on_writes(self):
        group = RaidGroup(GroupGeometry(4, 50), BS, name="g")
        for block in range(8):
            group.write_block(block, bytes([block]) * BS)
        assert group.verify_parity()

    def test_reconstruction_after_disk_failure(self):
        group = RaidGroup(GroupGeometry(4, 50), BS, name="g")
        data = {block: bytes([block + 1]) * BS for block in range(12)}
        for block, payload in data.items():
            group.write_block(block, payload)
        # Fail every block of one data disk.
        for stripe in range(50):
            group.data_disks[2].fail_block(stripe)
        for block, payload in data.items():
            assert group.read_block(block) == payload
        assert group.reconstructed_reads > 0

    def test_write_to_failed_disk_reconstructs_old(self):
        group = RaidGroup(GroupGeometry(4, 50), BS, name="g")
        group.write_block(2, b"a" * BS)
        group.data_disks[2].fail_block(0)
        group.write_block(2, b"b" * BS)
        assert group.read_block(2) == b"b" * BS

    def test_double_failure_raises(self):
        group = RaidGroup(GroupGeometry(4, 50), BS, name="g")
        group.write_block(0, b"a" * BS)
        group.data_disks[0].fail_block(0)
        group.data_disks[1].fail_block(0)
        with pytest.raises(RaidError, match="double failure in stripe 0"):
            group.read_block(0)

    def test_a_data_and_the_parity_member_unreadable_is_a_double_failure(self):
        group = RaidGroup(GroupGeometry(4, 50), BS, name="g")
        group.write_block(0, b"a" * BS)
        group.data_disks[0].fail_block(0)
        group.parity_disk.fail_block(0)
        with pytest.raises(RaidError, match="double failure in stripe 0"):
            group.read_block(0)
        with pytest.raises(RaidError, match="double failure in stripe 0"):
            group.rebuild_disk(0)
        assert group.bad_blocks() == [(0, 0), (-1, 0)]

    def test_scrub_repairs_corrupted_parity(self):
        group = RaidGroup(GroupGeometry(4, 50), BS, name="g")
        group.write_block(0, b"x" * BS)
        group.parity_disk.write_block(0, b"\xff" * BS)
        assert not group.verify_parity()
        repaired = group.scrub()
        assert repaired >= 1
        assert group.verify_parity()

    def test_scrub_skips_a_stripe_with_an_unreadable_data_member(self):
        group = RaidGroup(GroupGeometry(4, 50), BS, name="g")
        for block in range(16):
            group.write_block(block, bytes([block + 1]) * BS)
        group.data_disks[1].fail_block(3)
        assert group.verify_parity()
        assert group.scrub() == 0
        assert group.verify_parity()
        assert group.read_block(3 * 4 + 1) == bytes([14]) * BS
        assert group.bad_blocks() == [(1, 3)]

    def test_scrub_rewrites_an_unreadable_parity_member(self):
        group = RaidGroup(GroupGeometry(4, 50), BS, name="g")
        for block in range(16):
            group.write_block(block, bytes([block + 1]) * BS)
        group.parity_disk.fail_block(2)
        assert group.scrub() == 1
        assert group.bad_blocks() == []
        assert group.verify_parity()

    def test_rebuild_with_a_second_failed_member_raises(self):
        group = RaidGroup(GroupGeometry(4, 50), BS, name="g")
        for block in range(16):
            group.write_block(block, bytes([block + 1]) * BS)
        for stripe in range(50):
            group.data_disks[0].fail_block(stripe)
        group.data_disks[2].fail_block(1)
        with pytest.raises(RaidError):
            group.rebuild_disk(0)

    def test_out_of_range_block(self):
        group = RaidGroup(GroupGeometry(4, 50), BS, name="g")
        with pytest.raises(RaidError):
            group.read_block(200)


class TestRaidVolume:
    def test_block_roundtrip_across_groups(self):
        volume = RaidVolume(make_geometry(2, 4, 100), name="v")
        volume.write_block(399, b"end-g0" + bytes(BS - 6))
        volume.write_block(400, b"start-g1" + bytes(BS - 8))
        assert volume.read_block(399).startswith(b"end-g0")
        assert volume.read_block(400).startswith(b"start-g1")

    def test_run_roundtrip_spanning_groups(self):
        volume = RaidVolume(make_geometry(2, 4, 100), name="v")
        payload = b"".join(bytes([i % 256]) * BS for i in range(398, 402 + 1))
        # Run 398..402 crosses the group boundary at 400.
        volume.write_run(398, payload)
        assert volume.read_run(398, 5) == payload

    def test_recorder_sees_accesses(self):
        volume = RaidVolume(make_geometry(1, 4, 100), name="v")
        recorder = IoRecorder()
        volume.recorder = recorder
        volume.write_run(10, bytes(3 * BS))
        volume.read_run(10, 3)
        volume.read_block(50)
        accesses = recorder.drain()
        assert ("write", 10, 3) in accesses
        assert ("read", 10, 3) in accesses
        assert ("read", 50, 1) in accesses

    def test_unaligned_run_write_rejected(self):
        volume = RaidVolume(make_geometry(1, 4, 100), name="v")
        with pytest.raises(RaidError):
            volume.write_run(0, b"x" * 100)

    def test_compatible_with(self):
        volume = RaidVolume(make_geometry(2, 4, 100), name="v")
        assert volume.compatible_with(make_geometry(2, 4, 100))
        assert not volume.compatible_with(make_geometry(2, 4, 99))

    def test_clone_empty(self):
        volume = RaidVolume(make_geometry(1, 4, 100), name="v")
        volume.write_block(1, b"q" * BS)
        clone = volume.clone_empty()
        assert clone.geometry == volume.geometry
        assert clone.read_block(1) == bytes(BS)

    def test_parity_survives_mixed_io(self):
        volume = RaidVolume(make_geometry(2, 3, 60), name="v")
        import random

        rng = random.Random(5)
        for _ in range(200):
            block = rng.randrange(volume.nblocks)
            volume.write_block(block, bytes([rng.randrange(256)]) * BS)
        assert volume.verify_parity()

    @pytest.mark.parametrize("start, nblocks", [(1, 1), (0, 2), (0, 3), (2, 2)])
    def test_a_write_over_an_unreadable_parity_block_reconstructs_parity(
            self, start, nblocks):
        """A partial stripe cannot read-modify-write without its parity:
        it takes parity from the stripe's data columns instead, as a full
        stripe does, and the write clears the mark."""
        volume = RaidVolume(make_geometry(1, 3, 50), name="v")
        before = b"".join(bytes([i + 1]) * BS for i in range(6))
        volume.write_run(0, before)
        group = volume.groups[0]
        group.parity_disk.fail_block(0)
        payload = b"".join(bytes([0x40 + i]) * BS for i in range(nblocks))
        volume.write_run(start, payload)
        expected = (before[: start * BS] + payload
                    + before[(start + nblocks) * BS :])
        assert volume.read_run(0, 6) == expected
        assert group.bad_blocks() == []
        assert group.verify_parity()

    def test_a_write_over_unreadable_parity_and_data_writes_nothing(self):
        volume = RaidVolume(make_geometry(1, 3, 50), name="v")
        volume.write_run(0, b"\x07" * (3 * BS))
        group = volume.groups[0]
        group.parity_disk.fail_block(0)
        group.data_disks[2].fail_block(0)
        with pytest.raises(RaidError, match="double failure in stripe 0"):
            volume.write_block(0, b"\x09" * BS)
        assert group.data_disks[0].block(0) == b"\x07" * BS
        assert group.bad_blocks() == [(2, 0), (-1, 0)]
        # The unreadable column itself may be overwritten: parity comes
        # from the columns that are still readable and the new data.
        volume.write_run(1, b"\x05" * (2 * BS))
        assert group.bad_blocks() == []
        assert volume.read_run(0, 3) == b"\x07" * BS + b"\x05" * (2 * BS)
        assert group.verify_parity()

    def test_degraded_volume_still_serves(self):
        volume = RaidVolume(make_geometry(1, 4, 100), name="v")
        volume.write_run(0, b"\x07" * (8 * BS))
        volume.groups[0].data_disks[1].fail_block(0)  # block 1 lives here
        assert volume.read_block(1) == b"\x07" * BS
