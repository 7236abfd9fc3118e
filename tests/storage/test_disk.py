"""Unit tests for VirtualDisk and DiskModel."""

import pytest

from repro.errors import StorageError
from repro.storage.disk import DEFAULT_BLOCK_SIZE, DiskModel, VirtualDisk


class TestVirtualDisk:
    def test_unwritten_blocks_read_zero(self):
        disk = VirtualDisk(10)
        assert disk.read_block(3) == bytes(DEFAULT_BLOCK_SIZE)

    def test_write_read_roundtrip(self):
        disk = VirtualDisk(10)
        data = b"x" * DEFAULT_BLOCK_SIZE
        disk.write_block(5, data)
        assert disk.read_block(5) == data

    def test_out_of_range_rejected(self):
        disk = VirtualDisk(10)
        with pytest.raises(StorageError):
            disk.read_block(10)
        with pytest.raises(StorageError):
            disk.write_block(-1, bytes(DEFAULT_BLOCK_SIZE))

    def test_short_write_rejected(self):
        disk = VirtualDisk(10)
        with pytest.raises(StorageError):
            disk.write_block(0, b"short")

    def test_zero_write_keeps_store_sparse(self):
        disk = VirtualDisk(10)
        disk.write_block(1, b"a" * DEFAULT_BLOCK_SIZE)
        disk.write_block(1, bytes(DEFAULT_BLOCK_SIZE))
        assert not disk.is_allocated(1)
        assert disk.read_block(1) == bytes(DEFAULT_BLOCK_SIZE)

    def test_fail_block_raises_then_heals(self):
        disk = VirtualDisk(10)
        disk.write_block(2, b"b" * DEFAULT_BLOCK_SIZE)
        disk.fail_block(2)
        with pytest.raises(StorageError):
            disk.read_block(2)
        disk.heal_block(2)
        assert disk.read_block(2) == b"b" * DEFAULT_BLOCK_SIZE

    def test_write_clears_failure(self):
        disk = VirtualDisk(10)
        disk.fail_block(4)
        disk.write_block(4, b"c" * DEFAULT_BLOCK_SIZE)
        assert disk.read_block(4) == b"c" * DEFAULT_BLOCK_SIZE

    def test_counters(self):
        disk = VirtualDisk(10)
        disk.write_block(0, bytes(DEFAULT_BLOCK_SIZE))
        disk.read_block(0)
        disk.read_block(1)
        assert disk.writes == 1
        assert disk.reads == 2


class TestCloneFaultIsolation:
    """clone() copies the fault set copy-on-write, like the contents."""

    def test_clone_inherits_existing_faults(self):
        disk = VirtualDisk(10)
        disk.fail_block(3)
        clone = disk.clone()
        with pytest.raises(StorageError):
            clone.read_block(3)

    def test_fault_in_clone_never_leaks_to_parent(self):
        disk = VirtualDisk(10)
        disk.write_block(2, b"p" * DEFAULT_BLOCK_SIZE)
        clone = disk.clone()
        clone.fail_block(2)
        with pytest.raises(StorageError):
            clone.read_block(2)
        assert disk.read_block(2) == b"p" * DEFAULT_BLOCK_SIZE

    def test_fault_in_parent_never_leaks_to_clone(self):
        disk = VirtualDisk(10)
        disk.write_block(2, b"p" * DEFAULT_BLOCK_SIZE)
        clone = disk.clone()
        disk.fail_block(2)
        with pytest.raises(StorageError):
            disk.read_block(2)
        assert clone.read_block(2) == b"p" * DEFAULT_BLOCK_SIZE

    def test_heal_in_clone_keeps_parent_fault(self):
        disk = VirtualDisk(10)
        disk.fail_block(5)
        clone = disk.clone()
        clone.heal_block(5)
        assert clone.read_block(5) == bytes(DEFAULT_BLOCK_SIZE)
        with pytest.raises(StorageError):
            disk.read_block(5)

    def test_overwrite_in_clone_keeps_parent_fault(self):
        # write_block clears a fault on the written side only.
        disk = VirtualDisk(10)
        disk.fail_block(7)
        clone = disk.clone()
        clone.write_block(7, b"c" * DEFAULT_BLOCK_SIZE)
        assert clone.read_block(7) == b"c" * DEFAULT_BLOCK_SIZE
        with pytest.raises(StorageError):
            disk.read_block(7)

    def test_clone_of_clone_isolates_faults_transitively(self):
        disk = VirtualDisk(10)
        first = disk.clone()
        second = first.clone()
        second.fail_block(1)
        with pytest.raises(StorageError):
            second.read_block(1)
        assert first.read_block(1) == bytes(DEFAULT_BLOCK_SIZE)
        assert disk.read_block(1) == bytes(DEFAULT_BLOCK_SIZE)


class TestDiskModel:
    def test_sequential_read_has_no_positioning(self):
        model = DiskModel(ndisks=10)
        first = model.service_time(0, 100)
        second = model.service_time(100, 100)
        # Second request continues the first: transfer time only.
        transfer = 100 * model.block_size / model.stream_rate
        assert second == pytest.approx(transfer)
        assert first > second

    def test_random_read_pays_seek(self):
        model = DiskModel(ndisks=10)
        model.service_time(0, 10)
        jump = model.service_time(50000, 10)
        transfer = 10 * model.block_size / model.stream_rate
        assert jump == pytest.approx(model.seek_time + model.half_rotation + transfer)

    def test_near_forward_hop_cheap(self):
        model = DiskModel(ndisks=10)
        model.service_time(0, 10)
        hop = model.service_time(50, 10)  # 40-block forward gap
        transfer = 10 * model.block_size / model.stream_rate
        assert hop == pytest.approx(model.near_seek_time + transfer)

    def test_backward_read_is_a_full_seek(self):
        model = DiskModel(ndisks=10)
        model.service_time(1000, 10)
        back = model.service_time(900, 10)
        assert back > model.seek_time

    def test_write_stream_continuation_free(self):
        model = DiskModel(ndisks=10)
        model.service_time(0, 64, kind="write")
        cont = model.service_time(64, 64, kind="write")
        transfer = 64 * model.block_size / model.stream_rate
        assert cont == pytest.approx(transfer)

    def test_multiple_write_streams_coexist(self):
        model = DiskModel(ndisks=10)
        model.service_time(0, 64, kind="write")  # stream A
        model.service_time(30000, 64, kind="write")  # stream B (new: seek)
        # Continuing either stream is now free.
        a = model.service_time(64, 64, kind="write")
        b = model.service_time(30064, 64, kind="write")
        transfer = 64 * model.block_size / model.stream_rate
        assert a == pytest.approx(transfer)
        assert b == pytest.approx(transfer)

    def test_zero_length_rejected(self):
        model = DiskModel()
        with pytest.raises(StorageError):
            model.service_time(0, 0)
