"""Crash recovery: consistency points, NVRAM replay, fsinfo redundancy."""

import pytest

from repro.errors import FilesystemError
from repro.chaos.verify import volume_digest
from repro.nvram.log import OP_OVERHEAD, NvramLog
from repro.units import MB
from repro.wafl.consts import FSINFO_BLOCKS
from repro.wafl.filesystem import WaflFilesystem
from repro.wafl.fsck import fsck

from tests.conftest import make_fs, make_volume, populate_small_tree


def test_remount_after_clean_cp(fs):
    populate_small_tree(fs)
    fs.consistency_point()
    volume = fs.volume
    fs.crash()
    remounted = WaflFilesystem.mount(volume)
    assert remounted.read_file("/docs/readme.txt").startswith(b"hello backup")
    assert fsck(remounted).clean


def test_crash_loses_uncommitted_ops_without_nvram():
    fs = make_fs()
    fs.create("/kept", b"k")
    fs.consistency_point()
    fs.create("/lost", b"l")
    volume = fs.volume
    fs.crash()
    remounted = WaflFilesystem.mount(volume)
    assert remounted.read_file("/kept") == b"k"
    assert not remounted.exists("/lost")
    assert fsck(remounted).clean


def test_nvram_replay_recovers_tail():
    fs = make_fs(nvram=True)
    nvram = fs.nvram
    fs.mkdir("/d")
    fs.create("/d/committed", b"c" * 5000)
    fs.consistency_point()
    fs.create("/d/recent", b"r" * 3000)
    fs.write_file("/d/committed", b"PATCH", 0)
    fs.rename("/d/recent", "/d/renamed")
    fs.set_attrs("/d/renamed", perms=0o600)
    volume = fs.volume
    fs.crash()
    remounted = WaflFilesystem.mount(volume, nvram=nvram)
    assert remounted.read_file("/d/renamed") == b"r" * 3000
    assert remounted.inode(remounted.namei("/d/renamed")).perms == 0o600
    assert remounted.read_file("/d/committed")[:5] == b"PATCH"
    assert fsck(remounted).clean


def test_nvram_full_forces_consistency_point():
    fs = make_fs(nvram=True)
    cps_before = fs.counters["cp_count"]
    # Write more than half the 4 MB NVRAM: a CP must trigger.
    for index in range(6):
        fs.create("/f%d" % index, b"x" * 512 * 1024)
    assert fs.counters["cp_count"] > cps_before


def _pattern(nbytes: int) -> bytes:
    return bytes((i * 7 + i // 4096) % 251 for i in range(nbytes))


@pytest.mark.parametrize("method", ["create", "write_file"])
def test_a_write_too_big_for_half_the_nvram_is_logged_in_pieces(method):
    """Three halves' worth of file data: logged as block-aligned
    ``write_file`` pieces that each fit, applied as they are logged, and
    replayed after a crash to the same bytes as a filer that never
    crashed."""
    volumes = []
    for crash in (False, True):
        fs = make_fs(nvram=True)
        half = fs.nvram.half_capacity
        data = _pattern(3 * half)
        fs.create("/keep", b"k")
        fs.consistency_point()
        if method == "create":
            fs.create("/big", data)
        else:
            fs.create("/big", b"head")
            fs.write_file("/big", data, offset=100)
        written = fs.counters["bytes_written"]
        if method == "write_file":
            written -= len(b"head")
            data = b"head" + bytes(96) + data
        pending = fs.nvram.pending_ops()
        assert pending and all(op.nbytes <= half for op in pending)
        assert [op.method for op in pending] == ["write_file"] * len(pending)
        assert all(op.kwargs["offset"] % 4096 == 0 for op in pending[1:])
        assert written == 3 * half + len(b"k")
        volume, nvram = fs.volume, fs.nvram
        if crash:
            fs.crash()
            fs = WaflFilesystem.mount(volume, nvram=nvram)
        fs.consistency_point()
        assert fs.read_file("/big") == data
        assert fs.read_file("/keep") == b"k"
        assert fsck(fs, check_parity=True).clean
        volumes.append(volume_digest(volume))
    assert volumes[0] == volumes[1]


def test_a_write_that_fits_is_one_logged_op():
    fs = make_fs(nvram=True)
    room = fs.nvram.half_capacity - OP_OVERHEAD - len("/f")
    fs.create("/f", b"x" * room)
    fs.write_file("/f", b"y" * room, offset=1)
    # Each op fills a half exactly, so the second one follows a CP.
    assert [(op.method, op.nbytes) for op in fs.nvram.pending_ops()] == [
        ("write_file", fs.nvram.half_capacity)]
    assert fs.nvram.total_ops_logged == 2
    assert fs.nvram.total_bytes_logged == 2 * fs.nvram.half_capacity


def _recovered_twins(ops):
    """Volume digests of a filer that ran ``ops`` and went on, and of
    one that crashed after them and recovered (then both create a file
    and take a CP)."""
    digests = []
    for crash in (False, True):
        fs = make_fs(nvram=True)
        ops(fs)
        volume, nvram = fs.volume, fs.nvram
        if crash:
            fs.crash()
            fs = WaflFilesystem.mount(volume, nvram=nvram)
        fs.create("/z", b"z")
        fs.consistency_point()
        digests.append(volume_digest(volume))
    return digests


def test_an_op_refused_when_it_ran_is_refused_on_replay():
    def ops(fs):
        fs.create("/a", b"a")
        fs.consistency_point()
        for refused in (lambda: fs.create("/a", b"again"),
                        lambda: fs.unlink("/gone")):
            with pytest.raises(FilesystemError):
                refused()
        fs.create("/b", b"b")

    digests = _recovered_twins(ops)
    assert digests[0] == digests[1]


def test_a_remount_resumes_the_inode_watermark_of_the_last_cp():
    def ops(fs):
        for index in range(4):
            fs.create("/f%d" % index, b"f")
        fs.unlink("/f3")
        fs.unlink("/f2")
        fs.consistency_point()

    digests = _recovered_twins(ops)
    assert digests[0] == digests[1]


def test_nvram_failure_is_not_fatal():
    fs = make_fs(nvram=True)
    fs.create("/a", b"committed")
    fs.consistency_point()
    fs.create("/b", b"in-nvram-only")
    fs.nvram.fail()
    volume = fs.volume
    nvram = fs.nvram
    fs.crash()
    # The file system is still self-consistent; only the tail is gone.
    remounted = WaflFilesystem.mount(volume, nvram=nvram)
    assert remounted.read_file("/a") == b"committed"
    assert not remounted.exists("/b")
    assert fsck(remounted).clean


def test_fsinfo_primary_corruption_falls_back():
    fs = make_fs()
    fs.create("/f", b"v")
    fs.consistency_point()
    volume = fs.volume
    for block in range(FSINFO_BLOCKS):
        volume.write_block(block, b"\xde\xad\xbe\xef" * 1024)
    if volume.cache is not None:
        volume.cache.clear()
    remounted = WaflFilesystem.mount(volume)
    assert remounted.read_file("/f") == b"v"


def test_both_fsinfo_copies_corrupt_fails():
    fs = make_fs()
    fs.consistency_point()
    volume = fs.volume
    for block in range(2 * FSINFO_BLOCKS):
        volume.write_block(block, b"\x00" * 4096)
    if volume.cache is not None:
        volume.cache.clear()
    with pytest.raises(FilesystemError):
        WaflFilesystem.mount(volume)


def test_repeated_crash_remount_cycles():
    volume = make_volume()
    nvram = NvramLog(capacity=2 * MB)
    fs = WaflFilesystem.format(volume, nvram=nvram)
    for cycle in range(5):
        fs.create("/c%d" % cycle, bytes([cycle]) * 1000)
        if cycle % 2:
            fs.consistency_point()
        fs.crash()
        fs = WaflFilesystem.mount(volume, nvram=nvram)
    for cycle in range(5):
        assert fs.read_file("/c%d" % cycle) == bytes([cycle]) * 1000
    assert fsck(fs).clean


def test_mount_rejects_geometry_mismatch():
    fs = make_fs()
    fs.consistency_point()
    image = [fs.volume.read_block(b) for b in range(2 * FSINFO_BLOCKS)]
    other = make_volume(ngroups=1, ndata=3, blocks_per_disk=1000)
    for block, data in enumerate(image):
        other.write_block(block, data)
    with pytest.raises(FilesystemError):
        WaflFilesystem.mount(other)


def test_cp_count_increases_monotonically(fs):
    first = fs.fsinfo.cp_count
    fs.consistency_point()
    second = fs.fsinfo.cp_count
    fs.create("/x")
    fs.consistency_point()
    assert first < second < fs.fsinfo.cp_count
