"""Image (physical) dump/restore round trips and incrementals."""

import pytest

from repro.errors import GeometryError, IncrementalError, SnapshotError
from repro.backup import (
    ImageDump,
    ImageRestore,
    drain_engine,
    verify_trees,
    verify_volumes,
)
from repro.backup.physical.incremental import incremental_block_set
from repro.wafl.filesystem import WaflFilesystem

from tests.conftest import make_drive, make_fs, make_volume, populate_small_tree


def image_dump(fs, drive, **kwargs):
    return drain_engine(ImageDump(fs, drive, **kwargs).run())


def image_restore(volume, drive, **kwargs):
    return drain_engine(ImageRestore(volume, drive, **kwargs).run())


def test_restored_blocks_are_byte_identical():
    source = make_fs(name="src")
    populate_small_tree(source)
    drive = make_drive()
    image_dump(source, drive, snapshot_name="base")
    blocks = source.blockmap.plane_blocks(
        source.fsinfo.find_snapshot("base").snap_id
    )
    target_volume = source.volume.clone_empty()
    image_restore(target_volume, drive)
    assert verify_volumes(source.volume, target_volume, blocks) == []


def test_geometry_mismatch_refused():
    source = make_fs(ngroups=2, ndata=4, name="src")
    source.create("/f", b"x")
    drive = make_drive()
    image_dump(source, drive)
    wrong = make_volume(ngroups=1, ndata=3, blocks_per_disk=900)
    with pytest.raises(GeometryError):
        image_restore(wrong, drive)


def test_incremental_is_smaller_than_full():
    source = make_fs(name="src")
    populate_small_tree(source)
    source.create("/bulk", b"B" * (200 * 4096))
    full_drive = make_drive("full")
    full = image_dump(source, full_drive, snapshot_name="A")
    source.create("/small-change", b"tiny")
    incr_drive = make_drive("incr")
    incr = image_dump(source, incr_drive, snapshot_name="B",
                      base_snapshot="A")
    assert incr.blocks < full.blocks / 2


def test_incremental_matches_plane_difference():
    source = make_fs(name="src")
    populate_small_tree(source)
    image_dump(source, make_drive(), snapshot_name="A")
    source.create("/delta", b"d" * 9000)
    drive = make_drive()
    incr = image_dump(source, drive, snapshot_name="B", base_snapshot="A")
    a = source.fsinfo.find_snapshot("A").snap_id
    b = source.fsinfo.find_snapshot("B").snap_id
    expected = incremental_block_set(source.blockmap, b, a)
    assert incr.blocks == len(expected)


def test_incremental_onto_wrong_base_refused():
    source = make_fs(name="src")
    populate_small_tree(source)
    image_dump(source, make_drive(), snapshot_name="A")
    source.create("/x", b"1")
    incr_drive = make_drive()
    image_dump(source, incr_drive, snapshot_name="B", base_snapshot="A")
    # A blank target has no base at all.
    blank = source.volume.clone_empty()
    with pytest.raises(IncrementalError):
        image_restore(blank, incr_drive)


def test_incremental_restores_over_a_full_with_snapshots():
    """The full restores the live root, one CP past snapshot A; the
    B - A incremental still applies, since the target holds A intact."""
    source = make_fs(name="src")
    populate_small_tree(source)
    full_drive = make_drive("full")
    image_dump(source, full_drive, snapshot_name="A", include_snapshots=True)
    source.create("/delta", b"d" * 9000)
    source.unlink("/docs/readme.txt")
    incr_drive = make_drive("incr")
    image_dump(source, incr_drive, snapshot_name="B", base_snapshot="A")
    target_volume = source.volume.clone_empty()
    image_restore(target_volume, full_drive)
    assert image_restore(target_volume, incr_drive).incremental
    target = WaflFilesystem.mount(target_volume)
    assert verify_trees(source.snapshot_view("B"), target,
                        check_mtime=True) == []


def test_incremental_missing_base_snapshot_refused():
    source = make_fs()
    source.create("/f", b"x")
    with pytest.raises(SnapshotError):
        image_dump(source, make_drive(), snapshot_name="B",
                   base_snapshot="never-existed")


def test_include_snapshots_restores_them():
    source = make_fs(name="src")
    source.create("/f", b"version-1")
    source.snapshot_create("old")
    source.write_file("/f", b"version-2", 0)
    source.consistency_point()
    drive = make_drive()
    image_dump(source, drive, include_snapshots=True,
               snapshot_name="old", manage_snapshot=False)
    target_volume = source.volume.clone_empty()
    image_restore(target_volume, drive)
    target = WaflFilesystem.mount(target_volume)
    assert target.read_file("/f") == b"version-2"
    assert [s.name for s in target.snapshots()] == ["old"]
    assert target.snapshot_view("old").read_file("/f") == b"version-1"


def test_multidrive_striping_roundtrip():
    source = make_fs(name="src")
    populate_small_tree(source)
    drives = [make_drive("d%d" % index) for index in range(3)]
    dump_result = image_dump(source, drives, snapshot_name="p")
    # All drives received a share.
    assert all(drive.bytes_written > 0 for drive in drives)
    target_volume = source.volume.clone_empty()
    restore_result = image_restore(target_volume, drives)
    assert restore_result.blocks == dump_result.blocks
    target = WaflFilesystem.mount(target_volume)
    assert verify_trees(source, target, check_mtime=True) == []


def test_chunk_crc_detects_corruption():
    from repro.errors import FormatError

    source = make_fs(name="src")
    source.create("/f", b"payload" * 1000)
    drive = make_drive()
    image_dump(source, drive)
    # Flip a byte inside the stream's data region.
    cartridge = drive.stacker.cartridges[0]
    cartridge.overwrite(20000, bytes([cartridge.read_at(20000, 1)[0] ^ 0xFF]))
    target_volume = source.volume.clone_empty()
    with pytest.raises(FormatError):
        image_restore(target_volume, drive)


def test_dump_bypasses_buffer_cache():
    source = make_fs(name="src")
    populate_small_tree(source)
    source.snapshot_create("bypass")
    cache = source.volume.cache
    hits_before = cache.hits
    # Dump an existing snapshot: no CP runs, only raw block streaming.
    image_dump(source, make_drive(), snapshot_name="bypass",
               manage_snapshot=False)
    assert cache.hits == hits_before


def test_physical_restore_preserves_raid_parity():
    source = make_fs(name="src")
    populate_small_tree(source)
    drive = make_drive()
    image_dump(source, drive)
    target_volume = source.volume.clone_empty()
    image_restore(target_volume, drive)
    assert target_volume.verify_parity()
