"""Level-0 logical dump/restore round trips."""


from repro.backup import (
    DumpDates,
    LogicalDump,
    LogicalRestore,
    drain_engine,
    verify_trees,
)
from repro.wafl.consts import BLOCK_SIZE
from repro.wafl.fsck import fsck

from tests.conftest import make_drive, make_fs, populate_small_tree


def dump_to(fs, drive, **kwargs):
    return drain_engine(LogicalDump(fs, drive, **kwargs).run())


def restore_from(fs, drive, **kwargs):
    return drain_engine(LogicalRestore(fs, drive, **kwargs).run())


def test_full_roundtrip_preserves_everything():
    source = make_fs(name="src")
    populate_small_tree(source)
    drive = make_drive()
    result = dump_to(source, drive, level=0, dumpdates=DumpDates())
    assert result.files >= 6
    assert result.directories >= 4
    target = make_fs(name="dst")
    restore_result = restore_from(target, drive)
    assert verify_trees(source, target, check_mtime=True) == []
    assert fsck(target).clean
    assert restore_result.symtab is not None


def test_dump_from_snapshot_is_consistent_view():
    """Mutations during (after) the snapshot do not reach the tape."""
    source = make_fs()
    source.create("/steady", b"before")
    view_snapshot = source.snapshot_create("manual")
    source.write_file("/steady", b"AFTER!", 0)
    drive = make_drive()
    dump_to(source.snapshot_view("manual"), drive)
    target = make_fs(name="dst")
    restore_from(target, drive)
    assert target.read_file("/steady") == b"before"


def test_dump_manages_its_own_snapshot():
    source = make_fs()
    source.create("/f", b"x")
    snaps_before = [s.name for s in source.snapshots()]
    drive = make_drive()
    result = dump_to(source, drive, dumpdates=DumpDates())
    assert result.snapshot is not None
    assert [s.name for s in source.snapshots()] == snaps_before


def test_subtree_dump_and_restore_into():
    source = make_fs()
    populate_small_tree(source)
    source.create("/outside", b"not dumped")
    drive = make_drive()
    dump_to(source, drive, subtree="/src")
    target = make_fs(name="dst")
    restore_from(target, drive, into="/restored")
    assert target.read_file("/restored/main.c") == source.read_file("/src/main.c")
    assert not target.exists("/outside")
    assert not target.exists("/restored/docs")


def test_exclusion_filter():
    source = make_fs()
    source.create("/keep.c", b"k")
    source.create("/skip.o", b"s")
    source.mkdir("/objs")
    source.create("/objs/also.o", b"a")
    drive = make_drive()
    result = dump_to(
        source, drive,
        exclude=lambda path, inode: path.endswith(".o"),
    )
    target = make_fs(name="dst")
    restore_from(target, drive)
    assert target.exists("/keep.c")
    assert not target.exists("/skip.o")
    assert not target.exists("/objs/also.o")
    assert target.exists("/objs")  # the directory itself is kept


def test_sparse_file_stays_sparse():
    source = make_fs()
    source.create("/sparse")
    source.write_file("/sparse", b"head", 0)
    source.write_file("/sparse", b"tail", 50 * BLOCK_SIZE)
    drive = make_drive()
    dump_to(source, drive)
    target = make_fs(name="dst")
    restore_from(target, drive)
    assert target.read_file("/sparse") == source.read_file("/sparse")
    ino = target.namei("/sparse")
    allocated = sum(c for _f, _v, c in target.file_extents(ino))
    assert allocated <= 3  # holes were not materialized


def test_empty_filesystem_roundtrip():
    source = make_fs()
    drive = make_drive()
    dump_to(source, drive)
    target = make_fs(name="dst")
    restore_from(target, drive)
    assert verify_trees(source, target) == []


def test_large_file_roundtrip():
    source = make_fs(blocks_per_disk=4000)
    from repro.workload.distributions import deterministic_bytes

    payload = deterministic_bytes(9, 3 * 1024 * 1024)
    source.create("/big.tar", payload)
    drive = make_drive()
    dump_to(source, drive)
    target = make_fs(name="dst", blocks_per_disk=4000)
    restore_from(target, drive)
    assert target.read_file("/big.tar") == payload


def test_dump_counts_bytes_and_records_dumpdates():
    source = make_fs()
    populate_small_tree(source)
    dumpdates = DumpDates()
    drive = make_drive()
    result = dump_to(source, drive, level=0, dumpdates=dumpdates)
    assert result.bytes_to_tape == drive.bytes_written
    history = dumpdates.history(source.volume.name, "/")
    assert len(history) == 1
    assert history[0][0] == 0  # level


def test_restore_through_nvram_path():
    source = make_fs()
    populate_small_tree(source)
    drive = make_drive()
    dump_to(source, drive)
    target = make_fs(name="dst", nvram=True)
    restore_from(target, drive)
    assert verify_trees(source, target, check_mtime=True) == []
    assert target.nvram.total_ops_logged > 0


def test_hardlinks_restored_as_one_inode():
    source = make_fs()
    source.create("/a", b"shared")
    source.link("/a", "/b")
    source.link("/a", "/c")
    drive = make_drive()
    dump_to(source, drive)
    target = make_fs(name="dst")
    restore_from(target, drive)
    assert target.namei("/a") == target.namei("/b") == target.namei("/c")
    assert target.inode(target.namei("/a")).nlink == 3


def test_full_restore_leaves_unknown_names_alone():
    """Without a symbol table the restore knows nothing in the target, so
    it deletes and renames nothing: a local file survives, a dumped name
    is overwritten in place."""
    source = make_fs(name="src")
    source.mkdir("/src")
    source.create("/src/a.c", b"new contents of a\n")
    drive = make_drive()
    dump_to(source, drive, level=0, dumpdates=DumpDates())
    target = make_fs(name="dst")
    target.mkdir("/src")
    target.create("/src/local.txt", b"kept\n")
    target.create("/src/a.c", b"an older and longer version of a.c\n")
    restore_from(target, drive)
    assert target.read_file("/src/local.txt") == b"kept\n"
    assert target.read_file("/src/a.c") == b"new contents of a\n"
    assert fsck(target).clean
