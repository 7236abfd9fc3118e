"""Stupidity recovery: selective single-file/subtree restores."""

import pytest

from repro.errors import NotFoundError
from repro.backup import DumpDates, LogicalDump, LogicalRestore, drain_engine
from repro.wafl.fsck import fsck

from tests.conftest import make_drive, make_fs, populate_small_tree


def prepare_tape():
    source = make_fs(name="src")
    populate_small_tree(source)
    drive = make_drive()
    drain_engine(LogicalDump(source, drive, dumpdates=DumpDates()).run())
    return source, drive


def test_single_file_recovery():
    source, drive = prepare_tape()
    target = make_fs(name="dst")
    result = drain_engine(
        LogicalRestore(target, drive, select=["/docs/readme.txt"]).run()
    )
    assert target.read_file("/docs/readme.txt") == source.read_file(
        "/docs/readme.txt"
    )
    # Nothing else was materialized (parents excepted).
    assert not target.exists("/src/main.c")
    assert not target.exists("/sparse")
    assert result.files == 1
    assert result.skipped >= 4
    assert fsck(target).clean


def test_selected_file_attrs_restored():
    source, drive = prepare_tape()
    target = make_fs(name="dst")
    drain_engine(LogicalRestore(target, drive, select=["/src/main.c"]).run())
    source_inode = source.inode(source.namei("/src/main.c"))
    target_inode = target.inode(target.namei("/src/main.c"))
    assert target_inode.perms == source_inode.perms
    assert target_inode.mtime == source_inode.mtime
    assert target.get_acl("/src/main.c") == b"ACL\x01\x02payload"


def test_directory_selection_pulls_subtree():
    source, drive = prepare_tape()
    target = make_fs(name="dst")
    drain_engine(LogicalRestore(target, drive, select=["/src"]).run())
    assert target.exists("/src/main.c")
    assert target.exists("/src/deep/data.bin")
    assert not target.exists("/docs/readme.txt")


def test_multiple_selections():
    source, drive = prepare_tape()
    target = make_fs(name="dst")
    drain_engine(
        LogicalRestore(
            target, drive,
            select=["/docs/readme.txt", "/src/deep/data.bin"],
        ).run()
    )
    assert target.exists("/docs/readme.txt")
    assert target.exists("/src/deep/data.bin")
    assert not target.exists("/src/main.c")


def test_missing_selection_raises():
    _source, drive = prepare_tape()
    target = make_fs(name="dst")
    with pytest.raises(NotFoundError):
        drain_engine(
            LogicalRestore(target, drive, select=["/no/such/file"]).run()
        )


def test_selective_restore_into_existing_tree():
    """Recover one deleted file back into a live file system."""
    source, drive = prepare_tape()
    # The "user" deletes a file by accident.
    source.unlink("/docs/readme.txt")
    result = drain_engine(
        LogicalRestore(source, drive, select=["/docs/readme.txt"]).run()
    )
    assert source.exists("/docs/readme.txt")
    assert result.files == 1
    assert fsck(source).clean


def test_selection_with_symbol_table_keeps_local_files():
    """A selection only adds names, even when handed a symbol table: a
    local file in a dumped directory is not a stale name to delete."""
    source, drive = prepare_tape()
    target = make_fs(name="dst")
    full = drain_engine(LogicalRestore(target, drive).run())
    target.create("/src/new.txt", b"made after the restore\n")
    target.unlink("/src/main-hard.c")
    result = drain_engine(LogicalRestore(
        target, drive, select=["/docs/readme.txt"], symtab=full.symtab,
    ).run())
    assert target.read_file("/src/new.txt") == b"made after the restore\n"
    assert not target.exists("/src/main-hard.c")
    assert result.deleted == result.renamed == 0
    assert target.read_file("/docs/readme.txt") == source.read_file(
        "/docs/readme.txt")
    assert fsck(target).clean


def _tape_with_empty_directory():
    source = make_fs(name="src")
    source.mkdir("/src")
    source.mkdir("/src/empty")
    source.mkdir("/src/sub")
    source.create("/src/a.c", b"int a;\n")
    source.create("/src/sub/b.c", b"int b;\n")
    drive = make_drive()
    drain_engine(LogicalDump(source, drive, dumpdates=DumpDates()).run())
    return drive


def test_selection_restores_empty_directories():
    drive = _tape_with_empty_directory()
    target = make_fs(name="dst")
    drain_engine(LogicalRestore(target, drive, select=["/src"]).run())
    for path in ("/src/empty", "/src/a.c", "/src/sub/b.c"):
        assert target.exists(path), path
    assert target.inode(target.namei("/src/empty")).is_dir

    target = make_fs(name="dst2")
    result = drain_engine(
        LogicalRestore(target, drive, select=["/src/empty"]).run())
    assert target.exists("/src/empty")
    assert result.created == 2
    assert not target.exists("/src/a.c")
    assert not target.exists("/src/sub")
    assert fsck(target).clean
