"""Incremental logical dump/restore chains (levels 0-9)."""

import pytest

from repro.errors import IncrementalError
from repro.backup import (
    DumpDates,
    LogicalDump,
    LogicalRestore,
    drain_engine,
    verify_trees,
)
from repro.wafl.fsck import fsck

from tests.conftest import make_drive, make_fs, populate_small_tree


class Chain:
    """Helper that runs a dump chain and mirrors it on restore."""

    def __init__(self):
        self.source = make_fs(name="src")
        self.dumpdates = DumpDates()
        self.tapes = []

    def dump(self, level):
        drive = make_drive("l%d" % level)
        result = drain_engine(
            LogicalDump(self.source, drive, level=level,
                        dumpdates=self.dumpdates).run()
        )
        self.tapes.append((level, drive, result))
        return result

    def restore_all(self):
        target = make_fs(name="dst")
        symtab = None
        for _level, drive, _result in self.tapes:
            result = drain_engine(
                LogicalRestore(target, drive, symtab=symtab).run()
            )
            symtab = result.symtab
        return target


def test_incremental_contains_only_changes():
    chain = Chain()
    populate_small_tree(chain.source)
    full = chain.dump(0)
    chain.source.write_file("/docs/readme.txt", b"updated", 0)
    incremental = chain.dump(1)
    assert incremental.files < full.files
    assert incremental.files == 1


def test_chain_with_modify_delete_create():
    chain = Chain()
    source = chain.source
    populate_small_tree(source)
    chain.dump(0)
    source.write_file("/src/main.c", b"v2" * 600, 0)
    source.unlink("/src/deep/data.bin")
    source.create("/src/newfile", b"brand new")
    chain.dump(1)
    target = chain.restore_all()
    assert verify_trees(source, target, check_mtime=True) == []
    assert fsck(target).clean


def test_chain_with_renames_and_moves():
    chain = Chain()
    source = chain.source
    populate_small_tree(source)
    chain.dump(0)
    source.rename("/docs/readme.txt", "/docs/README")
    source.rename("/src/deep", "/docs/moved-deep")
    source.mkdir("/brand-new-dir")
    source.create("/brand-new-dir/x", b"x")
    chain.dump(1)
    target = chain.restore_all()
    assert verify_trees(source, target, check_mtime=True) == []
    assert fsck(target).clean


@pytest.mark.parametrize("new_name", ["/old-src", "/docs/old-src"])
def test_directory_renamed_and_its_name_reused(new_name):
    """A directory moves away (unchanged, or dumped because it changed
    parent) and a new one, with a new subdirectory, takes its old name:
    the subdirectory must not leave with the move."""
    chain = Chain()
    source = chain.source
    populate_small_tree(source)
    chain.dump(0)
    source.rename("/src", new_name)
    source.mkdir("/src")
    source.mkdir("/src/sub")
    source.create("/src/sub/f", b"new file in a reused name")
    chain.dump(1)
    target = chain.restore_all()
    assert verify_trees(source, target, check_mtime=True) == []
    assert fsck(target).clean


def test_multi_level_chain_0_1_2():
    chain = Chain()
    source = chain.source
    populate_small_tree(source)
    chain.dump(0)
    source.create("/level1-file", b"1")
    chain.dump(1)
    source.create("/level2-file", b"2")
    source.unlink("/level1-file")
    chain.dump(2)
    target = chain.restore_all()
    assert verify_trees(source, target, check_mtime=True) == []
    assert not target.exists("/level1-file")
    assert target.exists("/level2-file")


def test_level_retake_supersedes():
    """A new level-1 after another level-1 still uses the level-0 base."""
    chain = Chain()
    source = chain.source
    source.create("/base", b"b")
    chain.dump(0)
    source.create("/first", b"1")
    chain.dump(1)
    source.create("/second", b"2")
    result = chain.dump(1)  # re-dump level 1: includes BOTH changes
    assert result.files == 2
    # Restore chain: level 0 plus only the LAST level 1.
    target = make_fs(name="dst")
    level0 = chain.tapes[0][1]
    last_level1 = chain.tapes[2][1]
    r0 = drain_engine(LogicalRestore(target, level0).run())
    drain_engine(LogicalRestore(target, last_level1, symtab=r0.symtab).run())
    assert verify_trees(source, target, check_mtime=True) == []


def test_incremental_without_base_rejected():
    source = make_fs()
    source.create("/f")
    drive = make_drive()
    with pytest.raises(IncrementalError):
        drain_engine(
            LogicalDump(source, drive, level=3, dumpdates=DumpDates()).run()
        )


def test_hardlink_added_in_incremental():
    chain = Chain()
    source = chain.source
    source.create("/orig", b"x" * 5000)
    chain.dump(0)
    source.link("/orig", "/alias")
    chain.dump(1)
    target = chain.restore_all()
    assert target.namei("/orig") == target.namei("/alias")
    assert verify_trees(source, target, check_mtime=True) == []


def test_attr_only_change_travels():
    chain = Chain()
    source = chain.source
    source.create("/f", b"data")
    chain.dump(0)
    source.set_attrs("/f", perms=0o600, uid=42)
    source.set_acl("/f", b"new-acl")
    chain.dump(1)
    target = chain.restore_all()
    inode = target.inode(target.namei("/f"))
    assert inode.perms == 0o600
    assert inode.uid == 42
    assert target.get_acl("/f") == b"new-acl"


def test_inode_reuse_across_incremental():
    """An inode number freed and reused as a different object."""
    chain = Chain()
    source = chain.source
    source.create("/victim", b"old content")
    chain.dump(0)
    victim_ino = source.namei("/victim")
    source.unlink("/victim")
    source.create("/phoenix", b"reborn")  # reuses the lowest free ino
    assert source.namei("/phoenix") == victim_ino
    chain.dump(1)
    target = chain.restore_all()
    assert not target.exists("/victim")
    assert target.read_file("/phoenix") == b"reborn"
    assert verify_trees(source, target, check_mtime=True) == []


def test_inode_reuse_file_becomes_directory():
    chain = Chain()
    source = chain.source
    source.create("/thing", b"file")
    chain.dump(0)
    ino = source.namei("/thing")
    source.unlink("/thing")
    new_ino = source.mkdir("/thing")
    assert new_ino == ino
    source.create("/thing/inside", b"i")
    chain.dump(1)
    target = chain.restore_all()
    assert target.read_file("/thing/inside") == b"i"
    assert verify_trees(source, target, check_mtime=True) == []


def test_directory_becomes_file():
    chain = Chain()
    source = chain.source
    source.mkdir("/thing")
    source.create("/thing/inside", b"i")
    chain.dump(0)
    source.unlink("/thing/inside")
    source.rmdir("/thing")
    source.create("/thing", b"now a file")
    chain.dump(1)
    target = chain.restore_all()
    assert target.read_file("/thing") == b"now a file"
    assert verify_trees(source, target, check_mtime=True) == []


def test_ten_level_chain():
    chain = Chain()
    source = chain.source
    source.create("/base", b"0")
    chain.dump(0)
    for level in range(1, 10):
        source.create("/file-at-%d" % level, bytes([level]) * 100)
        if level > 2:
            source.unlink("/file-at-%d" % (level - 2))
        chain.dump(level)
    target = chain.restore_all()
    assert verify_trees(source, target, check_mtime=True) == []
    assert fsck(target).clean
