"""Tape inspection tests: table of contents, compare mode, estimation."""

import pytest

from repro.backup import DumpDates, LogicalDump, drain_engine
from repro.backup.logical.inspect import (
    compare_tape,
    estimate_dump,
    list_tape,
)
from repro.wafl.inode import FileType

from tests.conftest import make_drive, make_fs, populate_small_tree


@pytest.fixture()
def dumped():
    fs = make_fs(name="src")
    populate_small_tree(fs)
    drive = make_drive()
    result = drain_engine(
        LogicalDump(fs, drive, level=0, dumpdates=DumpDates()).run()
    )
    return fs, drive, result


class TestListTape:
    def test_catalog_covers_everything(self, dumped):
        fs, drive, result = dumped
        _label, entries = list_tape(drive)
        paths = {path for path, _header in entries}
        assert "/docs/readme.txt" in paths
        assert "/src/deep/data.bin" in paths
        assert "/src" in paths
        assert "/docs/link" in paths

    def test_entries_carry_attributes(self, dumped):
        fs, drive, _result = dumped
        header = dict(list_tape(drive)[1])["/src/main.c"]
        live = fs.inode(fs.namei("/src/main.c"))
        assert header.size == live.size
        assert header.perms == live.perms
        assert header.mtime == live.mtime
        assert header.ftype == FileType.REGULAR
        assert header.nlink == 2  # hard-linked as /src/main-hard.c

    def test_hard_links_both_listed(self, dumped):
        _fs, drive, _result = dumped
        headers = dict(list_tape(drive)[1])
        assert headers["/src/main.c"].ino == headers["/src/main-hard.c"].ino

    def test_counts(self, dumped):
        _fs, drive, result = dumped
        label, entries = list_tape(drive)
        inos = {header.ino for _path, header in entries} | {label.root_ino}
        assert len(inos) == result.files + result.directories

    def test_listing_does_not_consume_the_tape(self, dumped):
        fs, drive, _result = dumped
        list_tape(drive)
        from repro.backup import LogicalRestore, verify_trees

        target = make_fs(name="dst")
        drain_engine(LogicalRestore(target, drive).run())
        assert verify_trees(fs, target, check_mtime=True) == []


class TestCompareTape:
    def test_fresh_tape_matches(self, dumped):
        fs, drive, _result = dumped
        assert compare_tape(fs, drive) == []

    def test_detects_modified_file(self, dumped):
        fs, drive, _result = dumped
        fs.write_file("/docs/readme.txt", b"EDITED", 0)
        problems = compare_tape(fs, drive)
        assert any("readme" in p and "differ" in p for p in problems)

    def test_detects_deleted_file(self, dumped):
        fs, drive, _result = dumped
        fs.unlink("/src/deep/data.bin")
        problems = compare_tape(fs, drive)
        assert any("data.bin" in p and "missing" in p for p in problems)

    def test_detects_attr_change(self, dumped):
        fs, drive, _result = dumped
        fs.set_attrs("/empty", perms=0o777)
        problems = compare_tape(fs, drive)
        assert any("perms" in p for p in problems)

    def test_new_live_files_ignored(self, dumped):
        fs, drive, _result = dumped
        fs.create("/made-after-dump", b"x")
        assert compare_tape(fs, drive) == []

    def test_subtree_tape_compares_against_its_subtree(self):
        fs = make_fs(name="src")
        populate_small_tree(fs)
        drive = make_drive()
        drain_engine(LogicalDump(fs, drive, subtree="/src").run())
        assert compare_tape(fs, drive) == []
        fs.set_attrs("/src", perms=0o700)
        assert compare_tape(fs, drive) == ["/src: perms 493 != 448"]

    @pytest.mark.parametrize("change, problem", [
        (lambda fs: fs.set_acl("/src/main.c", b"ACL\x03other"),
         "/src/main.c: acl b'ACL\\x01\\x02payload' != b'ACL\\x03other'"),
        (lambda fs: fs.set_attrs("/docs/readme.txt", dos_name=b"OTHER.TXT"),
         "/docs/readme.txt: dos_name b'README~1.TXT' != b'OTHER.TXT'"),
        (lambda fs: fs.set_attrs("/src/deep", perms=0o700),
         "/src/deep: perms 493 != 448"),
        (lambda fs: fs.link("/docs/readme.txt", "/docs/alias"),
         "/docs/readme.txt: nlink 1 != 2"),
    ], ids=["file-acl", "dos-name", "directory-perms", "new-hard-link"])
    def test_reports_what_verify_trees_reports(self, dumped, change, problem):
        fs, drive, _result = dumped
        change(fs)
        assert compare_tape(fs, drive) == [problem]


def _level1(change):
    """The estimate and the real dump of a level 1 after ``change``."""
    fs = make_fs(name="src")
    populate_small_tree(fs)
    dumpdates = DumpDates()
    drain_engine(
        LogicalDump(fs, make_drive("l0"), level=0, dumpdates=dumpdates).run()
    )
    change(fs)
    estimate = estimate_dump(fs, level=1, dumpdates=dumpdates)
    result = drain_engine(
        LogicalDump(fs, make_drive("l1"), level=1, dumpdates=dumpdates).run()
    )
    return estimate, result.bytes_to_tape


class TestEstimateDump:
    def test_estimate_close_to_actual_full(self):
        fs = make_fs(name="src")
        populate_small_tree(fs)
        estimate = estimate_dump(fs, level=0)
        result = drain_engine(LogicalDump(fs, make_drive()).run())
        assert estimate == result.bytes_to_tape

    def test_estimate_close_for_incremental(self):
        estimate, actual = _level1(
            lambda fs: fs.create("/fresh", b"f" * 20000))
        assert estimate == actual

    @pytest.mark.parametrize("change", [
        lambda fs: fs.set_attrs("/src/deep", perms=0o700),
        lambda fs: fs.set_acl("/src/deep", b"directory-acl"),
        lambda fs: fs.set_acl("/docs/readme.txt", b"file-acl" * 200),
    ], ids=["directory-chmod", "directory-acl", "file-acl"])
    def test_incremental_estimate_is_the_dump(self, change):
        estimate, actual = _level1(change)
        assert estimate == actual

    def test_estimate_subtree_smaller_than_full(self, dumped):
        fs, _drive, _result = dumped
        full = estimate_dump(fs, level=0)
        subtree = estimate_dump(fs, level=0, subtree="/docs")
        assert subtree < full
        result = drain_engine(
            LogicalDump(fs, make_drive(), subtree="/docs").run())
        assert subtree == result.bytes_to_tape

    def test_estimate_changes_nothing(self):
        fs = make_fs(name="src")
        populate_small_tree(fs)
        dumpdates = DumpDates()
        drain_engine(
            LogicalDump(fs, make_drive(), dumpdates=dumpdates).run())
        fs.snapshot_create("kept")
        fs.create("/fresh", b"f" * 20000)

        def state():
            info = fs.fsinfo
            return (info.cp_count, info.clock_ticks,
                    [record.name for record in fs.snapshots()],
                    dumpdates.history("src", "/"))

        before = state()
        assert estimate_dump(fs, level=1, dumpdates=dumpdates) > 0
        assert state() == before
