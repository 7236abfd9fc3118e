"""Edge cases: qtrees through dump, unicode names, deep trees, big dirs."""


from repro.backup import DumpDates, LogicalDump, LogicalRestore, drain_engine
from repro.backup.logical.inspect import list_tape
from repro.wafl.fsck import fsck

from tests.conftest import make_drive, make_fs


def test_qtree_id_travels_in_dump_headers():
    fs = make_fs()
    qtree_id = fs.create_qtree("proj")
    fs.create("/proj/file", b"q")
    drive = make_drive()
    drain_engine(LogicalDump(fs, drive, dumpdates=DumpDates()).run())
    from repro.dumpfmt.stream import DumpStreamReader

    drive.rewind()
    reader = DumpStreamReader(drive)
    reader.read_preamble()
    qtrees = {}
    while True:
        entry = reader.next_inode()
        if entry is None:
            break
        qtrees[entry.ino] = entry.header.qtree
    assert qtree_id in qtrees.values()


def test_unicode_names_through_dump():
    fs = make_fs(name="src")
    fs.mkdir("/документы")
    fs.create("/документы/résumé.txt", "unicode contents 文件".encode())
    fs.symlink("/документы/ссылка", "/документы/résumé.txt")
    drive = make_drive()
    drain_engine(LogicalDump(fs, drive, dumpdates=DumpDates()).run())
    target = make_fs(name="dst")
    drain_engine(LogicalRestore(target, drive).run())
    assert target.read_file("/документы/résumé.txt") == \
        "unicode contents 文件".encode()
    assert target.readlink("/документы/ссылка") == "/документы/résumé.txt"


def test_deep_tree_through_dump():
    fs = make_fs(name="src")
    path = ""
    for depth in range(24):
        path += "/d%d" % depth
        fs.mkdir(path)
    fs.create(path + "/leaf", b"deep")
    drive = make_drive()
    drain_engine(LogicalDump(fs, drive, dumpdates=DumpDates()).run())
    target = make_fs(name="dst")
    drain_engine(LogicalRestore(target, drive).run())
    assert target.read_file(path + "/leaf") == b"deep"
    assert fsck(target).clean


def test_large_directory_through_dump():
    fs = make_fs(name="src", blocks_per_disk=4000)
    fs.mkdir("/big")
    for index in range(600):  # directory itself spans multiple blocks
        fs.create("/big/file%04d" % index, bytes([index % 256]) * 10)
    assert fs.inode(fs.namei("/big")).size > 4096
    drive = make_drive()
    drain_engine(LogicalDump(fs, drive, dumpdates=DumpDates()).run())
    target = make_fs(name="dst", blocks_per_disk=4000)
    drain_engine(LogicalRestore(target, drive).run())
    assert len(target.readdir("/big")) == 600
    assert target.read_file("/big/file0423") == bytes([423 % 256]) * 10
    assert fsck(target).clean


def test_many_hard_links_one_inode():
    fs = make_fs(name="src")
    fs.create("/base", b"linked")
    for index in range(20):
        fs.link("/base", "/link%d" % index)
    drive = make_drive()
    drain_engine(LogicalDump(fs, drive, dumpdates=DumpDates()).run())
    headers = dict(list_tape(drive)[1])
    inos = {headers["/link%d" % i].ino for i in range(20)}
    assert len(inos) == 1
    target = make_fs(name="dst")
    drain_engine(LogicalRestore(target, drive).run())
    assert target.inode(target.namei("/base")).nlink == 21


def test_zero_byte_and_one_byte_files():
    fs = make_fs(name="src")
    fs.create("/zero")
    fs.create("/one", b"x")
    drive = make_drive()
    drain_engine(LogicalDump(fs, drive, dumpdates=DumpDates()).run())
    target = make_fs(name="dst")
    drain_engine(LogicalRestore(target, drive).run())
    assert target.read_file("/zero") == b""
    assert target.read_file("/one") == b"x"


def test_snapshot_view_survives_source_remount():
    from repro.wafl.filesystem import WaflFilesystem

    fs = make_fs()
    fs.create("/pre", b"before snap")
    fs.snapshot_create("s")
    fs.write_file("/pre", b"after snap!", 0)
    fs.consistency_point()
    volume = fs.volume
    fs.crash()
    remounted = WaflFilesystem.mount(volume)
    view = remounted.snapshot_view("s")
    assert view.read_file("/pre") == b"before snap"
