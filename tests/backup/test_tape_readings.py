"""One reading per tape format.

A dump stream is read through :class:`DumpNamespace` (restore, ``toc``,
``verify`` and ``interactive``); an image stream through
``read_image_header`` + ``read_chunks`` (image restore and ``verify
--image``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormatError
from repro.backup import (
    DumpDates,
    ImageDump,
    ImageRestore,
    LogicalDump,
    drain_engine,
)
from repro.backup.logical.inspect import compare_tape, list_tape
from repro.backup.logical.interactive import InteractiveRestore
from repro.backup.logical.restore import DumpNamespace
from repro.backup.physical import compare_image
from repro.backup.physical.image import (
    pack_chunk_header,
    pack_trailer,
    read_chunks,
    read_image_header,
)
from repro.wafl.consts import BLOCK_SIZE

from tests.conftest import make_drive, make_fs, populate_small_tree


def _stream_bytes(drive) -> int:
    return sum(cartridge.used for cartridge in drive.stacker.cartridges)


@pytest.fixture()
def dumped():
    fs = make_fs(name="src")
    populate_small_tree(fs)
    drive = make_drive()
    drain_engine(LogicalDump(fs, drive, dumpdates=DumpDates()).run())
    return fs, drive


class TestDumpNamespace:
    def test_names_are_breadth_first_with_every_hard_link(self, dumped):
        _fs, drive = dumped
        ns = DumpNamespace(drive).load()
        paths = [path for path, _ino in ns.names]
        depths = [path.count("/") for path in paths]
        assert depths == sorted(depths)
        main = ns.lookup("/src/main.c")
        assert sorted(ns.paths[main]) == ["/src/main-hard.c", "/src/main.c"]
        assert ns.paths[ns.root_ino] == ["/"]
        assert list(ns.dir_paths.values()) == ["/", "/docs", "/src",
                                               "/src/deep"]

    def test_into_maps_every_path(self, dumped):
        _fs, drive = dumped
        ns = DumpNamespace(drive, into="/restored").load()
        assert ns.dir_paths[ns.root_ino] == "/restored"
        assert all(path.startswith("/restored/") for path, _ino in ns.names)
        # Lookups stay rooted at the dump, not at ``into``.
        assert ns.lookup("/src/deep") == ns.lookup("src/deep/")

    def test_lookup_and_subtree(self, dumped):
        _fs, drive = dumped
        ns = DumpNamespace(drive).load()
        deep = ns.lookup("/src/deep")
        data = ns.lookup("/src/deep/data.bin")
        assert ns.subtree(deep) == {deep, data}
        assert ns.subtree(data) == {data}
        assert ns.lookup("/") == ns.root_ino
        assert ns.lookup("/src/nope") is None
        assert ns.lookup("/empty/below-a-file") is None

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["dir", "file", "link"]),
                              st.integers(0, 99), st.integers(0, 9000)),
                    max_size=20),
           st.sampled_from(["/", "/into"]))
    def test_names_are_the_live_tree(self, ops, into):
        fs = make_fs(name="src")
        dirs, files = ["/"], []
        for index, (kind, pick, size) in enumerate(ops):
            path = dirs[pick % len(dirs)].rstrip("/") + "/n%d" % index
            if kind == "dir":
                fs.mkdir(path)
                dirs.append(path)
            elif kind == "file" or not files:
                fs.create(path, b"x" * size)
                files.append(path)
            else:
                fs.link(files[pick % len(files)], path)
        fs.consistency_point()
        drive = make_drive()
        drain_engine(LogicalDump(fs, drive, dumpdates=DumpDates()).run())
        ns = DumpNamespace(drive, into=into).load()
        live = {path: inode.ino for path, inode in fs.walk("/") if path != "/"}
        prefix = into.rstrip("/")
        assert {path[len(prefix):]: ino for path, ino in ns.names} == live
        assert all(ns.lookup(path) == ino for path, ino in live.items())

    @pytest.mark.parametrize("level", [0, 1])
    def test_on_tape_is_exactly_the_records(self, level):
        fs = make_fs(name="src")
        populate_small_tree(fs)
        dates = DumpDates()
        drive = make_drive()
        drain_engine(LogicalDump(fs, drive, dumpdates=dates).run())
        if level:
            fs.create("/src/deep/fresh", b"f" * 9000)
            fs.consistency_point()
            drive = make_drive("l1")
            drain_engine(LogicalDump(fs, drive, level=1,
                                     dumpdates=dates).run())
        ns = DumpNamespace(drive).load()
        records = set(ns.dirs) | {record.ino for record in ns.files()}
        assert records == ns.reader.bits_inos
        assert all(ns.on_tape(ino) for ino in records)


class TestOneReading:
    def test_toc_and_compare_read_the_stream_once(self, dumped):
        fs, drive = dumped
        before = drive.bytes_read
        list_tape(drive)
        assert drive.bytes_read - before == _stream_bytes(drive)
        before = drive.bytes_read
        assert compare_tape(fs, drive) == []
        assert drive.bytes_read - before == _stream_bytes(drive)

    def test_interactive_reads_only_the_directories(self, dumped):
        _fs, drive = dumped
        before = drive.bytes_read
        InteractiveRestore(drive)
        assert 0 < drive.bytes_read - before < _stream_bytes(drive) // 2

    def test_compare_reports_a_path_through_a_file_as_missing(self, dumped):
        fs, drive = dumped
        fs.unlink("/src/deep/data.bin")
        fs.rmdir("/src/deep")
        fs.create("/src/deep", b"now a file")
        problems = compare_tape(fs, drive)
        assert "/src/deep/data.bin: missing from the file system" in problems


def _imaged():
    fs = make_fs()
    populate_small_tree(fs)
    drive = make_drive()
    result = drain_engine(ImageDump(fs, drive, snapshot_name="s").run())
    return fs, drive, result


def _cut_last_chunk(drive):
    """The stream re-terminated one chunk short, trailer count unchanged."""
    header = read_image_header(drive)
    chunks = list(read_chunks(drive, BLOCK_SIZE))
    cut = make_drive("cut")
    cut.write(header.pack())
    for start, count, data, _intact in chunks[:-1]:
        cut.write(pack_chunk_header(start, count, data))
        cut.write(data)
    cut.write(pack_trailer(sum(count for _s, count, _d, _i in chunks)))
    return cut


class TestImageChunkWalk:
    def test_walk_covers_the_dump(self):
        _fs, drive, result = _imaged()
        header = read_image_header(drive)
        chunks = list(read_chunks(drive, BLOCK_SIZE))
        assert header.fsinfo_image
        assert sum(count for _s, count, _d, _i in chunks) == result.blocks
        assert all(intact for _s, _c, _d, intact in chunks)
        assert all(len(data) == count * BLOCK_SIZE
                   for _s, count, data, _i in chunks)
        assert drive.bytes_read == _stream_bytes(drive)

    def test_short_stream_is_refused_by_restore_and_reported_by_verify(self):
        fs, drive, _result = _imaged()
        cut = _cut_last_chunk(drive)
        read_image_header(cut)
        with pytest.raises(FormatError, match="on cut truncated"):
            list(read_chunks(cut, BLOCK_SIZE))
        target = make_fs(name="t").volume
        with pytest.raises(FormatError, match="trailer says"):
            drain_engine(ImageRestore(target, cut).run())
        problems = compare_image(fs.volume, cut)
        assert len(problems) == 1 and "truncated" in problems[0]

    def test_corrupt_chunk_is_refused_by_restore(self):
        _fs, drive, _result = _imaged()
        cartridge = drive.stacker.cartridges[0]
        middle = cartridge.used // 2
        cartridge.overwrite(middle,
                            bytes([cartridge.read_at(middle, 1)[0] ^ 0xFF]))
        target = make_fs(name="t").volume
        with pytest.raises(FormatError, match="crc mismatch"):
            drain_engine(ImageRestore(target, drive).run())
