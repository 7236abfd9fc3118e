"""Dump stream writer/reader tests, including corruption resync."""

import pytest

from repro.errors import FormatError
from repro.dumpfmt.records import RecordHeader, TapeLabel
from repro.dumpfmt.spec import SEGMENT_SIZE, SEGMENTS_PER_HEADER, TS_INODE
from repro.dumpfmt.stream import DumpStreamReader, DumpStreamWriter
from repro.wafl.inode import FileType

from tests.conftest import make_drive


def write_basic_stream(drive, files):
    """files: list of (ino, data bytes, acl)."""
    writer = DumpStreamWriter(drive, date=100, ddate=0)
    writer.write_tape_header(TapeLabel("h", "fs", "/", 0, 2, 64))
    writer.write_clri([9], 64)
    writer.write_bits([ino for ino, _d, _a in files], 64)
    for ino, data, acl in files:
        header = RecordHeader(TS_INODE, ino)
        header.size = len(data)
        header.ftype = FileType.REGULAR
        writer.begin_inode(header)
        writer.feed_data(data)
        writer.end_inode()
        if acl:
            writer.write_acl(ino, acl)
    writer.write_end()
    return writer


def read_all(drive, resync=False):
    drive.rewind()
    reader = DumpStreamReader(drive)
    reader.read_preamble()
    entries = []
    while True:
        entry = reader.next_inode(resync=resync)
        if entry is None:
            break
        entries.append(entry)
    return reader, entries


def stream_segments(segments, size):
    """Write one file of ``size`` bytes as the literal per-kilobyte
    ``segments`` (``None`` a hole) and read its entry back."""
    drive = make_drive()
    writer = DumpStreamWriter(drive, date=1)
    writer.write_tape_header(TapeLabel("h", "f", "/", 0, 2, 8))
    writer.write_clri([], 8)
    writer.write_bits([5], 8)
    header = RecordHeader(TS_INODE, 5)
    header.size = size
    header.ftype = FileType.REGULAR
    writer.begin_inode(header)
    writer.feed_segments(segments)
    writer.end_inode()
    writer.write_end()
    _reader, entries = read_all(drive)
    return entries[0]


def test_segments_roundtrip_with_holes():
    # 3000 bytes of data then a whole 4 KB hole block: 3 data segments
    # (the last one zero padded on tape), one padding and four hole
    # segments; the file reads back with the hole block as zeros.
    data = b"a" * 3000
    segments = [data[:SEGMENT_SIZE], data[SEGMENT_SIZE:2 * SEGMENT_SIZE],
                data[2 * SEGMENT_SIZE:].ljust(SEGMENT_SIZE, b"\0"),
                bytes(SEGMENT_SIZE)] + [None] * 4
    entry = stream_segments(segments, 8 * SEGMENT_SIZE)
    assert entry.total_segments == 8
    assert entry.runs[-1] == (4, None)
    assert entry.data == data + bytes(8 * SEGMENT_SIZE - 3000)


def test_hole_segments_read_back_as_zeros():
    segments = [b"x" * SEGMENT_SIZE, None, b"y" * SEGMENT_SIZE]
    data = stream_segments(segments, 3 * SEGMENT_SIZE).data
    assert data[SEGMENT_SIZE : 2 * SEGMENT_SIZE] == bytes(SEGMENT_SIZE)
    assert data == b"x" * SEGMENT_SIZE + bytes(SEGMENT_SIZE) \
        + b"y" * SEGMENT_SIZE


def test_stream_roundtrip():
    drive = make_drive()
    files = [
        (5, b"hello" * 100, b""),
        (6, b"", b""),
        (7, bytes(range(256)) * 30, b"ACLDATA"),
    ]
    write_basic_stream(drive, files)
    reader, entries = read_all(drive)
    assert reader.label.level == 0
    assert reader.clri_inos == {9}
    assert reader.bits_inos == {5, 6, 7}
    assert [e.ino for e in entries] == [5, 6, 7]
    assert entries[0].data == b"hello" * 100
    assert entries[1].data == b""
    assert entries[2].data == bytes(range(256)) * 30
    assert entries[2].acl == b"ACLDATA"


def test_large_file_uses_continuation_records():
    drive = make_drive()
    big = b"Z" * (SEGMENT_SIZE * (SEGMENTS_PER_HEADER + 10))
    write_basic_stream(drive, [(5, big, b"")])
    _reader, entries = read_all(drive)
    assert len(entries) == 1
    assert entries[0].data == big


def test_writer_rejects_nested_inode_records():
    drive = make_drive()
    writer = DumpStreamWriter(drive)
    header = RecordHeader(TS_INODE, 5)
    writer.begin_inode(header)
    with pytest.raises(FormatError):
        writer.begin_inode(RecordHeader(TS_INODE, 6))


def test_reader_requires_preamble_order():
    drive = make_drive()
    writer = DumpStreamWriter(drive)
    writer.write_end()
    drive.rewind()
    reader = DumpStreamReader(drive)
    with pytest.raises(FormatError):
        reader.read_preamble()


def test_corruption_without_resync_raises():
    drive = make_drive()
    write_basic_stream(drive, [(5, b"data" * 600, b"")])
    # Smash bytes in the middle of the stream.
    cartridge = drive.stacker.cartridges[0]
    cartridge.overwrite(4096, b"\xff" * 104)
    drive.rewind()
    reader = DumpStreamReader(drive)
    with pytest.raises(FormatError):
        reader.read_preamble()
        while reader.next_inode() is not None:
            pass


def test_corruption_with_resync_loses_only_affected_file():
    drive = make_drive()
    files = [(5, b"A" * 5000, b""), (6, b"B" * 5000, b""), (7, b"C" * 5000, b"")]
    write_basic_stream(drive, files)
    # Find and corrupt the middle file's header: records are 1 KB aligned.
    stream = drive.stream_bytes()
    cartridge = drive.stacker.cartridges[0]
    # Corrupt a region that starts after file 5's data.
    offset = stream.find(b"B" * SEGMENT_SIZE)
    corrupt_at = (offset // 1024) * 1024 - 1024  # the TS_INODE header of 6
    cartridge.overwrite(corrupt_at, b"\x00" * 8)
    reader, entries = read_all(drive, resync=True)
    recovered = {e.ino for e in entries}
    assert 5 in recovered
    assert 7 in recovered
    assert reader.resyncs > 0


def test_hole_map_roundtrip_through_stream():
    drive = make_drive()
    writer = DumpStreamWriter(drive, date=1)
    writer.write_tape_header(TapeLabel("h", "f", "/", 0, 2, 8))
    writer.write_clri([], 8)
    writer.write_bits([5], 8)
    header = RecordHeader(TS_INODE, 5)
    header.size = 12 * SEGMENT_SIZE
    header.ftype = FileType.REGULAR
    writer.begin_inode(header)
    # Block 0 has data, block 1 (segments 4-7) is a whole-block hole,
    # block 2 has data.
    writer.feed_segments(
        [b"d" * SEGMENT_SIZE] * 4 + [None] * 4 + [b"e" * SEGMENT_SIZE] * 4
    )
    writer.end_inode()
    writer.write_end()
    _reader, entries = read_all(drive)
    entry = entries[0]
    assert entry.runs == [(4, b"d" * 4 * SEGMENT_SIZE), (4, None),
                          (4, b"e" * 4 * SEGMENT_SIZE)]
    data = entry.data
    assert data.startswith(b"d")
    assert data.endswith(b"e")
    assert data[4 * SEGMENT_SIZE] == 0
