"""Dump record header and bitmap tests."""

import pytest

from repro.errors import FormatError
from repro.dumpfmt.records import (
    RecordHeader,
    TapeLabel,
    pack_inode_bitmap,
    unpack_inode_bitmap,
)
from repro.dumpfmt.spec import HEADER_SIZE, SEGMENTS_PER_HEADER, TS_END, TS_INODE


def full_header():
    header = RecordHeader(TS_INODE, ino=1234)
    header.date = 999
    header.ddate = 500
    header.size = 123456
    header.perms = 0o640
    header.ftype = 1
    header.nlink = 2
    header.uid = 10
    header.gid = 20
    header.atime, header.mtime, header.ctime = 1, 2, 3
    header.generation = 77
    header.qtree = 4
    header.dos_name = b"EIGHT3~1.TXT"
    header.dos_bits = 0x20
    header.dos_time = 555
    header.acl_length = 64
    header.count = 3
    header.segment_map = [1, 0, 1]
    return header


def test_header_is_exactly_1kb():
    assert len(full_header().pack()) == HEADER_SIZE


def test_header_roundtrip():
    original = full_header()
    recovered = RecordHeader.unpack(original.pack())
    for field in ("type", "ino", "date", "ddate", "size", "perms", "ftype",
                  "nlink", "uid", "gid", "atime", "mtime", "ctime",
                  "generation", "qtree", "dos_name", "dos_bits", "dos_time",
                  "acl_length", "count", "segment_map"):
        assert getattr(recovered, field) == getattr(original, field), field


def test_checksum_detects_bit_flip():
    raw = bytearray(full_header().pack())
    raw[200] ^= 0x01
    with pytest.raises(FormatError):
        RecordHeader.unpack(bytes(raw))


def test_short_header_rejected():
    with pytest.raises(FormatError):
        RecordHeader.unpack(b"x" * 100)


def test_unknown_type_rejected():
    with pytest.raises(FormatError):
        RecordHeader(99)


def test_segment_map_limit():
    header = RecordHeader(TS_INODE)
    header.count = SEGMENTS_PER_HEADER + 1
    header.segment_map = [1] * header.count
    with pytest.raises(FormatError):
        header.pack()


def test_segment_map_count_mismatch():
    header = RecordHeader(TS_INODE)
    header.count = 2
    header.segment_map = [1]
    with pytest.raises(FormatError):
        header.pack()


def test_end_record_packs_empty():
    header = RecordHeader(TS_END)
    recovered = RecordHeader.unpack(header.pack())
    assert recovered.type == TS_END
    assert recovered.count == 0


class TestInodeBitmap:
    def test_roundtrip(self):
        inos = {1, 2, 77, 1000}
        raw = pack_inode_bitmap(inos, max_ino=1024)
        assert unpack_inode_bitmap(raw) == inos

    def test_empty(self):
        assert unpack_inode_bitmap(pack_inode_bitmap([], 100)) == set()

    def test_out_of_range_dropped(self):
        raw = pack_inode_bitmap({5, 5000}, max_ino=100)
        assert unpack_inode_bitmap(raw) == {5}

    def test_boundary_ino(self):
        raw = pack_inode_bitmap({100}, max_ino=100)
        assert unpack_inode_bitmap(raw) == {100}


class TestTapeLabel:
    def test_roundtrip(self):
        label = TapeLabel("host", "home", "/qt1", 3, 17, 4096)
        recovered = TapeLabel.unpack(label.pack())
        assert recovered.hostname == "host"
        assert recovered.filesystem == "home"
        assert recovered.subtree == "/qt1"
        assert recovered.level == 3
        assert recovered.root_ino == 17
        assert recovered.max_ino == 4096

    def test_too_long_rejected(self):
        with pytest.raises(FormatError):
            TapeLabel("h" * 2000, "", "/", 0, 2, 0).pack()

    def test_malformed_rejected(self):
        with pytest.raises(FormatError):
            TapeLabel.unpack((5).to_bytes(2, "little") + b"xxxxx")
