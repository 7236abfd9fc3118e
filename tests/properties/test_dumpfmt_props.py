"""Property-based tests for the dump format."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dumpfmt.records import (
    RecordHeader,
    TapeLabel,
    pack_inode_bitmap,
    unpack_inode_bitmap,
)
from repro.dumpfmt.spec import SEGMENT_SIZE, TS_INODE

from tests.dumpfmt.test_stream import stream_segments


@settings(max_examples=60, deadline=None)
@given(
    ino=st.integers(0, 2**32 - 1),
    size=st.integers(0, 2**48),
    perms=st.integers(0, 0o7777),
    nlink=st.integers(0, 2**16 - 1),
    uid=st.integers(0, 2**32 - 1),
    mtime=st.integers(0, 2**63 - 1),
    dos_name=st.binary(max_size=16),
    count=st.integers(0, 64),
)
def test_header_roundtrip_props(ino, size, perms, nlink, uid, mtime,
                                dos_name, count):
    header = RecordHeader(TS_INODE, ino)
    header.size = size
    header.perms = perms
    header.nlink = nlink
    header.uid = uid
    header.mtime = mtime
    header.dos_name = dos_name.rstrip(b"\0")
    header.count = count
    header.segment_map = [index % 2 for index in range(count)]
    recovered = RecordHeader.unpack(header.pack())
    assert recovered.ino == ino
    assert recovered.size == size
    assert recovered.perms == perms
    assert recovered.nlink == nlink
    assert recovered.uid == uid
    assert recovered.mtime == mtime
    assert recovered.dos_name == dos_name.rstrip(b"\0")
    assert recovered.segment_map == header.segment_map


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(0, 4000), max_size=200), st.integers(4000, 5000))
def test_bitmap_roundtrip_props(inos, max_ino):
    raw = pack_inode_bitmap(inos, max_ino)
    assert unpack_inode_bitmap(raw) == {i for i in inos if i <= max_ino}


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=40000),
       st.sets(st.integers(0, 12), max_size=5))
def test_segments_roundtrip_props(data, holes):
    """A file written as per-kilobyte segments, every segment of a hole
    block absent, reads back through the stream as the data with the
    hole blocks zeroed."""
    per_block = 4096 // SEGMENT_SIZE
    segments = [
        None if (at // SEGMENT_SIZE) // per_block in holes
        else data[at:at + SEGMENT_SIZE].ljust(SEGMENT_SIZE, b"\0")
        for at in range(0, len(data), SEGMENT_SIZE)]
    recovered = stream_segments(segments, len(data)).data
    assert len(recovered) == len(data)
    for index in range(len(segments)):
        lo = index * SEGMENT_SIZE
        hi = min(len(data), lo + SEGMENT_SIZE)
        if (index // per_block) in holes:
            assert recovered[lo:hi] == bytes(hi - lo)
        else:
            assert recovered[lo:hi] == data[lo:hi]


@settings(max_examples=40, deadline=None)
@given(
    hostname=st.text(alphabet=st.characters(blacklist_characters="\0",
                                            min_codepoint=32,
                                            max_codepoint=0x2FFF),
                     max_size=40),
    subtree=st.text(alphabet=st.characters(blacklist_characters="\0",
                                           min_codepoint=32,
                                           max_codepoint=126),
                    max_size=60),
    level=st.integers(0, 9),
    root_ino=st.integers(2, 2**31),
)
def test_tape_label_roundtrip_props(hostname, subtree, level, root_ino):
    label = TapeLabel(hostname, "fs", subtree, level, root_ino, 100)
    recovered = TapeLabel.unpack(label.pack())
    assert recovered.hostname == hostname
    assert recovered.subtree == subtree
    assert recovered.level == level
    assert recovered.root_ino == root_ino
