"""Logical restore's per-segment fallback for non-block-aligned runs.

The dump writer always emits runs starting on 4 KB block boundaries, so
``_block_runs`` normally takes its aligned fast path.  The byte format
itself allows arbitrary segment-granularity runs (a foreign dump tool, or
a rewritten stream, may hole out individual zero kilobytes), and restore
must then fall back to the per-segment walk with identical block
classification.  These tests craft such streams and assert byte-identical
recovery.
"""

from repro.backup import (
    DumpDates,
    LogicalDump,
    LogicalRestore,
    drain_engine,
    verify_trees,
)
from repro.backup.logical.restore import _SEGMENTS_PER_BLOCK, _block_runs
from repro.dumpfmt.records import RecordHeader
from repro.dumpfmt.spec import SEGMENT_SIZE, TS_INODE
from repro.dumpfmt.stream import (
    DumpStreamReader,
    DumpStreamWriter,
    InodeEntry,
    data_to_segments,
    segments_to_runs,
)
from repro.wafl.consts import BLOCK_SIZE
from repro.wafl.fsck import fsck
from repro.wafl.inode import FileType

from tests.conftest import make_drive, make_fs, populate_small_tree

_ZERO_SEGMENT = bytes(SEGMENT_SIZE)


def _entry_bytes_via_block_runs(entry: InodeEntry) -> bytes:
    """Reassemble an entry's contents from ``_block_runs`` output."""
    parts = []
    for _first, chunk, nblocks in _block_runs(entry):
        parts.append(chunk if chunk is not None else bytes(nblocks * BLOCK_SIZE))
    return b"".join(parts)[: entry.header.size]


def _unaligned(runs) -> bool:
    """True when some run starts off a 4 KB block boundary."""
    position = 0
    for count, _buf in runs:
        if position % _SEGMENTS_PER_BLOCK:
            return True
        position += count
    return False


def _segment(fill: int) -> bytes:
    return bytes([fill]) * SEGMENT_SIZE


def test_block_runs_fallback_matches_entry_data():
    # Data runs starting at segment positions 3 and 9 — neither on a
    # block boundary — plus a trailing short segment.
    segments = [
        _segment(0xAA), None, None, _segment(0xBB),  # block 0: present
        None, None, None, None,                      # block 1: pure hole
        None, _segment(0xCC), _segment(0xDD), None,  # block 2: present
        _segment(0xEE),                              # block 3: short tail
    ]
    runs = segments_to_runs(segments)
    assert _unaligned(runs), "test stream must exercise the fallback"
    header = RecordHeader(TS_INODE, 7)
    header.size = 12 * SEGMENT_SIZE + 10
    header.ftype = FileType.REGULAR
    entry = InodeEntry(header, runs)
    assert _entry_bytes_via_block_runs(entry) == entry.data
    # Block classification: the pure-hole block stays a hole, every
    # partially present block comes out whole and zero padded.
    shapes = [(first, chunk is None, nblocks)
              for first, chunk, nblocks in _block_runs(entry)]
    assert shapes == [(0, False, 1), (1, True, 1), (2, False, 1), (3, False, 1)]


def _reencode_with_segment_holes(src_drive, dst_drive, target_ino: int):
    """Copy a dump stream, re-encoding one file's zero kilobytes as holes.

    Per-segment hole detection produces runs that start mid-block, which
    the dump writer itself never emits — exactly the foreign stream the
    fallback path exists for.
    """
    src_drive.rewind()
    reader = DumpStreamReader(src_drive)
    label = reader.read_preamble()
    writer = DumpStreamWriter(dst_drive, date=reader.date, ddate=reader.ddate)
    writer.write_tape_header(label)
    bound = max(reader.clri_inos | reader.bits_inos | {0}) + 8
    writer.write_clri(reader.clri_inos, bound)
    writer.write_bits(reader.bits_inos, bound)
    rewritten = 0
    while True:
        entry = reader.next_inode()
        if entry is None:
            break
        runs = entry.runs
        if entry.ino == target_ino:
            holed = [None if seg == _ZERO_SEGMENT else seg
                     for seg in data_to_segments(entry.data)]
            runs = segments_to_runs(holed)
            assert _unaligned(runs), "re-encoded stream must be unaligned"
            rewritten += 1
        writer.begin_inode(entry.header)
        for count, buf in runs:
            if buf is None:
                writer.feed_holes(count)
            else:
                writer.feed_data(buf, count)
        writer.end_inode()
        if entry.acl:
            writer.write_acl(entry.ino, entry.acl)
    writer.write_end()
    assert rewritten == 1


def test_restore_recovers_unaligned_stream_byte_identically():
    source = make_fs(name="src")
    populate_small_tree(source)
    # Zero stretches at unaligned segment offsets inside otherwise dense
    # data: segment 1 of block 0, segments 5-6 of block 1, all of block 2.
    payload = bytearray(3 * BLOCK_SIZE + 700)
    for index in range(len(payload)):
        payload[index] = (index * 7) % 251 + 1
    payload[SEGMENT_SIZE : 2 * SEGMENT_SIZE] = _ZERO_SEGMENT
    payload[5 * SEGMENT_SIZE : 7 * SEGMENT_SIZE] = bytes(2 * SEGMENT_SIZE)
    payload[2 * BLOCK_SIZE : 3 * BLOCK_SIZE] = bytes(BLOCK_SIZE)
    payload = bytes(payload)
    source.create("/unaligned.bin", payload)

    dumped = make_drive(name="dumped")
    drain_engine(LogicalDump(source, dumped, level=0,
                             dumpdates=DumpDates()).run())
    rewritten = make_drive(name="rewritten")
    _reencode_with_segment_holes(dumped, rewritten,
                                 source.namei("/unaligned.bin"))

    target = make_fs(name="dst")
    drain_engine(LogicalRestore(target, rewritten).run())
    assert target.read_file("/unaligned.bin") == payload
    assert verify_trees(source, target, check_mtime=True) == []
    assert fsck(target).clean
