"""A dump's tape shares the stripe chunks it was read from.

Before its first read a dump freezes every chunk of which its whole plan
takes at least half the data blocks (``RaidVolume.freeze``) — the chunk
becomes copy-on-write shared, exactly as after a clone — and the tape
keeps read-only views of it instead of copies.  These tests hold the
store's half of that contract, the tape's handling of views, and what it
saves in memory, for the image and the logical dump.
"""

from __future__ import annotations

import os
import tracemalloc
import zlib

import numpy as np

from repro.backup import ImageDump, LogicalDump, drain_engine
from repro.backup.common import tape_buffer
from repro.backup.physical.image import pack_chunk_header
from repro.obs.metrics import REGISTRY
from repro.storage.disk import StripeStore
from repro.storage.persist import save_media, save_tape
from repro.storage.tape import TapeCartridge

from tests.conftest import make_drive, make_fs, make_volume, populate_small_tree


def _store():
    """A 4-column store with its first four chunks materialized."""
    store = StripeStore(nstripes=400, ndata=4, block_size=64, parity=True)
    for ci in range(4):
        store.writable(ci)[:] = ci + 1
    return store


def test_a_chunk_is_frozen_when_the_runs_take_half_its_data_blocks():
    store = _store()
    span, half = store.span, store.span // 2
    frozen = store.freeze([(0, half),                        # chunk 0: half
                           (span, half - 1),                 # chunk 1: less
                           (2 * span, 3), (2 * span + 9, half - 3),  # 2: two
                           (4 * span, span)])                # 4: never written
    assert frozen == {0, 2}
    assert store._shared == {0, 2}


def test_a_frozen_chunk_is_copied_before_any_write():
    store = _store()
    out: list = []
    store.spans(0, 2 * store.span, out, store.freeze([(0, store.span)]))
    kept, live = out
    assert isinstance(kept, memoryview) and kept.readonly
    assert isinstance(live, np.ndarray)  # chunk 1 was not kept: a live view
    before = kept.tobytes()
    store.writable(0)[:] = 0xEE
    assert kept.tobytes() == before
    assert store._chunks[0][0] == 0xEE


def test_a_chunk_written_after_its_freeze_is_read_as_a_copy():
    """Freezing is once per dump, before its first read: a chunk a write
    has copied since is no longer the frozen array, and its read is a
    live view that the dump copies, not a view the tape would keep."""
    volume = make_volume(ngroups=1)
    span, bs = volume.groups[0].store.span, volume.block_size
    volume.write_run(0, b"\x11" * (2 * span * bs))
    frozen = volume.freeze([(0, 2 * span)])
    assert frozen == [{0, 1}]
    volume.write_run(0, b"\x22" * bs)
    out: list = []
    volume.read_run(0, 2 * span, out, frozen)
    copied, kept = [tape_buffer(buffer) for buffer in out]
    assert type(copied) is bytes and copied[:bs] == b"\x22" * bs
    assert isinstance(kept, memoryview) and kept.readonly
    volume.write_run(0, b"\x33" * (2 * span * bs))
    assert copied[:2 * bs] == b"\x22" * bs + b"\x11" * bs
    assert kept.tobytes() == b"\x11" * (span * bs)


def test_a_cartridge_keeps_bytes_and_read_only_views_and_copies_the_rest():
    frozen = np.arange(64, dtype=np.uint8)
    view = memoryview(frozen).toreadonly()
    writable = bytearray(b"w" * 10)
    cartridge = TapeCartridge(capacity=1000)
    for record in (b"bytes", view, writable, memoryview(writable),
                   np.arange(8, dtype=np.uint8)):
        cartridge.append(record)
    kept = list(cartridge.records())
    assert kept[0] == b"bytes" and kept[1] is view
    assert [type(record) for record in kept[2:]] == [bytes] * 3
    writable[:] = b"x" * 10
    assert kept[2] == kept[3] == b"w" * 10
    # Every read is bytes, at a view record's boundaries or inside it.
    assert cartridge.read_at(5, 64) == frozen.tobytes()
    assert cartridge.read_at(7, 3) == bytes([2, 3, 4])
    assert type(cartridge.read_at(5, 64)) is bytes


def test_a_list_write_is_one_write_of_its_join_across_cartridges():
    pieces = [b"head", memoryview(bytes(range(200))).toreadonly(),
              np.full(50, 7, np.uint8)]
    joined = b"".join(bytes(piece) for piece in pieces)
    drive = make_drive(tapes=3, capacity=100)
    REGISTRY.reset()
    REGISTRY.enabled = True
    try:
        changes = drive.write(pieces)
        writes = REGISTRY.counter("tape.writes").value
    finally:
        REGISTRY.enabled = False
        REGISTRY.reset()
    assert (writes, changes, drive.bytes_written) == (1, 2, len(joined))
    assert drive.stream_bytes() == joined
    drive.rewind()
    assert drive.read(len(joined)) == joined
    header = pack_chunk_header(5, 1, pieces)
    assert header == pack_chunk_header(5, 1, joined)
    assert header[-4:] == zlib.crc32(joined).to_bytes(4, "little")


def test_starts_with_compares_view_records_as_bytes():
    data = np.arange(256, dtype=np.uint8)
    ours, theirs = TapeCartridge(capacity=1000), TapeCartridge(capacity=1000)
    ours.append(memoryview(data).toreadonly())
    theirs.append(data.tobytes()[:100])
    assert ours.starts_with(theirs) and not theirs.starts_with(ours)
    theirs.overwrite(99, b"\xff")
    assert not ours.starts_with(theirs)


def _clone_to_dump(bulk_files: int = 2):
    """A clone whose snapshot ``weekly`` already exists, so that a dump
    of it writes nothing to the volume: ``(drive, clone, fs)``."""
    fs = make_fs(ngroups=1, ndata=4, blocks_per_disk=2500)
    populate_small_tree(fs)
    for index in range(bulk_files):
        fs.create("/bulk%d" % index,
                  (np.arange(1 << 18, dtype=np.uint32) + index).tobytes())
    fs.snapshot_create("weekly")
    clone = fs.clone_volume()
    drive = make_drive()
    return drive, clone, fs


def test_a_cartridge_of_views_persists_as_the_same_bytes(tmp_path):
    drive, clone, _fs = _clone_to_dump(bulk_files=1)
    drain_engine(ImageDump(clone, drive, snapshot_name="weekly").run())
    cartridge = drive.stacker.cartridges[0]
    assert any(isinstance(record, memoryview)
               for record in cartridge.records())
    copied = TapeCartridge(capacity=cartridge.capacity, label=cartridge.label)
    copied.append(drive.stream_bytes())
    paths = [os.path.join(tmp_path, name) for name in ("views", "bytes")]
    save_media([cartridge], paths[0])
    save_media([copied], paths[1])
    with open(paths[0], "rb") as views, open(paths[1], "rb") as joined:
        assert views.read() == joined.read()
    save_tape(drive, paths[0])
    drive.stacker.cartridges[0] = copied
    save_tape(drive, paths[1])
    with open(paths[0], "rb") as views, open(paths[1], "rb") as joined:
        assert views.read() == joined.read()


def _allocated(engine):
    """``(bytes still allocated after it ran, bytes it wrote to tape)``
    of one dump engine."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = drain_engine(engine.run())
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return held, result.bytes_to_tape


def test_an_image_dump_of_a_clone_allocates_a_small_part_of_its_tape():
    """The tape shares the clone's chunks: before, it held a copy of
    every block it wrote (more than 100 % of the tape's bytes)."""
    drive, clone, _fs = _clone_to_dump()
    held, written = _allocated(
        ImageDump(clone, drive, snapshot_name="weekly"))
    assert written > 2 << 20
    assert held < 0.10 * written


def test_a_logical_dump_of_a_clone_allocates_a_small_part_of_its_tape():
    """The same for a logical dump of the clone's snapshot (so that the
    dump writes nothing to the volume): before, its records joined every
    block they carried.  The small tree's files, in chunks the plan
    takes less than half of, are copies: about 110 KB."""
    drive, clone, _fs = _clone_to_dump(bulk_files=4)
    held, written = _allocated(
        LogicalDump(clone.snapshot_view("weekly"), drive))
    assert written > 2 << 20
    assert held < 0.10 * written
