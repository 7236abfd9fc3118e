"""A dump's tape keeps the blocks it dumped, whatever writes the volume.

Both dumps freeze the stripe chunks their whole plan takes at least half
of, and their tapes hold read-only views of them, so every path that
writes a chunk must copy a frozen one first.  Each test here dumps a
volume, image or logical, writes it through one such path with bytes
that differ from the dumped ones, and checks that the tape still reads
and restores as it was cut.
"""

from __future__ import annotations

import pytest

from repro.backup import (
    ImageDump,
    ImageRestore,
    LogicalDump,
    LogicalRestore,
    drain_engine,
)
from repro.backup.logical.dumpdates import DumpDates
from repro.wafl.filesystem import WaflFilesystem

from tests.conftest import make_drive, make_fs, populate_small_tree

NDATA = 4
BULK_BLOCKS = 300
# Stripes inside /bulk whose parity is made garbage before the dump, so
# that a reconstruction writes blocks that differ from the dumped ones.
REGION_STRIPES = 8


def _tree(fs):
    """``{path: contents}``: file data, link targets, None for a directory."""
    tree = {}
    for path, inode in fs.walk("/"):
        if inode.is_regular:
            tree[path] = fs.read_file(path)
        elif inode.is_symlink:
            tree[path] = fs.readlink(path)
        else:
            tree[path] = None
    return tree


def _image_restore(fs, drive):
    target = fs.volume.clone_empty()
    drain_engine(ImageRestore(target, drive).run())
    return WaflFilesystem.mount(target)


def _logical_restore(_fs, drive):
    target = make_fs(ngroups=1, ndata=3, blocks_per_disk=2500, name="dst")
    drain_engine(LogicalRestore(target, drive).run())
    return target


DUMPS = {
    "image": (lambda fs, drive: ImageDump(fs, drive), _image_restore),
    "logical": (lambda fs, drive: LogicalDump(fs, drive), _logical_restore),
}


def _dumped(dump):
    """A one-group volume dumped whole by ``dump``: ``(fs, drive, tree,
    stream, first)`` where ``first`` is a stripe-aligned block in the
    middle of ``/bulk`` (whose chunks the tape shares) starting
    ``REGION_STRIPES`` stripes of garbage parity."""
    fs = make_fs(ngroups=1, ndata=NDATA, blocks_per_disk=2500, name="src")
    populate_small_tree(fs)
    fs.create("/bulk", bytes(range(256)) * (BULK_BLOCKS * 4096 // 256))
    fs.consistency_point()
    _fbn, vbn, count = max(fs.file_extents(fs.namei("/bulk")),
                           key=lambda extent: extent[2])
    first = (vbn + count // 2) // NDATA * NDATA
    assert first + REGION_STRIPES * NDATA <= vbn + count
    group = fs.volume.groups[0]
    for stripe in range(first // NDATA, first // NDATA + REGION_STRIPES):
        group.parity_disk.write_block(stripe, b"\x5a" * 4096)
    drive = make_drive()
    tree = _tree(fs)
    drain_engine(DUMPS[dump][0](fs, drive).run())
    assert any(isinstance(record, memoryview)
               and not isinstance(record.obj, bytes)
               for record in drive.stacker.cartridges[0].records())
    return fs, drive, tree, drive.stream_bytes(), first


def _full_stripe_write(fs, first):
    fs.volume.write_run(first, b"\xee" * (2 * NDATA * 4096))
    return fs.volume


def _partial_write(fs, first):
    fs.volume.write_run(first + 1, b"\xee" * (2 * 4096))
    return fs.volume


def _rebuild(fs, first):
    fs.volume.groups[0].rebuild_disk(0)
    return fs.volume


def _repair(fs, first):
    fs.volume.groups[0].data_disks[0].fail_block(first // NDATA)
    assert fs.volume.repair_bad_blocks() == 1
    return fs.volume


def _clone_written(fs, first):
    clone = fs.volume.clone()
    clone.write_run(first, b"\xee" * (2 * NDATA * 4096))
    return clone


def _clone_then_source_written(fs, first):
    fs.volume.clone()
    return _full_stripe_write(fs, first)


@pytest.mark.parametrize("dump", sorted(DUMPS))
@pytest.mark.parametrize("write", [
    _full_stripe_write, _partial_write, _rebuild, _repair, _clone_written,
    _clone_then_source_written,
], ids=["full-stripe-write-run", "partial-write-run", "rebuild-disk",
        "repair-bad-blocks", "clone-side-write", "source-side-write"])
def test_a_tape_keeps_its_blocks_through_every_chunk_write(write, dump):
    fs, drive, tree, stream, first = _dumped(dump)
    region = fs.volume.read_run(first, REGION_STRIPES * NDATA)
    written = write(fs, first)
    assert written.read_run(first, REGION_STRIPES * NDATA) != region
    assert drive.stream_bytes() == stream
    assert _tree(DUMPS[dump][1](fs, drive)) == tree


def _held_arrays(drive):
    """``{id: nbytes}`` of the distinct buffers the drive's view records
    point into (a frozen chunk, the store's shared zeros, or the
    ``bytes`` a logical record's part was cut from)."""
    held = {}
    for cartridge in drive.stacker.cartridges:
        for record in cartridge.records():
            if isinstance(record, memoryview):
                owner = getattr(record.obj, "base", None)
                owner = record.obj if owner is None else owner
                held[id(owner)] = owner.nbytes if hasattr(
                    owner, "nbytes") else len(owner)
    return held


def _edit_scattered(fs):
    """One-block edits of /bulk, each allocated in a chunk of its own, as
    on an aged volume, and one new file of many blocks."""
    for index, block in enumerate(range(0, BULK_BLOCKS, 23)):
        fs.fsinfo.alloc_cursor = 2000 + 400 * index
        fs.write_file("/bulk", b"edit", block * 4096)
        fs.consistency_point()
    fs.create("/new", b"n" * (90 * 4096))


def _assert_pins_at_most_twice(fs, drive, blocks):
    """Rewrite the whole volume — every chunk the tape shares is copied
    — and bound what the tape's views pin by ``blocks`` dumped."""
    stream = drive.stream_bytes()
    volume = fs.volume
    volume.write_run(0, b"\xa5" * (volume.nblocks * volume.block_size))
    assert drive.stream_bytes() == stream
    held = _held_arrays(drive)
    assert held, "the tape shares no chunk: nothing is tested"
    # A chunk is NDATA data rows and one parity row per stripe.
    parity = sum(nbytes // (NDATA + 1) for nbytes in held.values())
    assert sum(held.values()) <= 2 * blocks * 4096 + parity


def test_a_kept_incremental_pins_at_most_twice_its_bytes_plus_parity():
    fs = make_fs(ngroups=1, ndata=NDATA, blocks_per_disk=2500, name="src")
    populate_small_tree(fs)
    fs.create("/bulk", bytes(range(256)) * (BULK_BLOCKS * 4096 // 256))
    drain_engine(ImageDump(fs, make_drive("full"), snapshot_name="A").run())
    _edit_scattered(fs)
    drive = make_drive("incr")
    result = drain_engine(ImageDump(fs, drive, snapshot_name="B",
                                    base_snapshot="A").run())
    _assert_pins_at_most_twice(fs, drive, result.blocks)


def test_a_kept_logical_level_1_pins_at_most_twice_its_bytes_plus_parity():
    fs = make_fs(ngroups=1, ndata=NDATA, blocks_per_disk=2500, name="src")
    populate_small_tree(fs)
    fs.create("/bulk", bytes(range(256)) * (BULK_BLOCKS * 4096 // 256))
    dumpdates = DumpDates()
    drain_engine(LogicalDump(fs, make_drive("full"), level=0,
                             dumpdates=dumpdates).run())
    _edit_scattered(fs)
    drive = make_drive("level1")
    result = drain_engine(LogicalDump(fs, drive, level=1,
                                      dumpdates=dumpdates).run())
    # The data blocks the level 1 read: every extent of each file it
    # dumped (directories are read whole, as bytes).
    blocks = sum(count for ino in result.dumped_inos
                 if fs.inode(ino).is_regular
                 for _fbn, _vbn, count in fs.file_extents(ino))
    assert fs.namei("/new") in result.dumped_inos
    _assert_pins_at_most_twice(fs, drive, blocks)
