"""An image tape keeps the blocks it dumped, whatever writes the volume.

The tape holds read-only views of the stripe chunks its dump froze, so
every path that writes a chunk must copy a frozen one first.  Each test
here dumps a volume, writes it through one such path with bytes that
differ from the dumped ones, and checks that the tape still reads and
restores as it was cut.
"""

from __future__ import annotations

import pytest

from repro.backup import ImageDump, ImageRestore, drain_engine
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


def _dumped():
    """A one-group volume dumped whole: ``(fs, drive, tree, stream, first)``
    where ``first`` is a stripe-aligned block in the middle of ``/bulk``
    (whose chunks the tape shares) starting ``REGION_STRIPES`` stripes of
    garbage parity."""
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
    drain_engine(ImageDump(fs, drive).run())
    assert any(isinstance(record, memoryview)
               for record in drive.stacker.cartridges[0].records())
    return fs, drive, _tree(fs), drive.stream_bytes(), first


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


@pytest.mark.parametrize("write", [
    _full_stripe_write, _partial_write, _rebuild, _repair, _clone_written,
    _clone_then_source_written,
], ids=["full-stripe-write-run", "partial-write-run", "rebuild-disk",
        "repair-bad-blocks", "clone-side-write", "source-side-write"])
def test_a_tape_keeps_its_blocks_through_every_chunk_write(write):
    fs, drive, tree, stream, first = _dumped()
    region = fs.volume.read_run(first, REGION_STRIPES * NDATA)
    written = write(fs, first)
    assert written.read_run(first, REGION_STRIPES * NDATA) != region
    assert drive.stream_bytes() == stream
    target = fs.volume.clone_empty()
    drain_engine(ImageRestore(target, drive).run())
    assert _tree(WaflFilesystem.mount(target)) == tree


def _held_arrays(drive):
    """``{id: nbytes}`` of the distinct buffers the drive's view records
    point into (a frozen chunk, or the store's shared zeros)."""
    held = {}
    for cartridge in drive.stacker.cartridges:
        for record in cartridge.records():
            if isinstance(record, memoryview):
                owner = getattr(record.obj, "base", None)
                owner = record.obj if owner is None else owner
                held[id(owner)] = owner.nbytes if hasattr(
                    owner, "nbytes") else len(owner)
    return held


def test_a_kept_incremental_pins_at_most_twice_its_bytes_plus_parity():
    fs = make_fs(ngroups=1, ndata=NDATA, blocks_per_disk=2500, name="src")
    populate_small_tree(fs)
    fs.create("/bulk", bytes(range(256)) * (BULK_BLOCKS * 4096 // 256))
    drain_engine(ImageDump(fs, make_drive("full"), snapshot_name="A").run())
    # One-block edits, each allocated in a chunk of its own, as on an
    # aged volume, and one new file of many blocks.
    for index, block in enumerate(range(0, BULK_BLOCKS, 23)):
        fs.fsinfo.alloc_cursor = 2000 + 400 * index
        fs.write_file("/bulk", b"edit", block * 4096)
        fs.consistency_point()
    fs.create("/new", b"n" * (90 * 4096))
    drive = make_drive("incr")
    result = drain_engine(ImageDump(fs, drive, snapshot_name="B",
                                    base_snapshot="A").run())
    stream = drive.stream_bytes()
    # Rewrite the whole volume: every chunk the tape shares is copied.
    volume = fs.volume
    volume.write_run(0, b"\xa5" * (volume.nblocks * volume.block_size))
    assert drive.stream_bytes() == stream
    held = _held_arrays(drive)
    assert held, "the incremental shares no chunk: nothing is tested"
    # A chunk is NDATA data rows and one parity row per stripe.
    parity = sum(nbytes // (NDATA + 1) for nbytes in held.values())
    assert sum(held.values()) <= 2 * result.blocks * 4096 + parity
