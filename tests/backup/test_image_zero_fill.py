"""Image chunks over zero fill: CRC'd without being read, still checked.

A block no write ever materialized reads as a view of a shared zero
buffer, and an image chunk over it is CRC'd in closed form by both the
dump and the restore.  Damage to such a chunk must still be refused, and
a tape that lost zero identity — reloaded from its container file — must
still restore through ``zlib.crc32`` to the same volume.
"""

import pytest

from repro.backup import drain_engine
from repro.backup.physical import ImageDump, ImageRestore, compare_image
from repro.chaos.verify import volume_digest
from repro.errors import FormatError
from repro.storage.disk import is_zero_fill
from repro.storage.persist import load_tape, save_tape
from repro.wafl.consts import BLOCK_SIZE
from repro.wafl.filesystem import WaflFilesystem
from repro.wafl.fsck import fsck

from tests.conftest import make_drive, make_fs, populate_small_tree


def _imaged_with_zero_fill():
    """An image tape of a tree holding a 2 MB file of zeros, whose blocks
    no write materialized."""
    fs = make_fs()
    populate_small_tree(fs)
    fs.create("/zeros", bytes(512 * BLOCK_SIZE))
    drive = make_drive()
    drain_engine(ImageDump(fs, drive, snapshot_name="s").run())
    return fs, drive


def _zero_records(cartridge):
    """``(offset, length)`` of each shared-zero record on ``cartridge``."""
    found, offset = [], 0
    for record in cartridge.records():
        if is_zero_fill(record):
            found.append((offset, len(record)))
        offset += len(record)
    return found


def _restored(fs, drive):
    volume = fs.volume.clone_empty()
    drain_engine(ImageRestore(volume, drive).run())
    return volume


def test_zero_fill_chunks_restore_and_verify():
    fs, drive = _imaged_with_zero_fill()
    zero = _zero_records(drive.stacker.cartridges[0])
    assert sum(length for _offset, length in zero) >= 256 * BLOCK_SIZE
    assert compare_image(fs.volume, drive) == []
    volume = _restored(fs, drive)
    restored = WaflFilesystem.mount(volume)
    assert restored.read_file("/zeros") == bytes(512 * BLOCK_SIZE)
    assert fsck(restored).clean


@pytest.mark.parametrize("where", [0.0, 0.5, 1.0])
def test_a_flipped_byte_in_zero_fill_is_refused(where):
    fs, drive = _imaged_with_zero_fill()
    cartridge = drive.stacker.cartridges[0]
    offset, length = max(_zero_records(cartridge), key=lambda r: r[1])
    at = offset + min(length - 1, int(where * length))
    cartridge.overwrite(at, b"\x01")
    assert not any(start <= at < start + size
                   for start, size in _zero_records(cartridge))
    with pytest.raises(FormatError, match="chunk crc mismatch"):
        _restored(fs, drive)
    assert any("corrupt on tape" in problem
               for problem in compare_image(fs.volume, drive))


def test_a_reloaded_tape_restores_the_same_volume(tmp_path):
    fs, drive = _imaged_with_zero_fill()
    path = str(tmp_path / "image.tape")
    save_tape(drive, path)
    reloaded = load_tape(path)
    assert reloaded.stream_bytes() == drive.stream_bytes()
    assert not any(_zero_records(cartridge)
                   for cartridge in reloaded.stacker.cartridges)
    volume = _restored(fs, reloaded)
    assert volume_digest(volume) == volume_digest(_restored(fs, drive))
    restored = WaflFilesystem.mount(volume)
    assert restored.read_file("/zeros") == bytes(512 * BLOCK_SIZE)
    assert fsck(restored, check_parity=True).clean
