"""The two tape formats, pinned as committed bytes.

``v2.dump.tape`` is a level-0 logical dump (dump stream ``DUMP_VERSION``
1) and ``v2.image.tape`` a full image dump (image header ``VERSION`` 1)
of the one tiny volume :func:`_pinned_fs` builds, each saved with
``save_tape`` (container version 2, like ``v2.tape``).  Any change to
what either engine writes shows here first, whatever it does to timing.
To re-pin after a deliberate format change, run this module as a
script::

    PYTHONPATH=src python -m tests.storage.test_pinned_dump_tapes
"""

import io
import os
import pathlib
import struct
import subprocess
import sys
import zlib

import pytest

from repro.backup import (
    DumpDates,
    ImageDump,
    ImageRestore,
    LogicalDump,
    LogicalRestore,
)
from repro.backup.physical.image import ImageHeader
from repro.backup.verify import verify_trees
from repro.chaos.verify import volume_digest
from repro.dumpfmt.records import RecordHeader
from repro.dumpfmt.spec import HEADER_SIZE
from repro.errors import FormatError
from repro.perf.ops import drain_engine
from repro.storage.persist import load_tape, save_tape
from repro.units import MB
from repro.wafl.filesystem import WaflFilesystem

from tests.conftest import make_drive, make_fs, populate_small_tree

_DATA = os.path.join(os.path.dirname(__file__), "data")
_LOGICAL = os.path.join(_DATA, "v2.dump.tape")
_IMAGE = os.path.join(_DATA, "v2.image.tape")


def _pinned_fs():
    fs = make_fs(ngroups=1, ndata=2, blocks_per_disk=256, name="pinned")
    populate_small_tree(fs)
    return fs


def _logical_tape(fs):
    drive = make_drive(name="logical", tapes=1, capacity=1 * MB)
    drain_engine(LogicalDump(fs, drive, level=0, dumpdates=DumpDates()).run())
    return drive


def _image_tape(fs):
    drive = make_drive(name="image", tapes=1, capacity=1 * MB)
    drain_engine(ImageDump(fs, drive, snapshot_name="pinned").run())
    return drive


def write_pinned(logical_path, image_path):
    save_tape(_logical_tape(_pinned_fs()), logical_path)
    save_tape(_image_tape(_pinned_fs()), image_path)


@pytest.mark.parametrize("hashseed", ["1", "2"])
def test_the_engines_reproduce_both_tapes_byte_for_byte(tmp_path, hashseed):
    logical, image = str(tmp_path / "dump.tape"), str(tmp_path / "image.tape")
    env = dict(os.environ, PYTHONHASHSEED=hashseed,
               PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run(
        [sys.executable, "-c",
         "import sys; from tests.storage.test_pinned_dump_tapes import "
         "write_pinned; write_pinned(*sys.argv[1:])", logical, image],
        check=True, env=env, cwd=str(pathlib.Path(__file__).parents[2]))
    assert pathlib.Path(logical).read_bytes() == \
        pathlib.Path(_LOGICAL).read_bytes()
    assert pathlib.Path(image).read_bytes() == pathlib.Path(_IMAGE).read_bytes()


def test_the_logical_tape_restores_the_source_tree():
    target = make_fs(ngroups=1, ndata=2, blocks_per_disk=256, name="target")
    drain_engine(LogicalRestore(target, load_tape(_LOGICAL)).run())
    assert verify_trees(_pinned_fs(), target) == []


def test_the_image_tape_restores_the_source_volume():
    source = _pinned_fs()
    restored = []
    for drive in (load_tape(_IMAGE), _image_tape(source)):
        target = source.volume.clone_empty()
        drain_engine(ImageRestore(target, drive).run())
        restored.append(target)
    # The pinned file and a dump taken now restore to the same disks,
    # and those disks mount as the source tree.
    assert volume_digest(restored[0]) == volume_digest(restored[1])
    assert verify_trees(source, WaflFilesystem.mount(restored[0])) == []


def test_another_dump_version_is_refused():
    first = load_tape(_LOGICAL).read(HEADER_SIZE)
    RecordHeader.unpack(first)      # as pinned, the record reads
    for version in (0, 2):
        # The version word follows the 4-byte magic; the checksum is
        # recomputed, so only the version is wrong.
        record = bytearray(first)
        struct.pack_into("<I", record, 4, version)
        struct.pack_into("<I", record, 12, 0)
        struct.pack_into("<I", record, 12, zlib.crc32(bytes(record)))
        with pytest.raises(FormatError,
                           match="unsupported dump version %d" % version):
            RecordHeader.unpack(bytes(record))


def test_another_image_version_is_refused():
    stream = load_tape(_IMAGE).stream_bytes()
    header = ImageHeader.unpack_from_stream(io.BytesIO(stream).read)
    assert header.geometry == _pinned_fs().volume.geometry
    for version in (0, 2):
        altered = stream[:8] + struct.pack("<I", version) + stream[12:]
        with pytest.raises(FormatError,
                           match="unsupported image version %d" % version):
            ImageHeader.unpack_from_stream(io.BytesIO(altered).read)


if __name__ == "__main__":
    write_pinned(_LOGICAL, _IMAGE)
