"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import struct

import pytest

from repro.nvram.log import NvramLog
from repro.raid.layout import make_geometry
from repro.raid.volume import RaidVolume
from repro.storage.tape import TapeDrive, TapeStacker
from repro.units import MB
from repro.wafl.filesystem import WaflFilesystem


def make_volume(ngroups=2, ndata=4, blocks_per_disk=2500, name="test"):
    """A small RAID volume (default ~78 MB of data blocks)."""
    return RaidVolume(make_geometry(ngroups, ndata, blocks_per_disk), name=name)


def make_fs(ngroups=2, ndata=4, blocks_per_disk=2500, name="test",
            nvram=False, cache_blocks=4096):
    volume = make_volume(ngroups, ndata, blocks_per_disk, name)
    log = NvramLog(capacity=4 * MB) if nvram else None
    fs = WaflFilesystem.format(volume, nvram=log, cache_blocks=cache_blocks)
    return fs


def make_drive(name="tape", tapes=8, capacity=256 * MB):
    return TapeDrive(TapeStacker.with_blank_tapes(tapes, capacity=capacity,
                                                  name=name))


@pytest.fixture
def volume():
    return make_volume()


@pytest.fixture
def fs():
    return make_fs()


@pytest.fixture
def fs_with_nvram():
    return make_fs(nvram=True)


@pytest.fixture
def drive():
    return make_drive()


def populate_small_tree(fs, prefix=""):
    """A tiny mixed tree exercising every file-system feature."""
    fs.mkdir(prefix + "/docs")
    fs.mkdir(prefix + "/src")
    fs.mkdir(prefix + "/src/deep")
    fs.create(prefix + "/docs/readme.txt", b"hello backup world\n" * 40)
    fs.create(prefix + "/src/main.c", bytes(range(256)) * 64)
    fs.create(prefix + "/src/deep/data.bin", b"\xab" * 50000)
    fs.create(prefix + "/empty")
    fs.symlink(prefix + "/docs/link", prefix + "/src/main.c")
    fs.link(prefix + "/src/main.c", prefix + "/src/main-hard.c")
    fs.set_acl(prefix + "/src/main.c", b"ACL\x01\x02payload")
    fs.set_attrs(prefix + "/docs/readme.txt", dos_name=b"README~1.TXT"[:12],
                 dos_bits=0x21, dos_time=123456789)
    # A sparse file with a real hole.
    fs.create(prefix + "/sparse")
    fs.write_file(prefix + "/sparse", b"head", 0)
    fs.write_file(prefix + "/sparse", b"tail", 12 * 4096)
    fs.consistency_point()


def version_1_image(disk):
    """The image container version 1 carried, written out by hand: it
    recorded the writer's chunk size (1024 blocks, or the whole of a
    smaller disk) and listed rows chunk by chunk."""
    chunk_blocks = min(1024, disk.nblocks)
    by_chunk = {}
    for block, data in disk.nonzero_blocks():
        by_chunk.setdefault(block // chunk_blocks, []).append((block, data))
    parts = [struct.pack("<QII", disk.nblocks, chunk_blocks, len(by_chunk))]
    for ci, members in sorted(by_chunk.items()):
        parts.append(struct.pack("<III", ci, chunk_blocks, len(members)))
        parts.extend(struct.pack("<I", block - ci * chunk_blocks)
                     for block, _ in members)
        parts.extend(data for _, data in members)
    return b"".join(parts)
