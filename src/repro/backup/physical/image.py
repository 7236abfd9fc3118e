"""The image-stream format.

An image stream is: a header (geometry, level, base linkage, the root
structure to install on restore), then block chunks in ascending physical
address order — ``(start block, count, crc, raw data)`` — then a trailer.
Because the block addresses are recorded, restore puts every block back
where it came from; because the geometry is recorded, restore onto an
incompatible volume is refused up front (the portability limitation the
paper calls fundamental).  Restore and verify share one reading of it:
:func:`read_image_header`, then :func:`read_chunks`, which hands them
each chunk as the tape's records, uncopied.  A chunk's CRC covers its
data; dump and restore compute it with :func:`crc32_of`, which does not
read a view of the stores' shared zero fill.
"""

from __future__ import annotations

import functools
import struct
import zlib
from typing import Any, Iterator, Optional, Tuple

from repro.errors import FormatError, GeometryError
from repro.raid.layout import GroupGeometry, VolumeGeometry
from repro.storage.disk import is_zero_fill

IMAGE_MAGIC = b"WAFLIMG1"
CHUNK_MAGIC = 0x43484E4B  # "CHNK"
TRAILER_MAGIC = 0x454E4421  # "END!"

_HEADER_FIXED = struct.Struct("<8sIIQQQII")
# magic, version, flags, level(cp-style: 0 full / 1 incremental via flag),
# snapshot cp_count, base cp_count, nchunks... laid out below explicitly:
#   magic 8s | version I | flags I | cp_count Q | base_cp Q | total_blocks Q
#   | ngroups I | fsinfo_len I
_CHUNK_HEAD = struct.Struct("<IQII")  # magic, start_block, nblocks, crc32
# Same size as the chunk head so the reader can probe either.
_TRAILER = struct.Struct("<IQII")  # magic, total blocks, crc, pad

FLAG_INCREMENTAL = 1 << 0
FLAG_INCLUDES_SNAPSHOTS = 1 << 1

VERSION = 1


def pack_geometry(geometry: VolumeGeometry) -> bytes:
    parts = [struct.pack("<II", geometry.block_size, len(geometry.groups))]
    for group in geometry.groups:
        parts.append(struct.pack("<II", group.ndata_disks, group.blocks_per_disk))
    return b"".join(parts)


def unpack_geometry(data: bytes) -> Tuple[VolumeGeometry, int]:
    block_size, ngroups = struct.unpack_from("<II", data, 0)
    offset = 8
    groups = []
    for _ in range(ngroups):
        ndata, per_disk = struct.unpack_from("<II", data, offset)
        groups.append(GroupGeometry(ndata, per_disk))
        offset += 8
    return VolumeGeometry(block_size, tuple(groups)), offset


class ImageHeader:
    """Stream header: identity, geometry, and the root structure."""

    def __init__(self, geometry: VolumeGeometry, cp_count: int,
                 fsinfo_image: bytes, incremental: bool = False,
                 base_cp: int = 0, includes_snapshots: bool = False):
        self.geometry = geometry
        self.cp_count = cp_count
        self.base_cp = base_cp
        self.fsinfo_image = fsinfo_image
        self.incremental = incremental
        self.includes_snapshots = includes_snapshots
        self.total_blocks = 0  # filled by the dump

    def pack(self) -> bytes:
        flags = 0
        if self.incremental:
            flags |= FLAG_INCREMENTAL
        if self.includes_snapshots:
            flags |= FLAG_INCLUDES_SNAPSHOTS
        geo = pack_geometry(self.geometry)
        fixed = struct.pack(
            "<8sIIQQQII",
            IMAGE_MAGIC,
            VERSION,
            flags,
            self.cp_count,
            self.base_cp,
            self.total_blocks,
            len(geo),
            len(self.fsinfo_image),
        )
        return fixed + geo + self.fsinfo_image

    @classmethod
    def unpack_from_stream(cls, read) -> "ImageHeader":
        fixed = read(struct.calcsize("<8sIIQQQII"))
        (magic, version, flags, cp_count, base_cp, total_blocks,
         geo_len, fsinfo_len) = struct.unpack("<8sIIQQQII", fixed)
        if magic != IMAGE_MAGIC:
            raise FormatError("not an image stream")
        if version != VERSION:
            raise FormatError("unsupported image version %d" % version)
        geo_raw = read(geo_len)
        geometry, _consumed = unpack_geometry(geo_raw)
        fsinfo_image = read(fsinfo_len)
        header = cls(
            geometry,
            cp_count,
            fsinfo_image,
            incremental=bool(flags & FLAG_INCREMENTAL),
            base_cp=base_cp,
            includes_snapshots=bool(flags & FLAG_INCLUDES_SNAPSHOTS),
        )
        header.total_blocks = total_blocks
        return header

    def check_geometry(self, volume) -> None:
        if volume.geometry != self.geometry:
            raise GeometryError(
                "image geometry (%s) does not match target volume (%s)"
                % (self.geometry.describe(), volume.geometry.describe())
            )


# CRC-32 over n zero bytes multiplies the (inverted) register by x^(8n)
# modulo the polynomial, in zlib's bit-reflected order: its
# ``crc32_combine``, which Python's zlib does not expose.  Below this
# size ``zlib.crc32`` reading the zeros is the cheaper of the two.
_CRC_POLY = 0xEDB88320
_ZERO_CRC_MIN = 16 * 1024


def _mulmod(a: int, b: int) -> int:
    """``a * b`` modulo the CRC-32 polynomial, bit-reflected."""
    m, product = 1 << 31, 0
    while a:
        if a & m:
            product ^= b
            a ^= m
        m >>= 1
        b = (b >> 1) ^ _CRC_POLY if b & 1 else b >> 1
    return product


_X_2K = [1 << 30]  # x^(2^k) for k = 0, 1, ...
for _k in range(63):
    _X_2K.append(_mulmod(_X_2K[-1], _X_2K[-1]))


@functools.lru_cache(maxsize=None)
def _x_8n(nbytes: int) -> int:
    """x^(8 * nbytes) modulo the polynomial."""
    power, k = 1 << 31, 3
    while nbytes:
        if nbytes & 1:
            power = _mulmod(_X_2K[k], power)
        nbytes >>= 1
        k += 1
    return power


def crc32_of(data, crc: int = 0) -> int:
    """``zlib.crc32`` of ``data`` — a buffer, or a list of buffers, CRC'd
    as their join — from ``crc``.  A shared zero piece
    (:func:`~repro.storage.disk.is_zero_fill`) is CRC'd in closed form,
    without reading it; every other piece is read by ``zlib.crc32``."""
    for piece in (data if isinstance(data, list) else [data]):
        if len(piece) >= _ZERO_CRC_MIN and is_zero_fill(piece):
            crc = _mulmod(_x_8n(len(piece)), crc ^ 0xFFFFFFFF) ^ 0xFFFFFFFF
        else:
            crc = zlib.crc32(piece, crc)
    return crc


def pack_chunk_header(start_block: int, nblocks: int, data) -> bytes:
    """The head of a chunk holding ``data``: a buffer, or a list of
    buffers whose join is the chunk's (the CRC is of that join)."""
    return _CHUNK_HEAD.pack(CHUNK_MAGIC, start_block, nblocks,
                            crc32_of(data))


def unpack_chunk_header(raw: bytes) -> Tuple[int, int, int]:
    magic, start_block, nblocks, crc = _CHUNK_HEAD.unpack(raw)
    if magic == TRAILER_MAGIC:
        raise FormatError("trailer reached")
    if magic != CHUNK_MAGIC:
        raise FormatError("bad chunk magic 0x%x" % magic)
    return start_block, nblocks, crc


CHUNK_HEADER_SIZE = _CHUNK_HEAD.size


def pack_trailer(total_blocks: int) -> bytes:
    crc = zlib.crc32(str(total_blocks).encode())
    return _TRAILER.pack(TRAILER_MAGIC, total_blocks, crc, 0)


def try_unpack_trailer(raw: bytes) -> Optional[int]:
    """Total block count if ``raw`` starts a trailer, else None."""
    magic, total, _crc, _pad = _TRAILER.unpack(raw[: _TRAILER.size])
    if magic != TRAILER_MAGIC:
        return None
    return total


TRAILER_SIZE = _TRAILER.size


def read_image_header(drive) -> ImageHeader:
    """Rewind ``drive`` and read the header its image stream starts with."""
    drive.rewind()
    return ImageHeader.unpack_from_stream(drive.read)


def read_chunks(drive, block_size: int) -> Iterator[Tuple[int, int, Any, bool]]:
    """The chunks after the header, as ``(start, count, data, intact)``.

    ``data`` is the tape's records in place (:meth:`TapeDrive.read_view`):
    one read-only buffer, or a list of them whose join is the chunk.
    ``intact`` is False when the data fails its CRC (:func:`crc32_of`).
    The walk ends at the trailer, and a trailer whose block count
    disagrees with the chunks read (a stream cut short) is a
    :class:`FormatError`.
    """
    seen = 0
    while True:
        raw = drive.read(CHUNK_HEADER_SIZE)
        total = try_unpack_trailer(raw)
        if total is not None:
            if total != seen:
                raise FormatError(
                    "stream on %s truncated: trailer says %d blocks, "
                    "stream had %d" % (drive.name, total, seen))
            return
        start, count, crc = unpack_chunk_header(raw)
        data = drive.read_view(count * block_size)
        yield start, count, data, crc32_of(data) == crc
        seen += count


__all__ = [
    "CHUNK_HEADER_SIZE",
    "FLAG_INCLUDES_SNAPSHOTS",
    "FLAG_INCREMENTAL",
    "ImageHeader",
    "TRAILER_SIZE",
    "crc32_of",
    "pack_chunk_header",
    "pack_geometry",
    "pack_trailer",
    "read_chunks",
    "read_image_header",
    "try_unpack_trailer",
    "unpack_chunk_header",
    "unpack_geometry",
]
