"""The 1 KB record header and its encoding.

Every record in the stream is a 1 KB header, optionally followed by data
segments.  The header carries the record type, the dump and base dates,
the inode's attributes (the paper's "1KB of header meta-data ... file
type, size, permissions, group, owner, and a map of the holes"), a
segment-presence map for up to 512 following 1 KB segments, and a
checksum.  NetApp attribute extensions (DOS name/bits/time) live in what
the base layout treats as reserved space, so a reader that ignores them
still restores the file correctly.
"""

from __future__ import annotations

import struct
import zlib
from typing import List

from repro.errors import FormatError
from repro.dumpfmt.spec import (
    DUMP_MAGIC,
    DUMP_VERSION,
    HEADER_SIZE,
    RECORD_TYPES,
    SEGMENTS_PER_HEADER,
)

_FIXED = struct.Struct(
    "<IIII"  # magic, version, type, checksum
    "QQ"  # date, base date (ddate)
    "IQ"  # volume, record sequence (tapea)
    "IQ"  # ino, size
    "HBB"  # mode/perms, ftype, pad
    "HII"  # nlink, uid, gid
    "QQQ"  # atime, mtime, ctime
    "II"  # generation, count (number of segments described)
    "I"  # flags
    # NetApp extensions (reserved space in the base layout):
    "16sIQ"  # dos_name, dos_bits, dos_time
    "II"  # qtree, acl_length
)
_MAP_OFFSET = HEADER_SIZE - SEGMENTS_PER_HEADER  # segment map in the tail

# Header flags.
FLAG_HAS_ACL = 1 << 0
FLAG_SUBTREE_ROOT = 1 << 1


class TapeLabel:
    """Identity fields carried in the TS_TAPE record's data segment."""

    def __init__(self, hostname: str = "", filesystem: str = "", subtree: str = "/",
                 level: int = 0, root_ino: int = 2, max_ino: int = 0):
        self.hostname = hostname
        self.filesystem = filesystem
        self.subtree = subtree
        self.level = level
        self.root_ino = root_ino
        self.max_ino = max_ino

    def pack(self) -> bytes:
        blob = "\0".join(
            [self.hostname, self.filesystem, self.subtree,
             str(self.level), str(self.root_ino), str(self.max_ino)]
        ).encode("utf-8")
        if len(blob) > 960:
            raise FormatError("tape label too long")
        return len(blob).to_bytes(2, "little") + blob

    @classmethod
    def unpack(cls, data: bytes) -> "TapeLabel":
        length = int.from_bytes(data[:2], "little")
        fields = data[2 : 2 + length].decode("utf-8").split("\0")
        if len(fields) != 6:
            raise FormatError("malformed tape label")
        return cls(fields[0], fields[1], fields[2],
                   int(fields[3]), int(fields[4]), int(fields[5]))


class RecordHeader:
    """One 1 KB header.  Attribute fields are optional except type."""

    def __init__(self, type: int, ino: int = 0):
        if type not in RECORD_TYPES:
            raise FormatError("unknown record type %d" % type)
        self.type = type
        self.ino = ino
        self.date = 0
        self.ddate = 0
        self.volume = 0
        self.tapea = 0
        self.size = 0
        self.perms = 0
        self.ftype = 0
        self.nlink = 0
        self.uid = 0
        self.gid = 0
        self.atime = 0
        self.mtime = 0
        self.ctime = 0
        self.generation = 0
        self.count = 0
        self.flags = 0
        self.dos_name = b""
        self.dos_bits = 0
        self.dos_time = 0
        self.qtree = 0
        self.acl_length = 0
        # Segment map: one byte per following segment, 1 = data present,
        # 0 = hole (restore seeks).  Length == count.
        self.segment_map: List[int] = []

    # -- encoding -------------------------------------------------------------

    def pack(self) -> bytes:
        if self.count > SEGMENTS_PER_HEADER:
            raise FormatError("header describes %d segments (max %d)"
                              % (self.count, SEGMENTS_PER_HEADER))
        if len(self.segment_map) != self.count:
            raise FormatError("segment map length %d != count %d"
                              % (len(self.segment_map), self.count))
        buf = bytearray(HEADER_SIZE)
        _FIXED.pack_into(
            buf, 0,
            DUMP_MAGIC, DUMP_VERSION, self.type, 0,
            self.date, self.ddate,
            self.volume, self.tapea,
            self.ino, self.size,
            self.perms, self.ftype, 0,
            self.nlink, self.uid, self.gid,
            self.atime, self.mtime, self.ctime,
            self.generation, self.count,
            self.flags,
            self.dos_name.ljust(16, b"\0"), self.dos_bits, self.dos_time,
            self.qtree, self.acl_length,
        )
        for index, present in enumerate(self.segment_map):
            buf[_MAP_OFFSET + index] = 1 if present else 0
        checksum = zlib.crc32(bytes(buf))
        struct.pack_into("<I", buf, 12, checksum)
        return bytes(buf)

    @classmethod
    def unpack(cls, data: bytes) -> "RecordHeader":
        if len(data) != HEADER_SIZE:
            raise FormatError("short header (%d bytes)" % len(data))
        (
            magic, version, type_, checksum,
            date, ddate,
            volume, tapea,
            ino, size,
            perms, ftype, _pad,
            nlink, uid, gid,
            atime, mtime, ctime,
            generation, count,
            flags,
            dos_name, dos_bits, dos_time,
            qtree, acl_length,
        ) = _FIXED.unpack_from(data, 0)
        if magic != DUMP_MAGIC:
            raise FormatError("bad dump magic 0x%x" % magic)
        if version != DUMP_VERSION:
            raise FormatError("unsupported dump version %d" % version)
        # Verify the checksum over the header with its checksum field zeroed.
        scratch = bytearray(data)
        struct.pack_into("<I", scratch, 12, 0)
        if zlib.crc32(bytes(scratch)) != checksum:
            raise FormatError("header checksum mismatch (ino %d)" % ino)
        header = cls(type_, ino)
        header.date = date
        header.ddate = ddate
        header.volume = volume
        header.tapea = tapea
        header.size = size
        header.perms = perms
        header.ftype = ftype
        header.nlink = nlink
        header.uid = uid
        header.gid = gid
        header.atime = atime
        header.mtime = mtime
        header.ctime = ctime
        header.generation = generation
        header.count = count
        header.flags = flags
        header.dos_name = dos_name.rstrip(b"\0")
        header.dos_bits = dos_bits
        header.dos_time = dos_time
        header.qtree = qtree
        header.acl_length = acl_length
        header.segment_map = [
            data[_MAP_OFFSET + index] for index in range(count)
        ]
        return header

    def __repr__(self) -> str:
        return "<Record type=%d ino=%d count=%d>" % (self.type, self.ino, self.count)


def pack_inode_bitmap(inos, max_ino: int) -> bytes:
    """Pack a set of inode numbers into the TS_BITS/TS_CLRI bitmap payload."""
    nbytes = (max_ino + 8) // 8
    bitmap = bytearray(nbytes)
    for ino in inos:
        if 0 <= ino <= max_ino:
            bitmap[ino // 8] |= 1 << (ino % 8)
    return bytes(bitmap)


def unpack_inode_bitmap(data: bytes):
    """Expand a bitmap payload back into a set of inode numbers."""
    inos = set()
    for byte_index, value in enumerate(data):
        if not value:
            continue
        for bit in range(8):
            if value & (1 << bit):
                inos.add(byte_index * 8 + bit)
    return inos


__all__ = [
    "FLAG_HAS_ACL",
    "FLAG_SUBTREE_ROOT",
    "RecordHeader",
    "TapeLabel",
    "pack_inode_bitmap",
    "unpack_inode_bitmap",
]
