"""Inode structure and its 256-byte on-disk encoding.

Inodes carry the Unix attributes BSD dump understands plus the NetApp
multi-protocol extensions the paper mentions (DOS names, DOS bits, DOS
file times, NT ACLs).  The extensions ride in reserved fields so the base
format — and therefore a cross-platform restore that ignores them — keeps
working, mirroring the paper's "none of these extensions break the
standard format".
"""

from __future__ import annotations

import struct
from typing import List, Optional

from repro.errors import FilesystemError
from repro.wafl.consts import DOS_NAME_LEN, INODE_SIZE, NDIRECT


class FileType:
    """On-disk inode type codes."""

    FREE = 0
    REGULAR = 1
    DIRECTORY = 2
    SYMLINK = 3

    NAMES = {FREE: "free", REGULAR: "file", DIRECTORY: "dir", SYMLINK: "symlink"}


# Fixed-size leading section of the inode.  The direct pointer array, the
# two indirect pointers, and the ACL overflow pointer follow.
_HEAD = struct.Struct(
    "<BBHHH"  # type, flags, nlink, perms, pad
    "II"  # uid, gid
    "Q"  # size
    "QQQ"  # atime, mtime, ctime
    "II"  # generation, qtree id
    "%dsIQ" % DOS_NAME_LEN  # dos_name, dos_bits, dos_time
)
_PTRS = struct.Struct("<%dI" % (NDIRECT + 3,))  # direct..., indirect, dindirect, acl

_ENCODED_SIZE = _HEAD.size + _PTRS.size
assert _ENCODED_SIZE <= INODE_SIZE, _ENCODED_SIZE


class Inode:
    """An in-memory inode; (de)serializes to its 256-byte disk slot."""

    __slots__ = (
        "ino",
        "type",
        "flags",
        "nlink",
        "perms",
        "uid",
        "gid",
        "size",
        "atime",
        "mtime",
        "ctime",
        "generation",
        "qtree",
        "dos_name",
        "dos_bits",
        "dos_time",
        "direct",
        "indirect",
        "dindirect",
        "acl_block",
        # Not part of the on-disk image, and not copied: the
        # ``(direct_copy, indirect_images, extents)`` memo of
        # BlockTree.extents, self-validating against the live tree.
        "extents_memo",
    )

    def __init__(self, ino: int, type: int = FileType.FREE):
        self.ino = ino
        self.type = type
        self.flags = 0
        self.nlink = 0
        self.perms = 0o644
        self.uid = 0
        self.gid = 0
        self.size = 0
        self.atime = 0
        self.mtime = 0
        self.ctime = 0
        self.generation = 0
        self.qtree = 0
        self.dos_name = b""
        self.dos_bits = 0
        self.dos_time = 0
        self.direct: List[int] = [0] * NDIRECT
        self.indirect = 0
        self.dindirect = 0
        self.acl_block = 0
        self.extents_memo = None

    # -- predicates -------------------------------------------------------

    @property
    def is_free(self) -> bool:
        return self.type == FileType.FREE

    @property
    def is_dir(self) -> bool:
        return self.type == FileType.DIRECTORY

    @property
    def is_regular(self) -> bool:
        return self.type == FileType.REGULAR

    @property
    def is_symlink(self) -> bool:
        return self.type == FileType.SYMLINK

    # -- serialization ------------------------------------------------------

    def pack(self) -> bytes:
        if len(self.dos_name) > DOS_NAME_LEN:
            raise FilesystemError("DOS name longer than %d bytes" % DOS_NAME_LEN)
        head = _HEAD.pack(
            self.type,
            self.flags,
            self.nlink,
            self.perms,
            0,
            self.uid,
            self.gid,
            self.size,
            self.atime,
            self.mtime,
            self.ctime,
            self.generation,
            self.qtree,
            self.dos_name.ljust(DOS_NAME_LEN, b"\0"),
            self.dos_bits,
            self.dos_time,
        )
        ptrs = _PTRS.pack(*self.direct, self.indirect, self.dindirect, self.acl_block)
        return (head + ptrs).ljust(INODE_SIZE, b"\0")

    @classmethod
    def unpack(cls, ino: int, data: bytes) -> "Inode":
        if len(data) < _ENCODED_SIZE:
            raise FilesystemError("short inode slot for ino %d" % ino)
        (
            type_,
            flags,
            nlink,
            perms,
            _pad,
            uid,
            gid,
            size,
            atime,
            mtime,
            ctime,
            generation,
            qtree,
            dos_name,
            dos_bits,
            dos_time,
        ) = _HEAD.unpack_from(data, 0)
        values = _PTRS.unpack_from(data, _HEAD.size)
        inode = cls(ino, type_)
        inode.flags = flags
        inode.nlink = nlink
        inode.perms = perms
        inode.uid = uid
        inode.gid = gid
        inode.size = size
        inode.atime = atime
        inode.mtime = mtime
        inode.ctime = ctime
        inode.generation = generation
        inode.qtree = qtree
        inode.dos_name = dos_name.rstrip(b"\0")
        inode.dos_bits = dos_bits
        inode.dos_time = dos_time
        inode.direct = list(values[:NDIRECT])
        inode.indirect = values[NDIRECT]
        inode.dindirect = values[NDIRECT + 1]
        inode.acl_block = values[NDIRECT + 2]
        return inode

    def copy(self, ino: Optional[int] = None) -> "Inode":
        """A deep, independent copy (used for snapshot root structures)."""
        return Inode.unpack(self.ino if ino is None else ino, self.pack())

    def clear(self) -> None:
        """Reset to a free inode (keeps the generation for staleness checks)."""
        generation = self.generation
        fresh = Inode(self.ino)
        for slot in Inode.__slots__:
            if slot == "ino":
                continue
            setattr(self, slot, getattr(fresh, slot))
        self.generation = generation

    def __repr__(self) -> str:
        return "<Inode %d %s nlink=%d size=%d>" % (
            self.ino,
            FileType.NAMES.get(self.type, "?"),
            self.nlink,
            self.size,
        )


__all__ = ["FileType", "Inode"]
