"""The root structure ("fsinfo") and the snapshot table.

The paper: "A WAFL file system can be thought of as a tree of blocks
rooted by a data structure that describes the inode file... this inode is
written redundantly [at a fixed location]."

``FsInfo`` is that root: the inode of the inode file, the consistency
point counter, and the snapshot table — each snapshot being a copy of the
root structure taken at its creation instant.  It serializes into the
reserved fsinfo region at the front of the volume and is written twice
(primary + backup copy); mounting falls back to the backup copy when the
primary's checksum fails.
"""

from __future__ import annotations

import struct
import zlib
from typing import List, Optional

from repro.errors import FilesystemError, SnapshotError
from repro.wafl.consts import (
    FSINFO_BACKUP,
    FSINFO_BLOCKS,
    FSINFO_MAGIC,
    FSINFO_PRIMARY,
    FSINFO_VERSION,
    INODE_SIZE,
    MAX_SNAPSHOTS,
    MAX_SNAPSHOT_PLANES,
)
from repro.wafl.inode import FileType, Inode

_SNAP_NAME_LEN = 32
_HEADER = struct.Struct("<8sII")  # magic, crc32, body length
_BODY_HEAD = struct.Struct(
    "<IQIQ"  # version, cp_count, block_size, nblocks
    "QIQQ"  # alloc cursor, next generation, clock ticks, next ino hint
    "%dsH" % (INODE_SIZE,)  # inode-file inode, snapshot count
)
_SNAP_RECORD = struct.Struct("<BB%dsQQ%ds" % (_SNAP_NAME_LEN, INODE_SIZE))


class SnapshotRecord:
    """One snapshot: a named copy of the root structure plus its bit plane."""

    def __init__(
        self,
        snap_id: int,
        name: str,
        created: int,
        cp_count: int,
        inofile_inode: Inode,
    ):
        if not 1 <= snap_id <= MAX_SNAPSHOT_PLANES:
            raise SnapshotError("snapshot id %d out of range" % snap_id)
        self.snap_id = snap_id
        self.name = name
        self.created = created
        self.cp_count = cp_count
        self.inofile_inode = inofile_inode

    def pack(self) -> bytes:
        encoded = self.name.encode("utf-8")
        if len(encoded) > _SNAP_NAME_LEN:
            raise SnapshotError("snapshot name %r too long" % self.name)
        return _SNAP_RECORD.pack(
            self.snap_id,
            0,
            encoded.ljust(_SNAP_NAME_LEN, b"\0"),
            self.created,
            self.cp_count,
            self.inofile_inode.pack(),
        )

    @classmethod
    def unpack_from(cls, data: bytes, offset: int) -> "SnapshotRecord":
        snap_id, _pad, name, created, cp_count, inode_raw = _SNAP_RECORD.unpack_from(
            data, offset
        )
        return cls(
            snap_id,
            name.rstrip(b"\0").decode("utf-8"),
            created,
            cp_count,
            Inode.unpack(0, inode_raw),
        )

    def __repr__(self) -> str:
        return "<Snapshot %d %r cp=%d>" % (self.snap_id, self.name, self.cp_count)


class FsInfo:
    """The file system root structure."""

    def __init__(self, block_size: int, nblocks: int):
        self.version = FSINFO_VERSION
        self.cp_count = 0
        self.block_size = block_size
        self.nblocks = nblocks
        self.alloc_cursor = 0
        self.next_generation = 1
        self.clock_ticks = 0
        self.next_ino_hint = 0
        inofile = Inode(0, FileType.REGULAR)
        inofile.nlink = 1
        self.inofile_inode = inofile
        self.snapshots: List[SnapshotRecord] = []

    # -- snapshot table ----------------------------------------------------

    def find_snapshot(self, name: str) -> Optional[SnapshotRecord]:
        for record in self.snapshots:
            if record.name == name:
                return record
        return None

    def free_snapshot_plane(self) -> int:
        """Lowest unused snapshot plane id, enforcing the 20-snapshot cap."""
        if len(self.snapshots) >= MAX_SNAPSHOTS:
            raise SnapshotError("snapshot limit (%d) reached" % MAX_SNAPSHOTS)
        used = {record.snap_id for record in self.snapshots}
        for plane in range(1, MAX_SNAPSHOT_PLANES + 1):
            if plane not in used:
                return plane
        raise SnapshotError("no free snapshot bit plane")

    # -- serialization ------------------------------------------------------

    def pack(self) -> bytes:
        if len(self.snapshots) > MAX_SNAPSHOTS:
            raise SnapshotError("too many snapshots to serialize")
        body = bytearray(
            _BODY_HEAD.pack(
                self.version,
                self.cp_count,
                self.block_size,
                self.nblocks,
                self.alloc_cursor,
                self.next_generation,
                self.clock_ticks,
                self.next_ino_hint,
                self.inofile_inode.pack(),
                len(self.snapshots),
            )
        )
        for record in sorted(self.snapshots, key=lambda r: r.snap_id):
            body.extend(record.pack())
        header = _HEADER.pack(FSINFO_MAGIC, zlib.crc32(bytes(body)), len(body))
        image = header + bytes(body)
        region = FSINFO_BLOCKS * self.block_size
        if len(image) > region:
            raise FilesystemError("fsinfo too large for its reserved region")
        return image.ljust(region, b"\0")

    @classmethod
    def unpack(cls, data: bytes) -> "FsInfo":
        magic, crc, body_len = _HEADER.unpack_from(data, 0)
        if magic != FSINFO_MAGIC:
            raise FilesystemError("bad fsinfo magic")
        body = data[_HEADER.size : _HEADER.size + body_len]
        if len(body) != body_len or zlib.crc32(body) != crc:
            raise FilesystemError("fsinfo checksum mismatch")
        (
            version,
            cp_count,
            block_size,
            nblocks,
            alloc_cursor,
            next_generation,
            clock_ticks,
            next_ino_hint,
            inofile_raw,
            nsnapshots,
        ) = _BODY_HEAD.unpack_from(body, 0)
        if version != FSINFO_VERSION:
            raise FilesystemError("unsupported fsinfo version %d" % version)
        info = cls(block_size, nblocks)
        info.cp_count = cp_count
        info.alloc_cursor = alloc_cursor
        info.next_generation = next_generation
        info.clock_ticks = clock_ticks
        info.next_ino_hint = next_ino_hint
        info.inofile_inode = Inode.unpack(0, inofile_raw)
        offset = _BODY_HEAD.size
        for _ in range(nsnapshots):
            info.snapshots.append(SnapshotRecord.unpack_from(body, offset))
            offset += _SNAP_RECORD.size
        return info

    # -- on-volume placement ---------------------------------------------------

    def write_to(self, volume) -> None:
        """Write both fsinfo copies at their fixed locations, each as one
        run: the primary, then the backup, so a crash between the two
        writes still leaves the copies divergent."""
        image = self.pack()
        for base in (FSINFO_PRIMARY, FSINFO_BACKUP):
            volume.write_run(base, image, 0, FSINFO_BLOCKS)

    @classmethod
    def read_from(cls, volume) -> "FsInfo":
        """Read fsinfo, falling back to the redundant copy on corruption."""
        info, _repaired = cls.read_and_repair(volume, repair=False)
        return info

    @classmethod
    def read_and_repair(cls, volume, repair: bool = True):
        """Read fsinfo and (optionally) repair a torn or stale copy.

        A crash between the two copy writes leaves the copies divergent:
        one torn (checksum fails) or stale (older ``cp_count``).  The
        winner is the valid copy with the highest ``cp_count``; with
        ``repair`` the losing copy is rewritten from the winner, so the
        volume converges to the state a clean shutdown would have left.
        Returns ``(info, copies_repaired)``.
        """
        copies = []
        errors = []
        for base in (FSINFO_PRIMARY, FSINFO_BACKUP):
            raw = b"".join(
                volume.read_block(base + i) for i in range(FSINFO_BLOCKS)
            )
            try:
                copies.append((base, raw, cls.unpack(raw)))
            except FilesystemError as exc:
                copies.append((base, raw, None))
                errors.append(exc)
        valid = [entry for entry in copies if entry[2] is not None]
        if not valid:
            raise FilesystemError(
                "both fsinfo copies unreadable: %s / %s" % (errors[0], errors[1])
            )
        # Highest cp_count wins; on a tie the primary does (stable order).
        base, raw, info = max(valid, key=lambda entry: entry[2].cp_count)
        repaired = 0
        if repair:
            image = info.pack()
            for other_base, other_raw, _other in copies:
                if other_base == base or other_raw == image:
                    continue
                volume.write_run(other_base, image, 0, FSINFO_BLOCKS)
                repaired += 1
        return info, repaired


__all__ = ["FsInfo", "SnapshotRecord"]
