"""Tape inspection: table of contents, compare mode, dump estimation.

Classic companions to dump/restore that the same stream format enables:

* :func:`list_tape` — ``restore -t``: walk the desiccated directory file
  and print what is on the tape without restoring anything.
* :func:`compare_tape` — ``restore -C``: read the tape alongside a live
  file system and report differences (the verification an administrator
  runs right after cutting a tape).
* :func:`estimate_dump` — ``dump -S``: predict the tape bytes a dump at a
  given level would produce, without writing anything.  The paper's
  administrators scheduled drives and cartridges around exactly this
  number.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from repro.errors import ReproError
from repro.backup.logical.dumpdates import DumpDates
from repro.backup.logical.restore import DumpNamespace
from repro.dumpfmt.spec import HEADER_SIZE, SEGMENT_SIZE, SEGMENTS_PER_HEADER
from repro.wafl.inode import FileType


class TapeEntry(NamedTuple):
    """One object on the tape."""

    path: str
    ino: int
    ftype: int
    size: int
    perms: int
    uid: int
    gid: int
    mtime: int
    nlink: int


class TapeCatalog:
    """The result of walking a dump stream's directory records."""

    def __init__(self, label, entries: List[TapeEntry],
                 clri_count: int, dumped_count: int):
        self.label = label
        self.entries = entries
        self.clri_count = clri_count
        self.dumped_count = dumped_count

    def paths(self) -> List[str]:
        return [entry.path for entry in self.entries]

    def find(self, path: str) -> Optional[TapeEntry]:
        for entry in self.entries:
            if entry.path == path:
                return entry
        return None

    def __len__(self) -> int:
        return len(self.entries)


def list_tape(drive) -> TapeCatalog:
    """``restore -t``: every object on the tape with its attributes."""
    ns = DumpNamespace(drive).load()
    headers = {ino: record.header for ino, record in ns.dirs.items()}
    headers.update((record.ino, record.header) for record in ns.files())
    entries: List[TapeEntry] = []
    for path, ino in ns.names:
        header = headers.get(ino)
        if header is not None:
            entries.append(TapeEntry(
                path, ino, header.ftype, header.size, header.perms,
                header.uid, header.gid, header.mtime, header.nlink,
            ))
    return TapeCatalog(ns.label, entries, len(ns.reader.clri_inos),
                       len(ns.reader.bits_inos))


def compare_tape(fs, drive, prefix: str = "/") -> List[str]:
    """``restore -C``: differences between the tape and a live tree.

    Returns human-readable difference strings (empty = the tape matches).
    Objects on the tape but missing from (or different in) the file
    system are reported; live files that are not on the tape are ignored
    (an incremental tape legitimately covers only part of the tree).  The
    tape is read once, one file at a time.
    """
    problems: List[str] = []
    ns = DumpNamespace(drive).load()
    for record in ns.files():
        paths = ns.paths.get(record.ino, [])
        if not paths:
            continue
        live_path = prefix.rstrip("/") + paths[0]
        header = record.header
        try:
            live_ino = fs.namei(live_path)
            live = fs.inode(live_ino)
        except ReproError:
            problems.append("%s: missing from the file system" % live_path)
            continue
        if live.type != header.ftype:
            problems.append("%s: type differs" % live_path)
            continue
        if header.ftype == FileType.REGULAR:
            if live.size != header.size:
                problems.append("%s: size %d on tape, %d live"
                                % (live_path, header.size, live.size))
            elif fs.read_by_ino(live_ino) != record.data:
                problems.append("%s: contents differ" % live_path)
        elif header.ftype == FileType.SYMLINK:
            if fs.read_by_ino(live_ino) != record.data:
                problems.append("%s: symlink target differs" % live_path)
        for field, live_value in (("perms", live.perms), ("uid", live.uid),
                                  ("gid", live.gid), ("mtime", live.mtime)):
            if getattr(header, field) != live_value:
                problems.append("%s: %s differs (tape %s, live %s)"
                                % (live_path, field,
                                   getattr(header, field), live_value))
    return problems


def estimate_dump(source, level: int = 0, subtree: str = "/",
                  dumpdates: Optional[DumpDates] = None) -> int:
    """``dump -S``: predicted stream size in bytes, without dumping.

    Walks the same selection logic as Phase I/II and sums header,
    directory, bitmap, and data-segment costs.
    """
    base_date = 0
    if dumpdates is not None and level > 0:
        base_date, _lvl = dumpdates.base_for(source.volume.name, subtree,
                                             level)
    root_ino = source.namei(subtree)
    total = 0
    dump_dirs = set()
    dump_files = []
    seen_files = set()
    parent: Dict[int, int] = {}
    stack = [root_ino]
    while stack:
        dir_ino = stack.pop()
        inode = source.inode(dir_ino)
        if level == 0 or inode.mtime > base_date:
            dump_dirs.add(dir_ino)
        for name, ino in source.readdir_by_ino(dir_ino):
            child = source.inode(ino)
            parent.setdefault(ino, dir_ino)
            if child.is_dir:
                stack.append(ino)
            elif ino in seen_files:
                continue  # a hard link: the inode dumps once
            elif (level == 0 or child.mtime > base_date
                  or child.ctime > base_date):
                seen_files.add(ino)
                dump_files.append(child)
    for inode in dump_files:
        cursor = inode.ino
        while cursor != root_ino:
            cursor = parent.get(cursor, root_ino)
            dump_dirs.add(cursor)
    dump_dirs.add(root_ino)

    def record_size(data_bytes: int) -> int:
        segments = (data_bytes + SEGMENT_SIZE - 1) // SEGMENT_SIZE
        headers = max(1, (segments + SEGMENTS_PER_HEADER - 1)
                      // SEGMENTS_PER_HEADER)
        return headers * HEADER_SIZE + segments * SEGMENT_SIZE

    # Preamble: tape header + two inode bitmaps.
    max_ino = source.max_ino()
    bitmap_bytes = (max_ino + 8) // 8
    total += record_size(64) + 2 * record_size(bitmap_bytes)
    for dir_ino in dump_dirs:
        total += record_size(source.inode(dir_ino).size)
    for inode in dump_files:
        # Holes ship as map bits, not segments: count allocated blocks.
        allocated = sum(
            count for _f, _v, count in source.file_extents(inode.ino)
        )
        data_segments = min(
            (inode.size + SEGMENT_SIZE - 1) // SEGMENT_SIZE,
            allocated * (4096 // SEGMENT_SIZE),
        )
        segments_total = (inode.size + SEGMENT_SIZE - 1) // SEGMENT_SIZE
        headers = max(1, (segments_total + SEGMENTS_PER_HEADER - 1)
                      // SEGMENTS_PER_HEADER)
        total += headers * HEADER_SIZE + data_segments * SEGMENT_SIZE
        if inode.acl_block:
            total += record_size(64)
    total += HEADER_SIZE  # TS_END
    return total


__all__ = ["TapeCatalog", "TapeEntry", "compare_tape", "estimate_dump",
           "list_tape"]
