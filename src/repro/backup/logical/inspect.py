"""Tape inspection: table of contents, compare mode, dump estimation.

Classic companions to dump/restore.  Each reads the tape through the one
reader, :class:`DumpNamespace`, and answers with the rule of the code
that owns it:

* :func:`list_tape` — ``restore -t``: the namespace's own names and
  record headers, without restoring anything.
* :func:`compare_tape` — ``restore -C``: every object on the tape against
  the live file system, by the comparison ``verify_trees`` makes.
* :func:`estimate_dump` — ``dump -S``: the tape bytes a dump at a given
  level would write, found by running that dump on a clone.  The paper's
  administrators scheduled drives and cartridges around this number.
"""

from __future__ import annotations

import copy
from itertools import chain
from types import SimpleNamespace
from typing import List, Optional, Tuple

from repro.backup.logical.dump import LogicalDump
from repro.backup.logical.dumpdates import DumpDates
from repro.backup.logical.restore import DumpNamespace
from repro.backup.verify import diff_object
from repro.dumpfmt.records import RecordHeader, TapeLabel
from repro.errors import ReproError
from repro.perf.ops import drain_engine
from repro.wafl.inode import FileType, Inode


def list_tape(drive) -> Tuple[TapeLabel, List[Tuple[str, RecordHeader]]]:
    """``restore -t``: the tape's label and a ``(path, header)`` per name."""
    ns = DumpNamespace(drive).load()
    headers = {ino: record.header for ino, record in ns.dirs.items()}
    headers.update((record.ino, record.header) for record in ns.files())
    return ns.label, [(path, headers[ino]) for path, ino in ns.names
                      if ino in headers]


class _Recorded(Inode):
    """A tape record as ``diff_object`` reads an inode and its tree."""

    __slots__ = ("record",)

    def __init__(self, record):
        header = record.header
        super().__init__(header.ino, header.ftype)
        for field in ("size", "nlink", "perms", "uid", "gid", "mtime",
                      "dos_name", "dos_bits"):
            setattr(self, field, getattr(header, field))
        self.record = record

    def read_by_ino(self, _ino: int) -> bytes:
        return self.record.data

    def read_buffers_by_ino(self, _ino: int) -> list:
        return [self.record.data]

    def get_acl_by_ino(self, _ino: int) -> bytes:
        return self.record.acl


def compare_tape(fs, drive) -> List[str]:
    """``restore -C``: differences between the tape and a live tree.

    Returns human-readable difference strings (empty = the tape matches).
    Every directory and file on the tape is compared with the object its
    first name reaches under the dumped subtree.  Live names not on the
    tape are ignored (an incremental covers only part of the tree), and so
    are directory mtimes, which such a name moves.  The tape is read once.
    """
    problems: List[str] = []
    ns = DumpNamespace(drive)
    ns.into = ns.label.subtree
    ns.load()
    for record in chain(ns.dirs.values(), ns.files()):
        paths = ns.paths.get(record.ino)
        if not paths:
            continue
        try:
            live = fs.inode(fs.namei(paths[0]))
        except ReproError:
            problems.append("%s: missing from the file system" % paths[0])
            continue
        tape = _Recorded(record)
        problems += diff_object(
            paths[0], tape, live, tape, fs,
            check_mtime=record.header.ftype != FileType.DIRECTORY)
    return problems


def estimate_dump(fs, level: int = 0, subtree: str = "/",
                  dumpdates: Optional[DumpDates] = None) -> int:
    """``dump -S``: the bytes a dump would write, exactly.

    Runs the dump itself on a copy-on-write clone of ``fs`` with a copy of
    ``dumpdates``, so neither changes, onto a drive that keeps nothing
    (the stream writer counts the bytes).
    """
    drive = SimpleNamespace(media_changes=0, write=lambda _chunk: 0)
    dump = LogicalDump(fs.clone_volume(), drive, level=level,
                       subtree=subtree, dumpdates=copy.deepcopy(dumpdates))
    return drain_engine(dump.run()).bytes_to_tape


__all__ = ["compare_tape", "estimate_dump", "list_tape"]
