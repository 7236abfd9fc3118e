"""Interactive restore: the ``restore -i`` the paper's filer lacked.

"The filer also does not support the interactive restore option due to
limitations that arise from integrating restore into the kernel."  A
user-level library has no such limitation, so this module provides it:
an :class:`InteractiveRestore` session walks the tape's desiccated
directory file like a little shell — ``cd``, ``ls``, ``pwd``, ``add``,
``delete`` (unmark), ``marked`` — and ``extract()`` then runs a single
selective restore for everything marked.

The session reads only the tape's directory records (the shared
:class:`~repro.backup.logical.restore.DumpNamespace`) and never touches
the target file system until ``extract()``, which streams the tape once,
exactly like ``restore -i``.
"""

from __future__ import annotations

import posixpath
from typing import List, Optional, Set

from repro.errors import BackupError, NotFoundError
from repro.backup.common import drain_engine
from repro.backup.logical.restore import (
    DumpNamespace,
    LogicalRestore,
    RestoreResult,
)
from repro.perf.costs import CostModel


class InteractiveRestore:
    """A browsing session over one dump tape."""

    def __init__(self, drive):
        self.drive = drive
        self.namespace = DumpNamespace(drive).load()
        self.cwd = "/"
        self.marks: Set[str] = set()

    # -- navigation ---------------------------------------------------------

    def _resolve(self, path: Optional[str]) -> str:
        if not path:
            return self.cwd
        if not path.startswith("/"):
            path = posixpath.join(self.cwd, path)
        resolved = posixpath.normpath(path)
        return resolved if resolved != "." else "/"

    def _require(self, path: str) -> int:
        """The inode of a path the dump wrote (the root always counts)."""
        ino = self.namespace.lookup(path)
        if path != "/" and (ino is None or not self.namespace.on_tape(ino)):
            raise NotFoundError("%s is not on this tape" % path)
        return ino

    def pwd(self) -> str:
        return self.cwd

    def cd(self, path: str) -> str:
        target = self._resolve(path)
        ino = self._require(target)
        if target != "/" and ino not in self.namespace.entries:
            raise BackupError("%s is not a directory" % target)
        self.cwd = target
        return target

    def ls(self, path: Optional[str] = None) -> List[str]:
        """Names in a directory; marked entries carry a ``*`` prefix
        (matching the classic restore -i display)."""
        target = self._resolve(path)
        ns = self.namespace
        names = []
        for name, ino in sorted(ns.entries.get(self._require(target), [])):
            if not ns.on_tape(ino):
                continue
            child = posixpath.join(target, name)
            if ino in ns.entries:
                name += "/"
            if child in self.marks or self._covered_by_mark(child):
                name = "*" + name
            names.append(name)
        return names

    # -- marking --------------------------------------------------------------

    def _covered_by_mark(self, path: str) -> bool:
        cursor = path
        while cursor not in ("", "/"):
            if cursor in self.marks:
                return True
            cursor = posixpath.dirname(cursor)
        return False

    def add(self, path: str) -> str:
        """Mark a file (or a directory and thus its whole subtree)."""
        target = self._resolve(path)
        self._require(target)
        self.marks.add(target)
        return target

    def delete(self, path: str) -> str:
        """Unmark (the restore -i 'delete' verb: nothing is removed)."""
        target = self._resolve(path)
        if target not in self.marks:
            raise BackupError("%s is not marked" % target)
        self.marks.discard(target)
        return target

    def marked(self) -> List[str]:
        return sorted(self.marks)

    # -- extraction --------------------------------------------------------------

    def extract(self, target_fs, into: str = "/",
                costs: Optional[CostModel] = None) -> RestoreResult:
        """Selectively restore everything marked, in one tape pass."""
        if not self.marks:
            raise BackupError("nothing is marked for extraction")
        engine = LogicalRestore(
            target_fs, self.drive, into=into,
            select=sorted(self.marks), costs=costs,
        ).run()
        return drain_engine(engine)


__all__ = ["InteractiveRestore"]
