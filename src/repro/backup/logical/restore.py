"""Logical restore: full, incremental, and single-file recovery.

Restore reads the dumped directories into an in-memory "directory file" —
the *desiccated file system* the paper describes — and runs its own
``namei`` against it, so it can locate any file on the tape without
materializing the directory structure first.  That reading,
:class:`DumpNamespace`, is also what ``restore -t``, ``restore -C`` and
``restore -i`` (:mod:`repro.backup.logical.inspect`, ``interactive``) use.

Three modes:

* **Full restore** (no symbol table): recreate the whole dumped subtree.
  Stage structure matches Table 3 — "Creating files" (directory skeleton
  plus file creation) then "Filling in data".
* **Incremental restore** (with the symbol table returned by the previous
  restore in the chain): delete inodes freed since the base (TS_CLRI),
  reconcile renames/moves from the dumped directories, create new files,
  then fill changed data.
* **Selective restore** (``select=[paths]``): stupidity recovery — walk
  the desiccated directory tree to the requested names and extract only
  those, while still streaming past the rest of the tape.

Because the engine "runs as root" (the paper's kernel-integrated restore),
permissions and ownership are set at creation time and no final
fix-up pass over the directories is needed.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import FormatError, NotFoundError, ReproError
from repro.backup.common import BackupResult, RecorderScope, TapeReadMeter
from repro.obs import observe_failure
from repro.dumpfmt.spec import SEGMENT_SIZE
from repro.dumpfmt.stream import DumpStreamReader, InodeEntry
from repro.perf.ops import CpuOp, PhaseBegin, PhaseEnd, SleepOp
from repro.perf.costs import CostModel
from repro.wafl.consts import BLOCK_SIZE
from repro.wafl.directory import iter_entries
from repro.wafl.inode import FileType

STAGE_CREATE = "Creating files"
STAGE_FILL = "Filling in data"

_SEGMENTS_PER_BLOCK = BLOCK_SIZE // SEGMENT_SIZE


def _block_runs(entry: "InodeEntry"):
    """Yield ``(first_block, padded_bytes_or_None, nblocks)`` per stream run.

    A block is present when any of its segments carries data; present
    runs come out zero padded to whole 4 KB blocks.  Stream runs from the
    dump writer always start on a block boundary, so the fast path maps
    each run to blocks directly; anything unaligned falls back to the
    per-segment walk (identical block classification).
    """
    runs = entry.runs
    position = 0
    aligned = True
    for count, _buf in runs:
        if position % _SEGMENTS_PER_BLOCK:
            aligned = False
            break
        position += count
    if aligned:
        block = 0
        for count, buf in runs:
            if not count:
                continue
            bcount = (count + _SEGMENTS_PER_BLOCK - 1) // _SEGMENTS_PER_BLOCK
            if buf is None:
                yield block, None, bcount
            else:
                pad = bcount * BLOCK_SIZE - len(buf)
                yield block, (buf + b"\0" * pad if pad > 0 else buf), bcount
            block += bcount
        return
    segments = entry.segments
    nblocks = (len(segments) + _SEGMENTS_PER_BLOCK - 1) // _SEGMENTS_PER_BLOCK
    for block in range(nblocks):
        window = segments[block * _SEGMENTS_PER_BLOCK
                          : (block + 1) * _SEGMENTS_PER_BLOCK]
        if all(seg is None for seg in window):
            yield block, None, 1
        else:
            chunk = b"".join(
                seg if seg is not None else bytes(SEGMENT_SIZE)
                for seg in window
            ).ljust(BLOCK_SIZE, b"\0")
            yield block, chunk, 1


_WRITE_RUN_BLOCKS = 64


def _write_runs(entry: "InodeEntry"):
    """Yield ``(first_block, data, nblocks)`` writes of present blocks.

    Adjacent stream runs merge into one write; a hole, or reaching 64
    blocks, ends it.
    """
    start, parts, nblocks = 0, [], 0
    for block, blob, count in _block_runs(entry):
        if blob is None:
            if nblocks:
                yield start, b"".join(parts), nblocks
                parts, nblocks = [], 0
            continue
        offset = 0
        while count:
            if not nblocks:
                start = block
            take = min(count, _WRITE_RUN_BLOCKS - nblocks)
            parts.append(blob[offset * BLOCK_SIZE : (offset + take) * BLOCK_SIZE])
            nblocks += take
            block += take
            offset += take
            count -= take
            if nblocks == _WRITE_RUN_BLOCKS:
                yield start, b"".join(parts), nblocks
                parts, nblocks = [], 0
    if nblocks:
        yield start, b"".join(parts), nblocks


class SymbolTable:
    """Maps dump inode numbers to their current paths in the target.

    The moral equivalent of BSD restore's ``restoresymtable``: it carries
    the state an incremental restore needs from the previous restore in
    the chain.
    """

    def __init__(self):
        self.paths: Dict[int, List[str]] = {}

    def set(self, ino: int, paths: List[str]) -> None:
        self.paths[ino] = list(paths)

    def get(self, ino: int) -> List[str]:
        return list(self.paths.get(ino, []))

    def remove(self, ino: int) -> None:
        self.paths.pop(ino, None)

    def inos(self) -> List[int]:
        return list(self.paths)

    def __len__(self) -> int:
        return len(self.paths)


class RestoreResult(BackupResult):
    def __init__(self):
        super().__init__()
        self.created = 0
        self.deleted = 0
        self.renamed = 0
        self.skipped = 0
        self.symtab: Optional[SymbolTable] = None
        self.level = 0


def _join(base: str, name: str) -> str:
    if base.endswith("/"):
        return base + name
    return "%s/%s" % (base, name)


class DumpNamespace:
    """One reading of a dump stream: the desiccated file system.

    Restore, ``restore -t``, ``restore -C`` and ``restore -i`` all start
    here.  Construction rewinds the drive and reads the preamble;
    :meth:`read_directories` reads the directory records (which the dump
    writes before any file) and names every inode by its paths under
    ``into``; :meth:`files` then streams the remaining records, one at a
    time.
    """

    def __init__(self, drive, into: str = "/", resync: bool = False):
        drive.rewind()
        self.reader = DumpStreamReader(drive)
        self.label = self.reader.read_preamble()
        self.root_ino = self.label.root_ino
        self.into = into
        self.resync = resync
        # Directory records, and their entries minus "." and "..".
        self.dirs: Dict[int, InodeEntry] = {}
        self.entries: Dict[int, List[Tuple[str, int]]] = {}
        # Breadth first from the root: each reachable directory's path,
        # every (path, ino) name, and every inode's names (hard links).
        self.dir_paths: Dict[int, str] = {}
        self.names: List[Tuple[str, int]] = []
        self.paths: Dict[int, List[str]] = {}
        self._first_file: Optional[InodeEntry] = None

    def read_directories(self) -> Iterator[InodeEntry]:
        """Read the directory records, yielding each record as it is read
        (the first non-directory record ends the walk), then resolve every
        name to its paths."""
        while True:
            entry = self.reader.next_inode(resync=self.resync)
            if entry is None:
                break
            yield entry
            if entry.header.ftype != FileType.DIRECTORY:
                self._first_file = entry
                break
            self.dirs[entry.ino] = entry
            self.entries[entry.ino] = [
                (name, ino)
                for name, ino in iter_entries(entry.data)
                if name not in (".", "..")
            ]
        if self.root_ino not in self.entries and self.label.level == 0:
            raise FormatError("dump stream has no root directory record")
        self.dir_paths[self.root_ino] = self.into
        self.paths[self.root_ino] = [self.into]
        queue = deque([self.root_ino])
        while queue:
            dir_ino = queue.popleft()
            base = self.dir_paths[dir_ino]
            for name, ino in self.entries.get(dir_ino, []):
                path = _join(base, name)
                self.names.append((path, ino))
                self.paths.setdefault(ino, []).append(path)
                if ino in self.entries and ino not in self.dir_paths:
                    self.dir_paths[ino] = path
                    queue.append(ino)

    def load(self) -> "DumpNamespace":
        """Read the directories without charging for them."""
        for _entry in self.read_directories():
            pass
        return self

    def files(self) -> Iterator[InodeEntry]:
        """The records after the directories, up to TS_END."""
        entry = self._first_file
        while entry is not None:
            yield entry
            entry = self.reader.next_inode(resync=self.resync)

    def on_tape(self, ino: int) -> bool:
        """Whether the dump wrote this inode (its TS_BITS map)."""
        return ino in self.reader.bits_inos

    def lookup(self, path: str) -> Optional[int]:
        """The inode a dump-rooted path names, or None."""
        ino = self.root_ino
        for part in path.split("/"):
            if part:
                ino = next((child for name, child in self.entries.get(ino, [])
                            if name == part), None)
                if ino is None:
                    return None
        return ino

    def subtree(self, ino: int) -> Set[int]:
        """``ino`` and, for a directory, everything beneath it."""
        found = {ino}
        stack = [ino]
        while stack:
            for _name, child in self.entries.get(stack.pop(), []):
                found.add(child)
                if child in self.entries:
                    stack.append(child)
        return found


class LogicalRestore:
    """One restore job: a dump stream from one drive into a file system."""

    def __init__(
        self,
        target_fs,
        drive,
        into: str = "/",
        symtab: Optional[SymbolTable] = None,
        select: Optional[List[str]] = None,
        costs: Optional[CostModel] = None,
        resync: bool = False,
    ):
        self.fs = target_fs
        self.drive = drive
        self.into = into
        self.symtab = symtab
        self.select = select
        self.costs = costs or CostModel()
        self.resync = resync

    def _cpu_block_cost(self) -> float:
        cost = self.costs.restore_data_block
        if self.fs.nvram is not None:
            cost += self.costs.restore_nvram_block
        return cost

    # -- the restore ----------------------------------------------------------------

    def run(self) -> Iterator:
        """Generator of perf ops; returns a :class:`RestoreResult`.

        Failures (short tape stream, full target volume, ...) are recorded
        on the observability plane before propagating.
        """
        try:
            return (yield from self._run())
        except ReproError as error:
            observe_failure("logical.restore", error)
            raise

    def _run(self) -> Iterator:
        result = RestoreResult()
        initial_bytes_read = self.drive.bytes_read
        meter = TapeReadMeter(self.drive)

        yield PhaseBegin(STAGE_CREATE)
        ns = DumpNamespace(self.drive, into=self.into, resync=self.resync)
        result.level = ns.label.level
        yield from meter.ops(STAGE_CREATE)
        for _record in ns.read_directories():
            yield CpuOp(self.costs.restore_parse_header,
                        stage=STAGE_CREATE, side="disk")
            yield from meter.ops(STAGE_CREATE)
        selected = self._resolve_selection(ns)

        # ---- namespace work ----
        if self.select is not None:
            creator = self._create_selected(result, ns, selected)
        elif self.symtab is None:
            creator = self._create_full(result, ns)
        else:
            creator = self._apply_incremental(result, ns)
        for op in creator:
            yield op
        yield PhaseEnd(STAGE_CREATE)

        # ---- data ----
        yield PhaseBegin(STAGE_FILL)
        for entry in ns.files():
            yield CpuOp(self.costs.restore_parse_header,
                        stage=STAGE_FILL, side="tape")
            yield from meter.ops(STAGE_FILL)
            if entry.header.ftype == FileType.DIRECTORY:
                # Directories arriving late (possible after resync): skip.
                result.skipped += 1
            else:
                wanted = selected is None or entry.ino in selected
                paths = ns.paths.get(entry.ino, [])
                if wanted and paths:
                    for op in self._extract(result, entry, paths):
                        yield op
                else:
                    result.skipped += 1
        yield from meter.ops(STAGE_FILL)

        # Final pass: directory times.  Permissions and ownership were set
        # at creation (restore runs as root), but creating children bumped
        # each directory's mtime, so times are re-applied last.
        for ino, attrs in ns.dirs.items():
            path = ns.dir_paths.get(ino)
            if path is None or not self.fs.exists(path):
                continue
            header = attrs.header
            self.fs.set_attrs(path, mtime=header.mtime, atime=header.atime)
        yield CpuOp(len(ns.dirs) * self.costs.restore_parse_header,
                    stage=STAGE_FILL, side="disk")
        yield PhaseEnd(STAGE_FILL)

        # ---- symbol table for the next incremental in the chain ----
        # ``ns.paths`` is a partial view; names recorded by earlier
        # restores that survived this one (their directories were not on
        # this tape) must be merged in, not overwritten.
        symtab = self.symtab or SymbolTable()
        for ino in ns.reader.clri_inos:
            symtab.remove(ino)
        for ino, paths in ns.paths.items():
            survivors = [
                p for p in symtab.get(ino)
                if p not in paths and self.fs.exists(p)
            ]
            symtab.set(ino, list(paths) + survivors)
        result.symtab = symtab
        result.bytes_from_tape = self.drive.bytes_read - initial_bytes_read
        resyncs = ns.reader.resyncs
        result.errors.extend(
            ["%d corrupted records skipped" % resyncs] if resyncs else []
        )
        return result

    # -- selection -------------------------------------------------------------

    def _resolve_selection(self, ns: DumpNamespace) -> Optional[Set[int]]:
        """Resolve ``select`` paths (dump-rooted) to dump inode numbers; a
        selected directory pulls in its whole subtree."""
        if self.select is None:
            return None
        selected: Set[int] = set()
        for want in self.select:
            ino = ns.lookup(want)
            if ino is None:
                raise NotFoundError("path %r is not on this tape" % want)
            selected |= ns.subtree(ino)
        return selected

    # -- namespace passes ----------------------------------------------------------

    def _ensure_dir(self, path: str, attrs: Optional[InodeEntry]) -> bool:
        """Create one directory (idempotent); True if created."""
        if self.fs.exists(path):
            return False
        header = attrs.header if attrs is not None else None
        self.fs.mkdir(
            path,
            perms=header.perms if header else 0o755,
            uid=header.uid if header else 0,
            gid=header.gid if header else 0,
        )
        if header is not None:
            self._apply_attrs(path, attrs)
        return True

    def _apply_attrs(self, path: str, entry: InodeEntry) -> None:
        header = entry.header
        self.fs.set_attrs(
            path,
            perms=header.perms,
            uid=header.uid,
            gid=header.gid,
            mtime=header.mtime,
            atime=header.atime,
            dos_name=header.dos_name,
            dos_bits=header.dos_bits,
            dos_time=header.dos_time,
        )
        if entry.acl:
            self.fs.set_acl(path, entry.acl)

    def _create_full(self, result, ns: DumpNamespace) -> Iterator:
        """Create the whole namespace: directories, then placeholder files
        and hard links (the paper's "Creating files" stage)."""
        volume = self.fs.volume
        for ino, path in ns.dir_paths.items():
            if ino == ns.root_ino:
                if not self.fs.exists(path):
                    self.fs.mkdir(path)
                continue
            with RecorderScope(volume) as scope:
                if self._ensure_dir(path, ns.dirs.get(ino)):
                    result.created += 1
                    result.directories += 1
            yield CpuOp(self.costs.restore_create_file,
                        stage=STAGE_CREATE, side="disk")
            yield SleepOp(self.costs.restore_create_latency, stage=STAGE_CREATE)
            for op in scope.drain_ops(STAGE_CREATE):
                yield op
        yield from self._create_placeholders(result, ns, latency=True)

    def _create_placeholders(self, result, ns: DumpNamespace,
                             latency: bool) -> Iterator:
        """Placeholder files and hard links for every dumped
        non-directory that the symbol table (if any) does not know yet."""
        volume = self.fs.volume
        for ino, paths in ns.paths.items():
            if ino in ns.entries or ino == ns.root_ino:
                continue
            if not ns.on_tape(ino):
                continue  # not on this tape (filtered or unchanged)
            if self.symtab is not None and self.symtab.get(ino):
                continue
            with RecorderScope(volume) as scope:
                first = paths[0]
                if not self.fs.exists(first):
                    self.fs.create(first)
                    result.created += 1
                for extra in paths[1:]:
                    if not self.fs.exists(extra):
                        self.fs.link(first, extra)
            yield CpuOp(self.costs.restore_create_file * len(paths),
                        stage=STAGE_CREATE, side="disk")
            if latency:
                yield SleepOp(self.costs.restore_create_latency * len(paths),
                              stage=STAGE_CREATE)
            for op in scope.drain_ops(STAGE_CREATE):
                yield op

    def _create_selected(self, result, ns: DumpNamespace,
                         selected: Set[int]) -> Iterator:
        """Create only the directories needed to hold the selection."""
        volume = self.fs.volume
        needed_dirs: Set[str] = set()
        for ino in selected:
            for path in ns.paths.get(ino, []):
                parent = path.rsplit("/", 1)[0] or "/"
                while parent not in ("", "/") and parent not in needed_dirs:
                    needed_dirs.add(parent)
                    parent = parent.rsplit("/", 1)[0] or "/"
        by_depth = sorted(needed_dirs, key=lambda p: p.count("/"))
        attrs_by_path = {
            path: ns.dirs[ino]
            for ino, path in ns.dir_paths.items()
            if ino in ns.dirs
        }
        for path in by_depth:
            with RecorderScope(volume) as scope:
                if self._ensure_dir(path, attrs_by_path.get(path)):
                    result.created += 1
                    result.directories += 1
            yield CpuOp(self.costs.restore_create_file, stage=STAGE_CREATE,
                        side="disk")
            for op in scope.drain_ops(STAGE_CREATE):
                yield op

    def _apply_incremental(self, result, ns: DumpNamespace) -> Iterator:
        """Delete / move / create against the previous restore's state."""
        volume = self.fs.volume
        symtab = self.symtab

        # 1. Deletions: inodes free at dump time that we once restored.
        doomed = [ino for ino in symtab.inos() if ino in ns.reader.clri_inos]
        doomed_paths: List[Tuple[str, int]] = []
        for ino in doomed:
            for path in symtab.get(ino):
                doomed_paths.append((path, ino))
        # Deepest first so directories empty out before their own removal.
        for path, ino in sorted(doomed_paths, key=lambda pair: -pair[0].count("/")):
            with RecorderScope(volume) as scope:
                try:
                    inode = self.fs.inode(self.fs.namei(path))
                except NotFoundError:
                    continue
                if inode.is_dir:
                    self._remove_tree(path)
                else:
                    self.fs.unlink(path)
                result.deleted += 1
            yield CpuOp(self.costs.restore_create_file, stage=STAGE_CREATE,
                        side="disk")
            for op in scope.drain_ops(STAGE_CREATE):
                yield op
        for ino in doomed:
            symtab.remove(ino)

        # 1b. Inode numbers reused as a different *kind* of object: the
        #     old incarnation must go before the namespace passes run.
        for ino, want_paths in ns.paths.items():
            if ino == ns.root_ino:
                continue
            known = symtab.get(ino)
            if not known:
                continue
            dumped_is_dir = ino in ns.entries
            if not ns.on_tape(ino) and not dumped_is_dir:
                continue
            anchor = None
            for path in known:
                if self.fs.exists(path):
                    anchor = path
                    break
            if anchor is None:
                symtab.remove(ino)
                continue
            existing_is_dir = self.fs.inode(self.fs.namei(anchor)).is_dir
            if existing_is_dir == dumped_is_dir:
                continue
            with RecorderScope(volume) as scope:
                if existing_is_dir:
                    self._remove_tree(anchor)
                else:
                    for path in known:
                        if self.fs.exists(path):
                            self.fs.unlink(path)
                result.deleted += 1
                symtab.remove(ino)
            yield CpuOp(self.costs.restore_create_file, stage=STAGE_CREATE,
                        side="disk")
            for op in scope.drain_ops(STAGE_CREATE):
                yield op

        # 2. New directories (dumped dirs we have never seen).
        for ino, path in ns.dir_paths.items():
            if ino == ns.root_ino:
                continue
            known = symtab.get(ino)
            if not known:
                with RecorderScope(volume) as scope:
                    if self._ensure_dir(path, ns.dirs.get(ino)):
                        result.created += 1
                        result.directories += 1
                yield CpuOp(self.costs.restore_create_file,
                            stage=STAGE_CREATE, side="disk")
                for op in scope.drain_ops(STAGE_CREATE):
                    yield op

        # 3. Moves, renames, and new hard-link names.  ``ns.paths`` is only
        #    a *partial* view (entries of the directories on this tape),
        #    so nothing is unlinked here: stale names under dumped
        #    directories are removed by pass 3c, which has the correct
        #    per-directory scope.
        for ino, want_paths in ns.paths.items():
            if ino == ns.root_ino:
                continue
            known = symtab.get(ino)
            if not known:
                continue
            if set(want_paths) <= set(known):
                continue
            with RecorderScope(volume) as scope:
                existing = [p for p in known if self.fs.exists(p)]
                if not existing:
                    symtab.remove(ino)
                elif ino in ns.entries:
                    # A directory has exactly one name: a new desired path
                    # is a genuine move/rename.
                    anchor = existing[0]
                    if anchor not in want_paths:
                        self.fs.rename(anchor, want_paths[0])
                        result.renamed += 1
                        existing = [want_paths[0]]
                    symtab.set(ino, sorted(set(want_paths) | set(existing)))
                else:
                    # Files: create the new names as hard links.  Whether
                    # the old name was renamed away or is a surviving
                    # link, pass 3c settles it per dumped directory —
                    # renaming here would guess wrong for multi-link
                    # inodes.
                    anchor = next(
                        (p for p in existing if p in want_paths), existing[0]
                    )
                    for extra in want_paths:
                        if not self.fs.exists(extra):
                            self.fs.link(anchor, extra)
                            result.renamed += 1
                    symtab.set(
                        ino, sorted(set(want_paths) | set(existing))
                    )
            yield CpuOp(self.costs.restore_create_file, stage=STAGE_CREATE,
                        side="disk")
            for op in scope.drain_ops(STAGE_CREATE):
                yield op

        # 3b. Directories whose inode number was reused (deleted above)
        #     now need their new incarnation created.
        for ino, path in ns.dir_paths.items():
            if ino == ns.root_ino or symtab.get(ino):
                continue
            with RecorderScope(volume) as scope:
                if self._ensure_dir(path, ns.dirs.get(ino)):
                    result.created += 1
                    result.directories += 1
            for op in scope.drain_ops(STAGE_CREATE):
                yield op

        # 3c. Dumped directories are authoritative: a name that still
        #     exists in the target under a dumped directory but is absent
        #     from the dumped contents was deleted or moved away between
        #     the dumps (e.g. one name of a hard-linked pair unlinked).
        for ino, path in ns.dir_paths.items():
            if not self.fs.exists(path):
                continue
            want_names = {name for name, _child in ns.entries.get(ino, [])}
            with RecorderScope(volume) as scope:
                removed = 0
                for name, child_ino in list(self.fs.readdir(path)):
                    if name in want_names:
                        continue
                    child_path = _join(path, name)
                    if self.fs.inode(child_ino).is_dir:
                        self._remove_tree(child_path)
                    else:
                        self.fs.unlink(child_path)
                    removed += 1
                    result.deleted += 1
            if removed:
                yield CpuOp(removed * self.costs.restore_create_file,
                            stage=STAGE_CREATE, side="disk")
            for op in scope.drain_ops(STAGE_CREATE):
                yield op

        # 4. Placeholders for newly appearing files on this tape.
        yield from self._create_placeholders(result, ns, latency=False)

    def _remove_tree(self, path: str) -> None:
        for name, ino in list(self.fs.readdir(path)):
            child = _join(path, name)
            if self.fs.inode(ino).is_dir:
                self._remove_tree(child)
            else:
                self.fs.unlink(child)
        self.fs.rmdir(path)

    # -- data extraction -----------------------------------------------------------

    def _extract(self, result, entry: InodeEntry, paths: List[str]) -> Iterator:
        header = entry.header
        volume = self.fs.volume
        path = paths[0]
        block_cost = self._cpu_block_cost()

        if header.ftype == FileType.SYMLINK:
            with RecorderScope(volume) as scope:
                if self.fs.exists(path):
                    self.fs.unlink(path)
                self.fs.symlink(path, entry.data.decode("utf-8"))
                self.fs.set_attrs(
                    path,
                    uid=header.uid,
                    gid=header.gid,
                    mtime=header.mtime,
                    atime=header.atime,
                )
            yield CpuOp(self.costs.restore_create_file, stage=STAGE_FILL,
                        side="disk")
            for op in scope.drain_ops(STAGE_FILL):
                yield op
            result.files += 1
            return

        with RecorderScope(volume) as scope:
            if not self.fs.exists(path):
                self.fs.create(path)
                result.created += 1
            else:
                existing = self.fs.inode(self.fs.namei(path))
                if existing.is_symlink:
                    self.fs.unlink(path)
                    self.fs.create(path)
                elif existing.size:
                    self.fs.truncate(path, 0)
        for op in scope.drain_ops(STAGE_FILL):
            yield op

        # Write runs of present 4 KB blocks, preserving holes.
        total_segments = entry.total_segments
        nblocks = (total_segments + _SEGMENTS_PER_BLOCK - 1) // _SEGMENTS_PER_BLOCK
        for start, data, count in _write_runs(entry):
            with RecorderScope(volume) as scope:
                self.fs.write_file(path, data, offset=start * BLOCK_SIZE)
            yield CpuOp(count * block_cost, stage=STAGE_FILL, side="disk")
            for op in scope.drain_ops(STAGE_FILL):
                yield op

        with RecorderScope(volume) as scope:
            self.fs.truncate(path, header.size)
            self._apply_attrs(path, entry)
            for extra in paths[1:]:
                if not self.fs.exists(extra):
                    self.fs.link(path, extra)
        for op in scope.drain_ops(STAGE_FILL):
            yield op
        result.files += 1
        result.blocks += nblocks


__all__ = ["DumpNamespace", "LogicalRestore", "RestoreResult", "SymbolTable"]
