"""Logical restore: full, incremental, and single-file recovery.

Restore reads the dumped directories into an in-memory "directory file" —
the *desiccated file system* the paper describes — and runs its own
``namei`` against it, so it can locate any file on the tape without
materializing the directory structure first.  That reading,
:class:`DumpNamespace`, is also what ``restore -t``, ``restore -C`` and
``restore -i`` (:mod:`repro.backup.logical.inspect`, ``interactive``) use.

Every restore is one pass, staged as in Table 3: "Creating files"
reconciles the target's namespace with the dump, then "Filling in data"
extracts the wanted files as the tape streams past.  The reconciliation
starts from the symbol table the previous restore in the chain handed on
(BSD restore's ``restoresymtable``): it deletes the inodes freed since
the base (TS_CLRI), re-kinds reused inode numbers, follows renames and
moves, then creates the directories and placeholder files the table does
not know.  A level 0 is the same pass against an empty table, which
knows nothing in the target and so deletes and renames nothing.
``select=[paths]`` (stupidity recovery) narrows what is wanted to the
selected subtrees plus the directories above them, and, like BSD
``restore -x``, only adds names: it reconciles against an empty table.

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
from repro.dumpfmt.stream import DumpStreamReader, InodeEntry, runs_to_data
from repro.perf.ops import CpuOp, PhaseBegin, PhaseEnd, SleepOp
from repro.perf.costs import CostModel
from repro.raid.group import run_nbytes
from repro.storage.disk import zeros
from repro.wafl.consts import BLOCK_SIZE
from repro.wafl.directory import iter_entries
from repro.wafl.inode import FileType

STAGE_CREATE = "Creating files"
STAGE_FILL = "Filling in data"

_SEGMENTS_PER_BLOCK = BLOCK_SIZE // SEGMENT_SIZE


def _block_runs(entry: "InodeEntry"):
    """Yield ``(first_block, data_or_None, nblocks)`` per stream run.

    A block is present when any of its segments carries data; present
    runs come out as whole 4 KB blocks.  Stream runs from the dump writer
    always start on a block boundary, so the fast path maps each run to
    blocks directly: its data as the reader gave it (a buffer, or a list
    of them), and only a last partial block padded, by a view of shared
    zeros.  Anything unaligned falls back to one block at a time over
    the reassembled contents (identical block classification).
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
                pad = bcount * BLOCK_SIZE - run_nbytes(buf)
                if pad > 0:
                    buf = (buf if isinstance(buf, list) else [buf]) + [
                        memoryview(zeros(BLOCK_SIZE))[:pad]]
                yield block, buf, bcount
            block += bcount
        return
    # Unaligned: a block is present when any data run touches it.
    total = entry.total_segments
    data = runs_to_data(runs, total * SEGMENT_SIZE)
    present = set()
    position = 0
    for count, buf in runs:
        if buf is not None and count:
            present.update(range(position // _SEGMENTS_PER_BLOCK,
                                 (position + count - 1) // _SEGMENTS_PER_BLOCK + 1))
        position += count
    for block in range(-(-total // _SEGMENTS_PER_BLOCK)):
        chunk = data[block * BLOCK_SIZE : (block + 1) * BLOCK_SIZE]
        yield block, chunk.ljust(BLOCK_SIZE, b"\0") if block in present else None, 1


_WRITE_RUN_BLOCKS = 64


def _write_runs(entry: "InodeEntry"):
    """Yield ``(first_block, pieces, nblocks)`` writes of present blocks.

    Adjacent stream runs merge into one write; a hole, or reaching 64
    blocks, ends it.  ``pieces`` is a list whose join is the write: the
    stream runs' buffers, sliced as views where a write ends inside one,
    so nothing is copied on the way to the store — and the NVRAM log
    that keeps the write holds views of records the tape owns.
    """
    limit = _WRITE_RUN_BLOCKS * BLOCK_SIZE
    start, parts, held = 0, [], 0
    for block, blob, _count in _block_runs(entry):
        if blob is None:
            if held:
                yield start, parts, held // BLOCK_SIZE
                parts, held = [], 0
            continue
        if not held:
            start = block
        for piece in (blob if isinstance(blob, list) else [blob]):
            while len(piece):
                take = min(len(piece), limit - held)
                if take < len(piece):
                    view = memoryview(piece)
                    parts.append(view[:take])
                    piece = view[take:]
                else:
                    parts.append(piece)
                    piece = b""
                held += take
                if held == limit:
                    yield start, parts, _WRITE_RUN_BLOCKS
                    start += _WRITE_RUN_BLOCKS
                    parts, held = [], 0
    if held:
        yield start, parts, held // BLOCK_SIZE


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
        symtab = self.symtab or SymbolTable()

        yield PhaseBegin(STAGE_CREATE)
        ns = DumpNamespace(self.drive, into=self.into, resync=self.resync)
        result.level = ns.label.level
        yield from meter.ops(STAGE_CREATE)
        for _record in ns.read_directories():
            yield CpuOp(self.costs.restore_parse_header,
                        stage=STAGE_CREATE, side="disk")
            yield from meter.ops(STAGE_CREATE)
        wanted = self._wanted(ns)
        yield from self._reconcile(result, ns, symtab, wanted)
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
            elif entry.ino in wanted:
                yield from self._extract(result, entry, ns.paths[entry.ino])
            else:
                result.skipped += 1
        yield from meter.ops(STAGE_FILL)

        # Final pass: directory attributes, last because creating children
        # bumps a directory's mtime.  A directory an earlier restore made
        # (or the mount point) gets the dumped ones here too.
        for ino, attrs in ns.dirs.items():
            path = ns.dir_paths.get(ino)
            if path is None or not self.fs.exists(path):
                continue
            self._apply_attrs(path, attrs, acl=self.fs.get_acl(path))
        yield CpuOp(len(ns.dirs) * self.costs.restore_parse_header,
                    stage=STAGE_FILL, side="disk")
        yield PhaseEnd(STAGE_FILL)

        # ---- symbol table for the next incremental in the chain ----
        # ``ns.paths`` is a partial view; names recorded by earlier
        # restores that survived this one (their directories were not on
        # this tape) must be merged in, not overwritten.
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

    # -- the namespace pass -----------------------------------------------------------

    def _wanted(self, ns: DumpNamespace) -> Set[int]:
        """The dump inodes this restore materializes: every one, or the
        ``select`` subtrees (dump-rooted paths) plus every directory above
        one of their names."""
        if self.select is None:
            return set(ns.paths)
        wanted: Set[int] = set()
        for want in self.select:
            ino = ns.lookup(want)
            if ino is None:
                raise NotFoundError("path %r is not on this tape" % want)
            wanted |= ns.subtree(ino)
        parents: Dict[int, List[int]] = {}
        for dir_ino, children in ns.entries.items():
            for _name, child in children:
                parents.setdefault(child, []).append(dir_ino)
        stack = list(wanted)
        while stack:
            for parent in parents.get(stack.pop(), ()):
                if parent not in wanted:
                    wanted.add(parent)
                    stack.append(parent)
        return wanted

    def _charge(self, scope: RecorderScope, count: int = 1,
                create: bool = False) -> Iterator:
        """The ops of one namespace step: ``count`` file operations of CPU
        (a create also waits out its latency), then the disk I/O
        ``scope`` recorded."""
        if count:
            yield CpuOp(self.costs.restore_create_file * count,
                        stage=STAGE_CREATE, side="disk")
            if create:
                yield SleepOp(self.costs.restore_create_latency * count,
                              stage=STAGE_CREATE)
        yield from scope.drain_ops(STAGE_CREATE)

    def _ensure_dir(self, path: str, attrs: InodeEntry) -> bool:
        """Create one directory (idempotent); True if created."""
        if self.fs.exists(path):
            return False
        header = attrs.header
        self.fs.mkdir(path, perms=header.perms, uid=header.uid, gid=header.gid)
        self._apply_attrs(path, attrs)
        return True

    def _apply_attrs(self, path: str, entry: InodeEntry,
                     acl: bytes = b"") -> None:
        """Set the dumped attributes; ``acl`` is the one ``path`` has."""
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
        if entry.acl != acl:
            self.fs.set_acl(path, entry.acl)

    def _reconcile(self, result, ns: DumpNamespace, symtab: SymbolTable,
                   wanted: Set[int]) -> Iterator:
        """Bring the target's namespace to the dump's.

        Only inodes ``symtab`` knows -- what earlier restores in the chain
        put in the target -- are deleted, re-kinded or renamed, so against
        an empty table (a level 0) nothing already there is touched.  Then
        the wanted directories and placeholder files the table does not
        know are created, each name charged a create.  A selection
        (``restore -x``) only adds names, so it reconciles against an
        empty table too; the table it hands on is still merged in full.
        """
        if self.select is not None:
            symtab = SymbolTable()
        volume = self.fs.volume

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
            yield from self._charge(scope)
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
            yield from self._charge(scope)

        # 2. Wanted directories the table does not know, parents first.
        #    One at or under a path a known inode is about to leave would
        #    leave with it: it waits for pass 3b.
        def create_dirs() -> Iterator:
            leaving = {
                path for ino, want_paths in ns.paths.items()
                for path in symtab.get(ino) if path not in want_paths
            }
            for ino, path in ns.dir_paths.items():
                if ino not in wanted or symtab.get(ino):
                    continue
                if any(path == old or path.startswith(old + "/")
                       for old in leaving):
                    continue
                if ino == ns.root_ino:
                    # The mount point: bare and uncharged.
                    if not self.fs.exists(path):
                        self.fs.mkdir(path)
                    continue
                with RecorderScope(volume) as scope:
                    created = self._ensure_dir(path, ns.dirs[ino])
                    if created:
                        result.created += 1
                        result.directories += 1
                yield from self._charge(scope, int(created), create=True)

        yield from create_dirs()

        # 3. Moves, renames, and new hard-link names.  ``ns.paths`` is only
        #    a *partial* view (entries of the directories on this tape),
        #    so nothing is unlinked here: stale names under dumped
        #    directories are removed by pass 3c, which has the correct
        #    per-directory scope.
        retry_dirs = False
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
                    retry_dirs = True
                elif (ino in ns.entries or
                      self.fs.inode(self.fs.namei(existing[0])).is_dir):
                    # A directory (dumped, or renamed with its contents
                    # unchanged) has exactly one name: a new desired path
                    # is a genuine move/rename.
                    anchor = existing[0]
                    if anchor not in want_paths:
                        self.fs.rename(anchor, want_paths[0])
                        result.renamed += 1
                        retry_dirs = True
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
            yield from self._charge(scope)

        # 3b. Moves vacated paths pass 2 left alone, and a known directory
        #     found missing is no longer known: ensure them again.
        if retry_dirs:
            yield from create_dirs()

        # 3c. Dumped directories the table knows are authoritative: a name
        #     that still exists under one but is absent from the dumped
        #     contents was deleted or moved away between the dumps (e.g.
        #     one name of a hard-linked pair unlinked).
        for ino, path in ns.dir_paths.items():
            if not symtab.get(ino) or not self.fs.exists(path):
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
            yield from self._charge(scope, removed)

        # 4. Placeholder files and hard links for every wanted file on this
        #    tape that the table does not know.
        for ino, paths in ns.paths.items():
            if ino in ns.entries or ino == ns.root_ino or ino not in wanted:
                continue
            if not ns.on_tape(ino):
                continue  # not on this tape (filtered or unchanged)
            if symtab.get(ino):
                continue
            with RecorderScope(volume) as scope:
                first = paths[0]
                created = 0
                if not self.fs.exists(first):
                    self.fs.create(first)
                    result.created += 1
                    created += 1
                for extra in paths[1:]:
                    if not self.fs.exists(extra):
                        self.fs.link(first, extra)
                        created += 1
            yield from self._charge(scope, created, create=True)

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
                self._apply_attrs(path, entry)
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
                else:
                    if existing.size:
                        self.fs.truncate(path, 0)
                    if existing.acl_block and not entry.acl:
                        self.fs.set_acl(path, b"")  # the dumped file has none
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
