"""The four-phase, inode-ordered logical dump.

Phase I walks the tree and maps which inodes are in use and which need
dumping (everything at level 0; changed-since-base at deeper levels).
Phase II marks the directories between the dump root and the selected
files (restore needs them to map names to inode numbers).  Phases III and
IV write directories then files, both in ascending inode order — which is
exactly why logical dump's disk reads scatter on a fragmented file system.

Like the paper's kernel-integrated dump, the engine "generates its own
read-ahead policy": directory reads during the tree walk and extent reads
during the file phase are issued as asynchronous prefetches (a bounded
window ahead of consumption), so independent seeks overlap across RAID
groups instead of serializing behind the stream.

The engine is a generator of perf ops (see :mod:`repro.backup.common`);
data is moved for real as the generator runs.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.backup.common import MAX_RUN_BLOCKS, BackupResult
from repro.backup.logical.dumpdates import DumpDates
from repro.errors import ReproError
from repro.obs import observe_failure
from repro.dumpfmt.records import FLAG_HAS_ACL, FLAG_SUBTREE_ROOT, RecordHeader, TapeLabel
from repro.dumpfmt.spec import SEGMENT_SIZE, TS_INODE
from repro.dumpfmt.stream import DumpStreamWriter
from repro.perf.ops import (
    CpuOp,
    DiskReadOp,
    DutyCycleOp,
    PhaseBegin,
    PhaseEnd,
    ReadBarrier,
    TapeWriteOp,
)
from repro.perf.costs import CostModel
from repro.wafl.consts import BLOCK_SIZE
from repro.wafl.directory import Directory

# Stage names match the paper's Table 3 rows.
STAGE_SNAP_CREATE = "Creating snapshot"
STAGE_MAPPING = "Mapping files and directories"
STAGE_DIRS = "Dumping directories"
STAGE_FILES = "Dumping files"
STAGE_SNAP_DELETE = "Deleting snapshot"

_SEGMENTS_PER_BLOCK = BLOCK_SIZE // SEGMENT_SIZE

# Outstanding prefetch items per phase (the engine's read-ahead policy).
READAHEAD_DIRS = 8
READAHEAD_EXTENTS = 8


class DumpResult(BackupResult):
    """Outcome of one logical dump."""

    def __init__(self):
        super().__init__()
        self.level = 0
        self.date = 0
        self.base_date = 0
        self.snapshot: Optional[str] = None
        self.dumped_inos: Set[int] = set()


class LogicalDump:
    """One dump job: a subtree of one file system to one tape drive."""

    def __init__(
        self,
        source,
        drive,
        level: int = 0,
        subtree: str = "/",
        dumpdates: Optional[DumpDates] = None,
        exclude: Optional[Callable[[str, object], bool]] = None,
        costs: Optional[CostModel] = None,
        date: Optional[int] = None,
        snapshot_name: Optional[str] = None,
        hostname: str = "eliot",
        reuse_snapshot: bool = False,
        readahead_extents: int = READAHEAD_EXTENTS,
    ):
        """``source`` is a live :class:`WaflFilesystem` (a snapshot is
        created for the dump and deleted afterwards, as the paper's dump
        does) or an existing snapshot view, a read-only
        :class:`~repro.wafl.filesystem.FileTree` (no snapshot
        management).  ``exclude`` is the filter hook: a predicate over
        (path, inode) that filters files out of the dump.
        ``reuse_snapshot`` adopts an existing snapshot of that name
        instead of failing on it, still emitting the creation-stage ops
        and still deleting it at the end — so a dump resumed after a
        fault replays the exact op stream of the original attempt.
        ``readahead_extents`` is the file phase's read-ahead window."""
        self.fs = source if hasattr(source, "snapshot_create") else None
        self.source = source
        self.drive = drive
        self.level = level
        self.subtree = subtree
        self.dumpdates = dumpdates
        self.exclude = exclude
        self.costs = costs or CostModel()
        self.date = date
        self.snapshot_name = snapshot_name
        self.hostname = hostname
        self.reuse_snapshot = reuse_snapshot
        self.readahead_extents = readahead_extents
        self._tape_mark = 0
        self._change_mark = 0
        self._prefetch_count = 0

    # -- op helpers -----------------------------------------------------------

    def _tape_ops(self, writer: DumpStreamWriter, stage: str) -> List[TapeWriteOp]:
        delta = writer.bytes_written - self._tape_mark
        changes = self.drive.media_changes - self._change_mark
        self._tape_mark = writer.bytes_written
        self._change_mark = self.drive.media_changes
        if delta <= 0 and changes <= 0:
            return []
        return [TapeWriteOp(self.drive, delta, changes, stage=stage)]

    def _read_whole(self, source, ino, stage: str):
        """Prefetch-read one whole small object (directory).

        Returns ``(ops, data, barrier_count)``: the prefetch ops to yield
        and the barrier value that orders them complete.  Cache hits
        produce no ops (the data is already in RAM).
        """
        from repro.backup.common import RecorderScope

        volume = source.volume
        # The inode is loaded outside the scope: like every inode the walk
        # loads, it is charged as mapping CPU, not as a prefetch read.
        source.inode(ino)
        with RecorderScope(volume) as scope:
            data = source.read_by_ino(ino)
        ops = []
        for _kind, start, count in scope.recorder.drain():
            ops.append(DiskReadOp(volume, start, count, stage=stage,
                                  prefetch=True))
            self._prefetch_count += 1
        return ops, data, self._prefetch_count

    # -- the dump -----------------------------------------------------------------

    def run(self) -> Iterator:
        """Generator of perf ops; returns a :class:`DumpResult`.

        Failures on the way (no tape, full volume, ...) are recorded on
        the observability plane before propagating.
        """
        try:
            return (yield from self._run())
        except ReproError as error:
            observe_failure("logical.dump", error)
            raise

    def _run(self) -> Iterator:
        result = DumpResult()
        result.level = self.level
        source = self.source
        created_snapshot = None

        # Stage 0: snapshot creation (live file system only).
        if self.fs is not None:
            yield PhaseBegin(STAGE_SNAP_CREATE)
            name = self.snapshot_name or "dump.l%d.%d" % (
                self.level,
                self.fs.fsinfo.cp_count,
            )
            record = None
            if self.reuse_snapshot:
                record = self.fs.fsinfo.find_snapshot(name)
            if record is None:
                record = self.fs.snapshot_create(name)
            created_snapshot = name
            source = self.fs.snapshot_view(name)
            if self.date is None:
                self.date = record.created
            yield DutyCycleOp(self.costs.snapshot_create_seconds,
                              self.costs.snapshot_create_cpu,
                              stage=STAGE_SNAP_CREATE)
            yield PhaseEnd(STAGE_SNAP_CREATE)
        result.snapshot = created_snapshot
        if self.date is None:
            self.date = 0
        result.date = self.date

        base_date = 0
        fsid = source.volume.name
        if self.dumpdates is not None:
            base_date, _base_level = self.dumpdates.base_for(
                fsid, self.subtree, self.level
            )
        result.base_date = base_date

        volume = source.volume
        root_ino = source.namei(self.subtree)

        # -- Phase I + II: build the maps -------------------------------------
        # The walk prefetches directories a window ahead: children found in
        # one directory are issued immediately, read asynchronously, and
        # consumed when the walk reaches them.
        yield PhaseBegin(STAGE_MAPPING)
        used: Set[int] = set()
        dump_files: Set[int] = set()
        dump_dirs: Set[int] = set()
        parent: Dict[int, int] = {}
        paths: Dict[int, str] = {root_ino: self.subtree.rstrip("/") or ""}
        pending = deque([root_ino])
        ready = deque()  # (dir_ino, entries, barrier)
        used.add(root_ino)
        pending_cpu = 0.0

        def issue_dirs():
            ops = []
            while pending and len(ready) < READAHEAD_DIRS:
                dir_ino = pending.popleft()
                dir_ops, data, barrier = self._read_whole(
                    source, dir_ino, STAGE_MAPPING
                )
                ops.extend(dir_ops)
                entries = Directory.parse(data).children()
                ready.append((dir_ino, entries, barrier))
            return ops

        for op in issue_dirs():
            yield op
        while ready:
            dir_ino, entries, barrier = ready.popleft()
            yield ReadBarrier(barrier, stage=STAGE_MAPPING)
            pending_cpu += self.costs.map_inode  # the directory itself
            dir_inode = source.inode(dir_ino)
            if self.level == 0 or dir_inode.mtime > base_date:
                dump_dirs.add(dir_ino)
            for name, ino in entries:
                child = source.inode(ino)
                pending_cpu += self.costs.map_inode
                path = "%s/%s" % (paths[dir_ino], name)
                if self.exclude is not None and self.exclude(path, child):
                    used.add(ino)  # in use, but filtered out of the dump
                    continue
                used.add(ino)
                parent.setdefault(ino, dir_ino)
                if child.is_dir:
                    paths[ino] = path
                    pending.append(ino)
                else:
                    changed = (
                        self.level == 0
                        or child.mtime > base_date
                        or child.ctime > base_date
                    )
                    if changed:
                        dump_files.add(ino)
            if pending_cpu > 0.01:
                yield CpuOp(pending_cpu, stage=STAGE_MAPPING, side="disk")
                pending_cpu = 0.0
            for op in issue_dirs():
                yield op
        # Phase II: mark ancestor directories of everything selected.
        for ino in dump_files | dump_dirs:
            cursor = ino
            while cursor != root_ino:
                cursor = parent.get(cursor, root_ino)
                dump_dirs.add(cursor)
        dump_dirs.add(root_ino)
        if pending_cpu:
            yield CpuOp(pending_cpu, stage=STAGE_MAPPING, side="disk")
        yield PhaseEnd(STAGE_MAPPING)

        # -- preamble ----------------------------------------------------------
        writer = DumpStreamWriter(self.drive, date=self.date, ddate=base_date)
        max_ino = source.max_ino()
        label = TapeLabel(
            hostname=self.hostname,
            filesystem=fsid,
            subtree=self.subtree,
            level=self.level,
            root_ino=root_ino,
            max_ino=max_ino,
        )
        writer.write_tape_header(label)
        free_inos = [ino for ino in range(1, max_ino) if ino not in used]
        writer.write_clri(free_inos, max_ino)
        all_dumped = sorted(dump_dirs | dump_files)
        writer.write_bits(all_dumped, max_ino)
        for op in self._tape_ops(writer, STAGE_MAPPING):
            yield op

        # -- Phase III: directories, ascending inode order ---------------------
        # Directory contents were just read during mapping, so these reads
        # are cache hits; the cost is conversion CPU plus tape.
        yield PhaseBegin(STAGE_DIRS)
        for ino in sorted(dump_dirs):
            inode = source.inode(ino)
            dir_ops, data, barrier = self._read_whole(source, ino, STAGE_DIRS)
            for op in dir_ops:
                yield op
            yield ReadBarrier(barrier, stage=STAGE_DIRS)
            attrs = self._attrs_header(inode)
            attrs.size = len(data)
            if ino == root_ino:
                attrs.flags |= FLAG_SUBTREE_ROOT
            writer.begin_inode(attrs)
            writer.feed_data(data)
            writer.end_inode()
            acl = source.get_acl_by_ino(ino)
            if acl:
                writer.write_acl(ino, acl)
            nentries = max(1, len(data) // 16)
            yield CpuOp(
                self.costs.dump_file_header + nentries * self.costs.dump_dir_entry,
                stage=STAGE_DIRS,
                side="disk",
            )
            for op in self._tape_ops(writer, STAGE_DIRS):
                yield op
            result.directories += 1
        yield PhaseEnd(STAGE_DIRS)

        # -- Phase IV: files, ascending inode order, with read-ahead -----------
        yield PhaseBegin(STAGE_FILES)
        file_order = sorted(dump_files)
        # The read-ahead plan: every extent piece of every file, in dump
        # order.
        tasks: List[Tuple[int, int, int, int]] = []
        file_pieces: Dict[int, List[int]] = {}
        for ino in file_order:
            pieces = []
            for fbn, vbn, nblocks in source.file_extents(ino):
                offset = 0
                while offset < nblocks:
                    piece = min(MAX_RUN_BLOCKS, nblocks - offset)
                    pieces.append(len(tasks))
                    tasks.append((ino, fbn + offset, vbn + offset, piece))
                    offset += piece
            file_pieces[ino] = pieces

        prefetched: Dict[int, bytes] = {}
        issued = 0

        task_barrier: Dict[int, int] = {}

        def issue_extents(upto: int):
            nonlocal issued
            from repro.backup.common import RecorderScope

            ops = []
            limit = min(len(tasks), upto)
            while issued < limit:
                _ino, _fbn, vbn, count = tasks[issued]
                with RecorderScope(volume) as scope:
                    prefetched[issued] = source.read_extent(vbn, count)
                for _kind, start, piece in scope.recorder.drain():
                    ops.append(DiskReadOp(volume, start, piece,
                                          stage=STAGE_FILES, prefetch=True))
                    self._prefetch_count += 1
                task_barrier[issued] = self._prefetch_count
                issued += 1
            return ops

        cursor = 0
        for ino in file_order:
            inode = source.inode(ino)
            yield CpuOp(self.costs.dump_file_header, stage=STAGE_FILES,
                        side="disk")
            attrs = self._attrs_header(inode)
            total_segments = (inode.size + SEGMENT_SIZE - 1) // SEGMENT_SIZE
            writer.begin_inode(attrs)
            fed = 0
            last_task = file_pieces[ino][-1] if file_pieces[ino] else -1
            for task_index in file_pieces[ino]:
                # Read-ahead covers the file being dumped plus one extent
                # of the next file (open-ahead) — the scope of a per-file
                # read-ahead policy, not an unbounded pipeline.
                horizon = min(cursor + self.readahead_extents + 1, last_task + 2)
                for op in issue_extents(horizon):
                    yield op
                yield ReadBarrier(task_barrier[task_index], stage=STAGE_FILES)
                _t_ino, fbn, _vbn, count = tasks[task_index]
                data = prefetched.pop(task_index)
                cursor = max(cursor, task_index + 1)
                # Holes before this piece.
                hole_segments = min(fbn * _SEGMENTS_PER_BLOCK, total_segments) - fed
                if hole_segments > 0:
                    writer.feed_holes(hole_segments)
                    fed += hole_segments
                # The whole piece in one run (not one object per KB); the
                # file's final segment, if short, is padded at emission.
                want = min(count * _SEGMENTS_PER_BLOCK, total_segments - fed)
                if want > 0:
                    nbytes = want * SEGMENT_SIZE
                    writer.feed_data(
                        data if nbytes >= len(data) else data[:nbytes], want
                    )
                fed += want
                yield CpuOp(count * self.costs.dump_data_block,
                            stage=STAGE_FILES, side="disk")
                for op in self._tape_ops(writer, STAGE_FILES):
                    yield op
            if fed < total_segments:
                writer.feed_holes(total_segments - fed)
            writer.end_inode()
            acl = source.get_acl_by_ino(ino)
            if acl:
                writer.write_acl(ino, acl)
            for op in self._tape_ops(writer, STAGE_FILES):
                yield op
            result.files += 1
        writer.write_end()
        for op in self._tape_ops(writer, STAGE_FILES):
            yield op
        yield PhaseEnd(STAGE_FILES)

        # Stage 5: delete the dump's snapshot.
        if created_snapshot is not None:
            yield PhaseBegin(STAGE_SNAP_DELETE)
            self.fs.snapshot_delete(created_snapshot)
            yield DutyCycleOp(self.costs.snapshot_delete_seconds,
                              self.costs.snapshot_delete_cpu,
                              stage=STAGE_SNAP_DELETE)
            yield PhaseEnd(STAGE_SNAP_DELETE)

        if self.dumpdates is not None:
            self.dumpdates.record(fsid, self.subtree, self.level, self.date)
        result.bytes_to_tape = writer.bytes_written
        result.dumped_inos = set(all_dumped)
        return result

    # -- record assembly -------------------------------------------------------

    def _attrs_header(self, inode) -> RecordHeader:
        header = RecordHeader(TS_INODE, inode.ino)
        header.size = inode.size
        header.perms = inode.perms
        header.ftype = inode.type
        header.nlink = inode.nlink
        header.uid = inode.uid
        header.gid = inode.gid
        header.atime = inode.atime
        header.mtime = inode.mtime
        header.ctime = inode.ctime
        header.generation = inode.generation
        header.qtree = inode.qtree
        header.dos_name = inode.dos_name
        header.dos_bits = inode.dos_bits
        header.dos_time = inode.dos_time
        if inode.acl_block:
            header.flags |= FLAG_HAS_ACL
        return header


__all__ = [
    "DumpResult",
    "LogicalDump",
    "STAGE_DIRS",
    "STAGE_FILES",
    "STAGE_MAPPING",
    "STAGE_SNAP_CREATE",
    "STAGE_SNAP_DELETE",
]
