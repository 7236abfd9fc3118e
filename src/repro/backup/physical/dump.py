"""Image dump: stream allocated blocks through the RAID layer.

The engine creates (or is given) a snapshot, asks the block map which
blocks that snapshot pins — using the file system *only* for that — and
then reads the blocks through :class:`~repro.raid.volume.RaidVolume`
directly, in ascending physical order, writing ``(address, data)`` chunks
to tape.  NVRAM and the file-system read path are bypassed entirely.

Incremental dumps take a base snapshot and dump the bit-plane difference
(Table 1).  Multi-drive dumps stripe chunks round-robin across the
drives, each drive receiving a self-contained stream (its own header and
trailer), which is how the paper's physical dump uses 2 and 4 tape
drives in parallel.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.errors import BackupError, ReproError, SnapshotError
from repro.backup.common import MAX_RUN_BLOCKS, BackupResult
from repro.obs import observe_failure
from repro.backup.physical.image import ImageHeader, pack_chunk_header, pack_trailer
from repro.backup.physical.incremental import (
    incremental_run_list,
    spans_with_readthrough,
    split_runs,
)
from repro.perf.costs import CostModel
from repro.perf.ops import (
    CpuOp,
    DiskReadOp,
    DutyCycleOp,
    PhaseBegin,
    PhaseEnd,
    TapeWriteOp,
)
from repro.wafl.consts import ACTIVE_PLANE
from repro.wafl.fsinfo import FsInfo

STAGE_SNAP_CREATE = "Creating snapshot"
STAGE_BLOCKS = "Dumping blocks"
STAGE_SNAP_DELETE = "Deleting snapshot"


class ImageDumpResult(BackupResult):
    def __init__(self):
        super().__init__()
        self.snapshot: Optional[str] = None
        self.cp_count = 0
        self.base_cp = 0
        self.incremental = False
        self.drives_used = 0


class ImageDump:
    """One image dump: a volume (via one snapshot) to one or more drives."""

    def __init__(
        self,
        fs,
        drives,
        snapshot_name: Optional[str] = None,
        base_snapshot: Optional[str] = None,
        include_snapshots: bool = False,
        costs: Optional[CostModel] = None,
        manage_snapshot: bool = True,
        reuse_snapshot: Optional[str] = None,
    ):
        """``drives`` is a single drive or a list (parallel striping).

        ``base_snapshot`` selects incremental mode: only blocks in the new
        snapshot's plane but not the base's are dumped, and the base
        snapshot must still exist (its plane defines the difference).
        ``include_snapshots`` dumps the union of every plane so the
        restored system "looks just like the system you dumped, snapshots
        and all".  ``reuse_snapshot`` names a snapshot left behind by a
        faulted dump attempt: the rerun adopts it (creating it only if
        missing) but otherwise behaves — stage ops, naming, deletion —
        exactly as the run that created it, so the replayed op stream
        matches the original's.
        """
        self.fs = fs
        self.drives = list(drives) if isinstance(drives, (list, tuple)) else [drives]
        if not self.drives:
            raise BackupError("image dump needs at least one tape drive")
        self.snapshot_name = snapshot_name
        self.base_snapshot = base_snapshot
        self.include_snapshots = include_snapshots
        self.costs = costs or CostModel()
        self.manage_snapshot = manage_snapshot
        self.reuse_snapshot = reuse_snapshot

    def run(self) -> Iterator:
        """Generator of perf ops; returns an :class:`ImageDumpResult`.

        Failures are recorded on the observability plane before
        propagating.
        """
        try:
            return (yield from self._run())
        except ReproError as error:
            observe_failure("image.dump", error)
            raise

    def _run(self) -> Iterator:
        result = ImageDumpResult()
        fs = self.fs
        volume = fs.volume
        created = None

        # -- snapshot ------------------------------------------------------
        name = self.snapshot_name or self.reuse_snapshot
        if self.manage_snapshot and (
            name is None
            or fs.fsinfo.find_snapshot(name) is None
            or self.reuse_snapshot is not None
        ):
            yield PhaseBegin(STAGE_SNAP_CREATE)
            name = name or "image.%d" % fs.fsinfo.cp_count
            if fs.fsinfo.find_snapshot(name) is None:
                fs.snapshot_create(name)
            created = name
            yield DutyCycleOp(self.costs.snapshot_create_seconds,
                              self.costs.snapshot_create_cpu,
                              stage=STAGE_SNAP_CREATE)
            yield PhaseEnd(STAGE_SNAP_CREATE)
        record = fs.fsinfo.find_snapshot(name) if name else None
        if record is None:
            raise SnapshotError("image dump needs a snapshot (got %r)" % name)
        result.snapshot = name
        result.cp_count = record.cp_count

        # -- block selection (the only file-system involvement) -------------
        # Selection stays run-based end to end: the bit planes RLE straight
        # into (start, count) runs, never a per-block array — at paper
        # scale a plane is tens of millions of blocks but thousands of
        # runs.
        blockmap = fs.blockmap
        if self.base_snapshot is not None:
            base = fs.fsinfo.find_snapshot(self.base_snapshot)
            if base is None:
                raise SnapshotError(
                    "base snapshot %r no longer exists" % self.base_snapshot
                )
            selected = incremental_run_list(blockmap, record.snap_id,
                                            base.snap_id)
            result.incremental = True
            result.base_cp = base.cp_count
        elif self.include_snapshots:
            mask = np.uint32(1 << ACTIVE_PLANE)
            for snap in fs.fsinfo.snapshots:
                mask |= np.uint32(1 << snap.snap_id)
            selected = blockmap.mask_runs(mask)
        else:
            selected = blockmap.plane_runs(record.snap_id)

        # -- the root structure to install on restore -----------------------
        if self.include_snapshots:
            fsinfo_image = fs.fsinfo.pack()
        else:
            restored = FsInfo(volume.block_size, volume.nblocks)
            restored.cp_count = record.cp_count
            restored.alloc_cursor = fs.fsinfo.alloc_cursor
            restored.next_generation = fs.fsinfo.next_generation
            restored.clock_ticks = fs.fsinfo.clock_ticks
            restored.next_ino_hint = fs.fsinfo.next_ino_hint
            restored.inofile_inode = record.inofile_inode.copy()
            fsinfo_image = restored.pack()

        # -- stream the blocks ------------------------------------------------
        yield PhaseBegin(STAGE_BLOCKS)
        # Scanning the bit planes costs a little CPU.
        yield CpuOp(
            blockmap.n_fblocks() * self.costs.image_map_scan,
            stage=STAGE_BLOCKS,
            side="disk",
        )
        runs = split_runs(selected, max_run=MAX_RUN_BLOCKS)
        ndrives = len(self.drives)
        # Span size balances read-through efficiency against striping
        # granularity: every drive should get a healthy number of spans.
        total_blocks_planned = int(sum(count for _s, count in runs))
        max_span = min(2048, max(MAX_RUN_BLOCKS,
                                 total_blocks_planned // (ndrives * 8) or 1))
        headers = []
        for index, drive in enumerate(self.drives):
            header = ImageHeader(
                volume.geometry,
                record.cp_count,
                fsinfo_image if index == 0 else b"",
                incremental=result.incremental,
                base_cp=result.base_cp,
                includes_snapshots=self.include_snapshots,
            )
            header.total_blocks = 0
            headers.append(header)
        marks = [0] * ndrives
        change_marks = [drive.media_changes for drive in self.drives]
        written = [0] * ndrives

        def tape_op(index: int) -> Optional[TapeWriteOp]:
            drive = self.drives[index]
            delta = drive.bytes_written - marks[index]
            changes = drive.media_changes - change_marks[index]
            marks[index] = drive.bytes_written
            change_marks[index] = drive.media_changes
            if delta <= 0 and changes <= 0:
                return None
            return TapeWriteOp(drive, delta, changes, stage=STAGE_BLOCKS)

        for index, drive in enumerate(self.drives):
            marks[index] = drive.bytes_written
            drive.write(headers[index].pack())
            op = tape_op(index)
            if op:
                yield op

        total_blocks = 0
        # Bypass the buffer cache: image dump reads raw blocks through the
        # RAID layer, not the file system.  Reads stream through small
        # free gaps (spans) so the disks stay essentially sequential.
        previous_uncached = volume.uncached_reads
        volume.uncached_reads = True
        block_size = volume.block_size
        try:
            for span_start, span_len, span_runs in spans_with_readthrough(
                    runs, max_span=max_span):
                span_data = volume.read_run(span_start, span_len)
                yield DiskReadOp(volume, span_start, span_len,
                                 stage=STAGE_BLOCKS)
                allocated = sum(count for _start, count in span_runs)
                yield CpuOp(allocated * self.costs.image_dump_block,
                            stage=STAGE_BLOCKS, side="disk")
                # A whole span goes to one drive (least loaded), so each
                # drive's stream — and therefore each parallel restore's
                # writes — covers large contiguous regions.
                target = min(range(ndrives), key=lambda i: written[i])
                drive = self.drives[target]
                for start, count in span_runs:
                    offset = (start - span_start) * block_size
                    data = span_data[offset : offset + count * block_size]
                    drive.write(pack_chunk_header(start, count, data))
                    drive.write(data)
                    written[target] += count
                    total_blocks += count
                    # Per-run tape ops keep each op within the pipeline
                    # buffer even when the span is large.
                    op = tape_op(target)
                    if op:
                        yield op
        finally:
            volume.uncached_reads = previous_uncached
        for index, drive in enumerate(self.drives):
            drive.write(pack_trailer(written[index]))
            op = tape_op(index)
            if op:
                yield op
        yield PhaseEnd(STAGE_BLOCKS)
        result.blocks = total_blocks
        result.bytes_to_tape = sum(
            drive.bytes_written for drive in self.drives
        )
        result.drives_used = ndrives

        # -- cleanup ------------------------------------------------------------
        if created is not None and self.base_snapshot is None and not self.include_snapshots:
            # A full dump's working snapshot can be kept as the base for a
            # future incremental; the paper's plain dump deletes it.
            pass
        if created is not None and self._should_delete(created):
            yield PhaseBegin(STAGE_SNAP_DELETE)
            fs.snapshot_delete(created)
            result.snapshot = None
            yield DutyCycleOp(self.costs.snapshot_delete_seconds,
                              self.costs.snapshot_delete_cpu,
                              stage=STAGE_SNAP_DELETE)
            yield PhaseEnd(STAGE_SNAP_DELETE)
        return result

    def _should_delete(self, created: str) -> bool:
        # Keep the snapshot when it will serve as an incremental base:
        # the caller asked for it by name.
        return self.snapshot_name is None


__all__ = ["ImageDump", "ImageDumpResult", "STAGE_BLOCKS", "STAGE_SNAP_CREATE",
           "STAGE_SNAP_DELETE"]
