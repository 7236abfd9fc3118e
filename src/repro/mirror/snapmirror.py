"""Asynchronous volume mirroring over incremental image transfers.

A :class:`MirrorRelationship` ties a live source file system to a replica
volume of identical geometry.  ``initialize()`` ships a full image;
each ``update()`` creates a fresh mirror snapshot, ships only the
bit-plane difference against the previous one, and retires the old
snapshot — so steady-state transfer cost is proportional to the churn,
not the volume size.

The replica is passive: the incremental base check (consistency-point
identity) refuses an update if anything wrote to the replica since the
last transfer, which is exactly the discipline a real mirror target
enforces by being read-only.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import BackupError
from repro.backup.common import drain_engine
from repro.backup.physical.dump import ImageDump
from repro.backup.physical.restore import ImageRestore
from repro.perf.costs import CostModel
from repro.storage.tape import TapeDrive, TapeStacker


class MirrorTransferResult:
    """Outcome of one mirror transfer."""

    def __init__(self, kind: str, blocks: int, bytes_transferred: int,
                 snapshot: str):
        self.kind = kind  # "initialize" or "update"
        self.blocks = blocks
        self.bytes_transferred = bytes_transferred
        self.snapshot = snapshot

    def __repr__(self) -> str:
        return "<MirrorTransfer %s blocks=%d bytes=%d snap=%s>" % (
            self.kind, self.blocks, self.bytes_transferred, self.snapshot,
        )


class MirrorRelationship:
    """Source file system -> replica volume, kept in step by snapshots."""

    SNAP_PREFIX = "mirror"

    def __init__(self, source_fs, target_volume,
                 costs: Optional[CostModel] = None):
        if not target_volume.compatible_with(source_fs.volume.geometry):
            raise BackupError(
                "mirror target geometry differs from the source "
                "(physical replication requires identical layout)"
            )
        self.source = source_fs
        self.target = target_volume
        self.costs = costs or CostModel()
        self.generation = 0
        self.baseline: Optional[str] = None
        self.transfers: List[MirrorTransferResult] = []

    def _next_snapshot(self) -> str:
        self.generation += 1
        return "%s.%d" % (self.SNAP_PREFIX, self.generation)

    def initialize(self) -> MirrorTransferResult:
        """Ship the full image; establishes the baseline snapshot."""
        if self.baseline is not None:
            raise BackupError("mirror already initialized")
        return self._transfer("initialize")

    def update(self) -> MirrorTransferResult:
        """Ship the changes since the previous transfer."""
        if self.baseline is None:
            raise BackupError("mirror not initialized")
        return self._transfer("update")

    def _transfer(self, kind: str) -> MirrorTransferResult:
        """Dump a fresh snapshot (incremental against the baseline, if
        any) to a one-cartridge link and restore it onto the replica.
        The new snapshot becomes the next transfer's base; the old one
        is retired on the source."""
        name = self._next_snapshot()
        link = TapeDrive(TapeStacker.with_blank_tapes(1, name="mirror-link"))
        dump = ImageDump(self.source, link, snapshot_name=name,
                         base_snapshot=self.baseline, costs=self.costs)
        dump_result = drain_engine(dump.run())
        link.rewind()
        drain_engine(ImageRestore(self.target, link, costs=self.costs).run())
        if self.baseline is not None:
            self.source.snapshot_delete(self.baseline)
        self.baseline = name
        result = MirrorTransferResult(kind, dump_result.blocks,
                                      link.bytes_written, name)
        self.transfers.append(result)
        return result

    def read_replica(self):
        """Mount the replica read-only (for verification / serving).

        Mutating the returned file system (anything that takes a
        consistency point) breaks the mirror relationship, and the next
        ``update()`` will refuse with :class:`IncrementalError`.
        """
        from repro.wafl.filesystem import WaflFilesystem

        return WaflFilesystem.mount(self.target)


__all__ = ["MirrorRelationship", "MirrorTransferResult"]
