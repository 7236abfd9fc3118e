"""Image restore: rebuild a volume from an image stream.

Chunks are written back at their recorded physical addresses straight
through the RAID layer, from the tape's records in place (parity is
maintained underneath, NVRAM and the file system are bypassed), then the recorded root structure is installed
at its fixed location.  The target volume must match the image's geometry
— physical backup's fundamental portability limitation — and an
incremental image only applies on top of the base it was cut against.

After a restore, ``WaflFilesystem.mount(volume)`` brings the file system
up exactly as it was at the dumped snapshot (with every older snapshot
intact when the image was taken with ``include_snapshots``).
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.errors import FormatError, IncrementalError, ReproError
from repro.backup.common import BackupResult, TapeReadMeter
from repro.obs import observe_failure
from repro.backup.physical.image import (
    ImageHeader,
    read_chunks,
    read_image_header,
)
from repro.perf.costs import CostModel
from repro.perf.ops import CpuOp, DiskWriteOp, PhaseBegin, PhaseEnd
from repro.wafl.consts import FSINFO_BLOCKS, FSINFO_PRIMARY
from repro.wafl.fsinfo import FsInfo

STAGE_BLOCKS = "Restoring blocks"


class ImageRestoreResult(BackupResult):
    def __init__(self):
        super().__init__()
        self.cp_count = 0
        self.incremental = False
        self.drives_used = 0


class ImageRestore:
    """One image restore: one or more drives onto a raw volume."""

    def __init__(self, volume, drives, costs: Optional[CostModel] = None,
                 expect_fsinfo: bool = True):
        """``expect_fsinfo=False`` marks a *part* of a multi-drive set
        restored as its own concurrent job: only one part of the set
        carries the root structure, so its absence is not an error."""
        self.volume = volume
        self.drives = list(drives) if isinstance(drives, (list, tuple)) else [drives]
        self.costs = costs or CostModel()
        self.expect_fsinfo = expect_fsinfo

    def run(self) -> Iterator:
        """Generator of perf ops; returns an :class:`ImageRestoreResult`.

        Failures (truncated stream, geometry mismatch, CRC, ...) are
        recorded on the observability plane before propagating.
        """
        try:
            return (yield from self._run())
        except ReproError as error:
            observe_failure("image.restore", error)
            raise

    def _run(self) -> Iterator:
        result = ImageRestoreResult()
        result.drives_used = len(self.drives)
        initial_bytes_read = sum(drive.bytes_read for drive in self.drives)
        yield PhaseBegin(STAGE_BLOCKS)

        fsinfo_image: bytes = b""
        header0: Optional[ImageHeader] = None
        for drive in self.drives:
            meter = TapeReadMeter(drive)
            header = read_image_header(drive)
            header.check_geometry(self.volume)
            if header0 is None:
                header0 = header
            if header.fsinfo_image:
                fsinfo_image = header.fsinfo_image
            if header.incremental:
                result.incremental = True
                self._check_incremental_base(header)
            yield from meter.ops(STAGE_BLOCKS)

            for start, count, data, intact in read_chunks(
                    drive, self.volume.block_size):
                yield from meter.ops(STAGE_BLOCKS)
                if not intact:
                    raise FormatError(
                        "chunk crc mismatch at block %d" % start
                    )
                self.volume.write_run(start, data)
                yield DiskWriteOp(self.volume, start, count, stage=STAGE_BLOCKS)
                yield CpuOp(count * self.costs.image_restore_block,
                            stage=STAGE_BLOCKS, side="disk")
                result.blocks += count
            yield from meter.ops(STAGE_BLOCKS)

        # Install the root structure at its fixed, redundant location.
        if fsinfo_image:
            restored = FsInfo.unpack(fsinfo_image)
            restored.write_to(self.volume)
            result.cp_count = restored.cp_count
            yield DiskWriteOp(self.volume, FSINFO_PRIMARY, 2 * FSINFO_BLOCKS,
                              stage=STAGE_BLOCKS)
        elif (self.expect_fsinfo and header0 is not None
                and not header0.incremental):
            raise FormatError("image stream carries no root structure")
        yield PhaseEnd(STAGE_BLOCKS)
        result.bytes_from_tape = (
            sum(drive.bytes_read for drive in self.drives) - initial_bytes_read
        )
        return result

    def _check_incremental_base(self, header: ImageHeader) -> None:
        """An incremental only applies over its base: a root at the base's
        CP, or one holding it as a snapshot (a full taken with them)."""
        try:
            current = FsInfo.read_from(self.volume)
        except ReproError:
            raise IncrementalError(
                "incremental image restore requires the base image on the "
                "target volume (no readable root structure found)"
            )
        if current.cp_count == header.cp_count:
            # Another stream of the same multi-drive set already installed
            # this image's root structure; the part still applies.
            return
        if header.base_cp not in [current.cp_count] + [
                snap.cp_count for snap in current.snapshots]:
            raise IncrementalError(
                "incremental base mismatch: image was cut against cp %d "
                "but the volume is at cp %d" % (header.base_cp, current.cp_count)
            )


__all__ = ["ImageRestore", "ImageRestoreResult", "STAGE_BLOCKS"]
