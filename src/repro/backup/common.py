"""Shared machinery for backup/restore engines.

Engines are generators: they perform their real data movement inline and
yield :mod:`repro.perf.ops` describing it.  ``drain_engine`` runs one for
correctness only; :class:`repro.perf.executor.TimedRun` replays the same
stream against simulated hardware.

:class:`RecorderScope` bridges the data plane to the op stream: it
attaches an :class:`~repro.storage.device.IoRecorder` to a volume for the
duration of a data operation so the engine can convert exactly the block
accesses that happened into ``DiskReadOp``/``DiskWriteOp``.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.perf.ops import (
    CpuOp,
    DiskReadOp,
    DiskWriteOp,
    PerfOp,
    TapeReadOp,
    drain_engine,
)
from repro.storage.device import READ, IoRecorder

# Engines never read or write more than this many blocks per op, so the
# executor's pipeline buffer (and a real dump's memory budget) is bounded.
MAX_RUN_BLOCKS = 256


def tape_buffer(buffer):
    """``buffer`` from a dump's read (``RaidVolume.read_run`` with
    ``keep``) as its tape may hold it after the dump yields: a live view
    of a stripe store (an ``ndarray``) is copied to ``bytes``; a
    read-only view of a frozen chunk or of zeros, and ``bytes``, stay
    as they are."""
    return buffer.tobytes() if isinstance(buffer, np.ndarray) else buffer


class BackupResult:
    """Common result fields; engines subclass or fill directly."""

    def __init__(self):
        self.bytes_to_tape = 0
        self.bytes_from_tape = 0
        self.files = 0
        self.directories = 0
        self.blocks = 0
        self.errors: List[str] = []

    def __repr__(self) -> str:
        return "<%s files=%d dirs=%d blocks=%d tape=%d>" % (
            type(self).__name__,
            self.files,
            self.directories,
            self.blocks,
            self.bytes_to_tape or self.bytes_from_tape,
        )


class RecorderScope:
    """Attach a private recorder to a volume around data operations."""

    def __init__(self, volume):
        self.volume = volume
        self.recorder = IoRecorder()
        self._previous = None

    def __enter__(self) -> "RecorderScope":
        self._previous = self.volume.recorder
        self.volume.recorder = self.recorder
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.volume.recorder = self._previous

    def drain_ops(self, stage: str, split: int = MAX_RUN_BLOCKS) -> List[PerfOp]:
        """Convert recorded accesses into disk ops, splitting long runs."""
        ops: List[PerfOp] = []
        for kind, start, count in self.recorder.drain():
            offset = 0
            while offset < count:
                piece = min(split, count - offset)
                cls = DiskReadOp if kind == READ else DiskWriteOp
                ops.append(cls(self.volume, start + offset, piece, stage=stage))
                offset += piece
        return ops


class TapeReadMeter:
    """Charges a restore for what its drive read since the last look.

    The drive's counters are cumulative (it may have served earlier
    jobs), so the meter keeps marks and turns each delta into at most one
    ``TapeReadOp``.
    """

    def __init__(self, drive):
        self.drive = drive
        self._bytes = drive.bytes_read
        self._changes = drive.media_changes

    def ops(self, stage: str) -> List[TapeReadOp]:
        drive = self.drive
        delta = drive.bytes_read - self._bytes
        changes = drive.media_changes - self._changes
        self._bytes = drive.bytes_read
        self._changes = drive.media_changes
        if delta <= 0 and changes <= 0:
            return []
        return [TapeReadOp(drive, delta, changes, stage=stage)]


# drain_engine is re-exported from repro.perf.ops, its one implementation.

def chunked_cpu(total_seconds: float, stage: str, side: str = "disk",
                max_piece: float = 0.05) -> List[CpuOp]:
    """Split a large CPU charge into pieces so contention stays realistic."""
    ops: List[CpuOp] = []
    remaining = total_seconds
    while remaining > 0:
        piece = min(max_piece, remaining)
        ops.append(CpuOp(piece, stage=stage, side=side))
        remaining -= piece
    return ops


__all__ = [
    "BackupResult",
    "MAX_RUN_BLOCKS",
    "RecorderScope",
    "TapeReadMeter",
    "chunked_cpu",
    "drain_engine",
    "tape_buffer",
]
