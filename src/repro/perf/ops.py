"""The op vocabulary backup engines emit.

Each op describes work that already happened at the data level and now
needs to be *charged* at the timing level.  Ops carry physical addresses
(for the positional disk model) and a ``stage`` tag so the executor can
attribute time and CPU to the paper's per-stage rows (Table 3).

Disk-side ops (reads during dump, writes during restore) belong to the
producer half of the pipeline; tape-side ops to the consumer half.  The
executor links the halves through a bounded buffer so the slower side is
the measured bottleneck.
"""

from __future__ import annotations



class PerfOp:
    """Base class; ``stage`` is the engine's current phase name."""

    __slots__ = ("stage",)

    def __init__(self, stage: str = ""):
        self.stage = stage


class CpuOp(PerfOp):
    """Meta-data / copying work on the processor.

    ``side`` routes the charge: "disk" CPU work runs in the producer
    process (it delays reads), "tape" work in the consumer.
    """

    __slots__ = ("seconds", "side")

    def __init__(self, seconds: float, stage: str = "", side: str = "disk"):
        super().__init__(stage)
        self.seconds = seconds
        self.side = side

    def __repr__(self) -> str:
        return "<CpuOp %.6fs %s>" % (self.seconds, self.stage)


class DiskReadOp(PerfOp):
    """A physical run read from a volume: charged to that RAID group.

    ``prefetch=True`` marks a read issued by an engine's own read-ahead
    policy: the executor runs it asynchronously, and a later
    :class:`ReadBarrier` orders completion before the data is consumed.
    The engine alone decides how many are in flight.
    """

    __slots__ = ("volume", "start_block", "nblocks", "prefetch")

    def __init__(self, volume, start_block: int, nblocks: int, stage: str = "",
                 prefetch: bool = False):
        super().__init__(stage)
        self.volume = volume
        self.start_block = start_block
        self.nblocks = nblocks
        self.prefetch = prefetch

    def __repr__(self) -> str:
        return "<DiskReadOp %d+%d %s>" % (self.start_block, self.nblocks, self.stage)


class DiskWriteOp(PerfOp):
    """A physical run written to a volume."""

    __slots__ = ("volume", "start_block", "nblocks")

    def __init__(self, volume, start_block: int, nblocks: int, stage: str = ""):
        super().__init__(stage)
        self.volume = volume
        self.start_block = start_block
        self.nblocks = nblocks

    def __repr__(self) -> str:
        return "<DiskWriteOp %d+%d %s>" % (self.start_block, self.nblocks, self.stage)


class TapeWriteOp(PerfOp):
    """Bytes streamed to a tape drive (consumer side)."""

    __slots__ = ("drive", "nbytes", "media_changes")

    def __init__(self, drive, nbytes: int, media_changes: int = 0, stage: str = ""):
        super().__init__(stage)
        self.drive = drive
        self.nbytes = nbytes
        self.media_changes = media_changes

    def __repr__(self) -> str:
        return "<TapeWriteOp %d %s>" % (self.nbytes, self.stage)


class TapeReadOp(PerfOp):
    """Bytes streamed from a tape drive (producer side during restore)."""

    __slots__ = ("drive", "nbytes", "media_changes")

    def __init__(self, drive, nbytes: int, media_changes: int = 0, stage: str = ""):
        super().__init__(stage)
        self.drive = drive
        self.nbytes = nbytes
        self.media_changes = media_changes

    def __repr__(self) -> str:
        return "<TapeReadOp %d %s>" % (self.nbytes, self.stage)


class ReadBarrier(PerfOp):
    """Wait until the first ``count`` prefetch reads have completed.

    Emitted by an engine just before it consumes data that an earlier
    ``prefetch`` read fetched.
    """

    __slots__ = ("count",)

    def __init__(self, count: int, stage: str = ""):
        super().__init__(stage)
        self.count = count

    def __repr__(self) -> str:
        return "<ReadBarrier %d>" % self.count


class SleepOp(PerfOp):
    """Elapsed time with no resource held (device settle, snapshot wait)."""

    __slots__ = ("seconds",)

    def __init__(self, seconds: float, stage: str = ""):
        super().__init__(stage)
        self.seconds = seconds

    def __repr__(self) -> str:
        return "<SleepOp %.3fs %s>" % (self.seconds, self.stage)


class DutyCycleOp(PerfOp):
    """A fixed-length stage that keeps the CPU busy ``cpu_share`` of the
    time (snapshot creation and deletion, Table 3 rows).

    The executor replays it as short slices, each a CPU charge and then
    idle time, so one snapshot does not monopolize the CPU against
    concurrent jobs.  It is disk-side CPU work.
    """

    __slots__ = ("seconds", "cpu_share")

    def __init__(self, seconds: float, cpu_share: float, stage: str = ""):
        super().__init__(stage)
        self.seconds = seconds
        self.cpu_share = cpu_share

    def __repr__(self) -> str:
        return "<DutyCycleOp %.3fs x%.2f %s>" % (self.seconds, self.cpu_share,
                                                 self.stage)


class PhaseBegin(PerfOp):
    """Marks the start of a named stage (Table 3 rows)."""

    def __repr__(self) -> str:
        return "<PhaseBegin %s>" % self.stage


class PhaseEnd(PerfOp):
    """Marks the end of a named stage."""

    def __repr__(self) -> str:
        return "<PhaseEnd %s>" % self.stage


def drain_engine(engine):
    """Run an engine generator for its data effects; return its result.

    The one drain helper (``repro.backup.common`` re-exports it).  It lives
    here (not in ``repro.backup``) so that it imports without the backup
    package's engines.
    """
    while True:
        try:
            next(engine)
        except StopIteration as stop:
            return getattr(stop, "value", None)


__all__ = [
    "CpuOp",
    "DiskReadOp",
    "DiskWriteOp",
    "drain_engine",
    "DutyCycleOp",
    "PerfOp",
    "PhaseBegin",
    "PhaseEnd",
    "ReadBarrier",
    "SleepOp",
    "TapeReadOp",
    "TapeWriteOp",
]
