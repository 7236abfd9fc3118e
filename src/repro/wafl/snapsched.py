"""Scheduled snapshots with rotation.

The paper: "Snapshots can be taken manually, and are also taken on a
schedule selected by the file system administrator; a common schedule is
hourly snapshots taken every 4 hours throughout the day and kept for 24
hours plus daily snapshots taken every night at midnight and kept for 2
days.  With such a frequent snapshot schedule, snapshots provide much more
protection from accidental deletion than is provided by daily incremental
backups."

:class:`SnapshotSchedule` implements exactly that: named rotation classes
(``hourly.0`` is always the newest; older ones shift up), driven by a
clock the caller advances (the simulation's or a test's).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import SnapshotError
from repro.units import HOUR


class RotationClass:
    """One rotation tier: a name prefix, an interval, and a keep count."""

    def __init__(self, prefix: str, interval: float, keep: int):
        if keep < 1:
            raise SnapshotError("rotation must keep at least one snapshot")
        if interval <= 0:
            raise SnapshotError("rotation interval must be positive")
        self.prefix = prefix
        self.interval = interval
        self.keep = keep
        self.last_taken: Optional[float] = None

    def due(self, now: float) -> bool:
        return self.last_taken is None or now - self.last_taken >= self.interval


class SnapshotSchedule:
    """Rotating scheduled snapshots over one file system.

    Call :meth:`tick` with the current time; due classes rotate:
    ``prefix.(keep-1)`` is deleted, every ``prefix.N`` becomes
    ``prefix.N+1``, and a fresh ``prefix.0`` is created.
    """

    @classmethod
    def common(cls, fs) -> "SnapshotSchedule":
        """The paper's "common schedule": 4-hourly kept 24 h (6 copies),
        nightly kept 2 days."""
        schedule = cls(fs)
        schedule.add_class("hourly", interval=4 * HOUR, keep=6)
        schedule.add_class("nightly", interval=24 * HOUR, keep=2)
        return schedule

    def __init__(self, fs):
        self.fs = fs
        self.classes: List[RotationClass] = []

    def add_class(self, prefix: str, interval: float, keep: int) -> RotationClass:
        for existing in self.classes:
            if existing.prefix == prefix:
                raise SnapshotError("rotation class %r already exists" % prefix)
        rotation = RotationClass(prefix, interval, keep)
        self.classes.append(rotation)
        return rotation

    def _names(self, rotation: RotationClass) -> Dict[int, str]:
        """Existing snapshot names of a class, keyed by rotation index."""
        found = {}
        prefix = rotation.prefix + "."
        for record in self.fs.snapshots():
            if record.name.startswith(prefix):
                suffix = record.name[len(prefix):]
                if suffix.isdigit():
                    found[int(suffix)] = record.name
        return found

    def tick(self, now: float) -> List[str]:
        """Take every due snapshot; returns the names created."""
        created = []
        for rotation in self.classes:
            if not rotation.due(now):
                continue
            existing = self._names(rotation)
            # Drop the oldest if it would exceed the keep count.
            for index in sorted(existing, reverse=True):
                if index >= rotation.keep - 1:
                    self.fs.snapshot_delete(existing[index])
                    del existing[index]
            # Shift the survivors up, oldest first.
            for index in sorted(existing, reverse=True):
                old_name = existing[index]
                record = self.fs.fsinfo.find_snapshot(old_name)
                record.name = "%s.%d" % (rotation.prefix, index + 1)
            name = "%s.0" % rotation.prefix
            self.fs.snapshot_create(name)
            rotation.last_taken = now
            created.append(name)
        if created:
            self.fs.consistency_point()
        return created


__all__ = ["RotationClass", "SnapshotSchedule"]
