"""Exception hierarchy shared across the library.

Every subsystem raises subclasses of :class:`ReproError`; callers that want
blanket handling catch the base class, while tests assert on the specific
subclass.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class StorageError(ReproError):
    """Device-level failure (bad block address, tape end, media fault)."""


class TapeError(StorageError):
    """Tape device misuse or media exhaustion."""


class RaidError(StorageError):
    """RAID configuration or reconstruction failure."""


class FilesystemError(ReproError):
    """WAFL-level failure."""


class NoSpaceError(FilesystemError):
    """The volume has no free blocks (ENOSPC)."""


class NotFoundError(FilesystemError):
    """Path or inode lookup failed (ENOENT)."""


class ExistsError(FilesystemError):
    """Path already exists (EEXIST)."""


class NotADirectoryError_(FilesystemError):
    """Path component is not a directory (ENOTDIR)."""


class IsADirectoryError_(FilesystemError):
    """File operation applied to a directory (EISDIR)."""


class NotEmptyError(FilesystemError):
    """Directory removal on a non-empty directory (ENOTEMPTY)."""


class SnapshotError(FilesystemError):
    """Snapshot creation/deletion/lookup failure."""


class BackupError(ReproError):
    """Backup/restore engine failure."""


class CatalogError(BackupError):
    """Backup catalog corruption, missing chain, or bad restore plan."""


class FormatError(BackupError):
    """Malformed or corrupted dump stream."""


class IncrementalError(BackupError):
    """Invalid incremental chain (bad base, missing level)."""


class GeometryError(BackupError):
    """Physical restore onto an incompatible volume geometry."""


class WorkloadError(ReproError):
    """Workload generator misconfiguration."""


class PowerLossError(StorageError):
    """A write was torn by simulated power loss (chaos write fuse)."""


class ChaosFault(ReproError):
    """An injected fault fired; carries the fault spec that caused it."""

    def __init__(self, message: str, fault=None):
        super().__init__(message)
        self.fault = fault


__all__ = [
    "BackupError",
    "CatalogError",
    "ChaosFault",
    "ExistsError",
    "FilesystemError",
    "FormatError",
    "GeometryError",
    "IncrementalError",
    "IsADirectoryError_",
    "NoSpaceError",
    "NotADirectoryError_",
    "NotEmptyError",
    "NotFoundError",
    "PowerLossError",
    "RaidError",
    "ReproError",
    "SnapshotError",
    "StorageError",
    "TapeError",
    "WorkloadError",
]
