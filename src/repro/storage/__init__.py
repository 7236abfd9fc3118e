"""Simulated storage devices.

This package holds the device substrate: byte-addressable block stores
(:class:`~repro.storage.disk.StripeStore`, one per RAID group, and its
columns, :class:`~repro.storage.disk.VirtualDisk`), the positional disk timing
model used by the performance simulator, and the DLT-7000-style tape
subsystem (drives, cartridges, stackers) the paper's experiments stream to.

Data and timing are decoupled throughout: ``VirtualDisk`` and
``TapeCartridge`` hold real bytes and are used by correctness tests with no
clock at all, while ``DiskModel``/``TapeModel`` provide pure service-time
arithmetic consumed by :mod:`repro.perf`.
"""

from repro.storage.device import IoRecorder, coalesce_runs
from repro.storage.disk import DiskModel, VirtualDisk
from repro.storage.tape import TapeCartridge, TapeDrive, TapeModel, TapeStacker

__all__ = [
    "DiskModel",
    "IoRecorder",
    "TapeCartridge",
    "TapeDrive",
    "TapeModel",
    "TapeStacker",
    "VirtualDisk",
    "coalesce_runs",
]
