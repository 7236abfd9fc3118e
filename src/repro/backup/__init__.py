"""Backup and restore engines — the paper's subject matter.

Two complete strategies over the same substrate:

* :mod:`repro.backup.logical` — BSD-style dump/restore through the file
  system: inode-ordered, archival format, incremental levels 0-9,
  single-file recovery, cross-geometry restore.
* :mod:`repro.backup.physical` — image dump/restore through the RAID
  layer: block-ordered, snapshot-bitmap driven, incremental by bit-plane
  difference, restores the volume byte-for-byte (snapshots included).

Plus :mod:`repro.backup.verify` (tree and volume comparison) and
:mod:`repro.backup.jobs` (qtree splits and the campaign's dump engine).
The multi-drive experiments run in :func:`repro.bench.harness.run_strategy`.
"""

from repro.backup.common import BackupResult, RecorderScope, drain_engine
from repro.backup.logical.dump import LogicalDump
from repro.backup.logical.dumpdates import DumpDates
from repro.backup.logical.inspect import compare_tape, estimate_dump, list_tape
from repro.backup.logical.restore import LogicalRestore, SymbolTable
from repro.backup.physical.dump import ImageDump
from repro.backup.physical.restore import ImageRestore
from repro.backup.verify import verify_trees, verify_volumes

__all__ = [
    "BackupResult",
    "DumpDates",
    "ImageDump",
    "ImageRestore",
    "LogicalDump",
    "LogicalRestore",
    "RecorderScope",
    "SymbolTable",
    "compare_tape",
    "drain_engine",
    "estimate_dump",
    "list_tape",
    "verify_trees",
    "verify_volumes",
]
