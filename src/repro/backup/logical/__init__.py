"""Logical (file-based) backup: BSD-style dump and restore.

Kernel-integrated in the paper's system — no user/kernel copies, its own
read-ahead policy, restore creating file handles straight from inode
numbers — and modelled the same way here: dump reads whole physical
extents through the file system, restore creates files with correct
ownership/permissions at creation time (it "runs as root") and needs no
final permissions pass.
"""

from repro.backup.logical.dump import DumpResult, LogicalDump
from repro.backup.logical.dumpdates import DumpDates
from repro.backup.logical.inspect import compare_tape, estimate_dump, list_tape
from repro.backup.logical.interactive import InteractiveRestore
from repro.backup.logical.restore import LogicalRestore, RestoreResult, SymbolTable

__all__ = [
    "DumpDates",
    "DumpResult",
    "InteractiveRestore",
    "LogicalDump",
    "LogicalRestore",
    "RestoreResult",
    "SymbolTable",
    "compare_tape",
    "estimate_dump",
    "list_tape",
]
