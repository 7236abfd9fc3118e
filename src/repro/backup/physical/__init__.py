"""Physical (block-based) backup: WAFL-style image dump/restore.

Image dump asks the file system for *block-map information only* and then
streams raw allocated blocks through the RAID layer in physical order —
bypassing the file system, its cache, and NVRAM.  Snapshot bit planes make
consistent images of a live system and **incremental** image dumps
(Table 1's ``B − A`` rule) possible.  Restore rebuilds the volume
byte-for-byte — same geometry required, snapshots included if requested.
"""

from repro.backup.physical.dump import ImageDump, ImageDumpResult
from repro.backup.physical.image import ImageHeader, read_image_header
from repro.backup.physical.incremental import (
    BLOCK_STATES,
    block_state,
    incremental_block_set,
)
from repro.backup.physical.restore import ImageRestore, ImageRestoreResult
from repro.backup.physical.verify import compare_image

__all__ = [
    "BLOCK_STATES",
    "ImageDump",
    "ImageDumpResult",
    "ImageHeader",
    "ImageRestore",
    "ImageRestoreResult",
    "block_state",
    "compare_image",
    "incremental_block_set",
    "read_image_header",
]
