"""Calibrated device and CPU cost constants.

The paper's testbed ("eliot", a NetApp F630) had one 500 MHz Alpha 21164A,
42 x 17 GB FC disks in 5 RAID-4 groups across two volumes, and up to four
DLT-7000 drives.  We cannot run that hardware, so the timing layer uses a
small set of constants calibrated against the paper's own published
numbers.  Derivations (for the 188 GB ``home`` volume = ~47.1 M 4 KB
blocks):

* Tape rate — physical dump is tape-bound at 6.2 h for 188 GB = 8.6 MB/s;
  restore ran 5.9 h = 9.05 MB/s.  We set the streaming rate to 9.3 MB/s
  with per-record gaps, landing effective throughput in that band.
* Logical dump CPU — "Dumping files 6.75 h @ 25% CPU": 6075 CPU-seconds
  over 188 GB = 33 ms per MB, i.e. ~0.126 ms per 4 KB block, split here
  into a per-file header/conversion charge and a per-block copy charge.
* Physical dump CPU — 6.2 h @ 5% = 1116 CPU-s = 5.9 ms/MB = ~0.023
  ms/block: the paper's "logical dump consumes 5 times the CPU".
* Logical restore CPU — "Creating files 2 h @ 30%" is namespace creation;
  "Filling in data 6 h @ 40%" = 8640 CPU-s = 45.9 ms/MB ≈ 0.179 ms/block
  (the file-system write path *plus NVRAM logging*; the NVRAM share is
  separated out so the paper's footnote-2 ablation can disable it).
* Physical restore CPU — 5.9 h @ 11% = 2336 CPU-s = 12.4 ms/MB ≈ 0.048
  ms/block (RAID parity updates included).
* Snapshot create/delete — 30 s / 35 s at 50% CPU (Table 3).

Every constant is an attribute so ablation benchmarks can sweep them.
"""

from __future__ import annotations

from repro.storage.disk import DiskModel
from repro.storage.tape import TapeModel
from repro.units import KB, MB


class CostModel:
    """Per-operation CPU costs, in seconds."""

    def __init__(self):
        # -- logical dump ---------------------------------------------------
        # Phase I/II: interpreting one inode while building the dump maps.
        self.map_inode = 0.00020
        # Phase III: converting one directory entry to the dump format.
        self.dump_dir_entry = 0.00002
        # Phase IV: building the 1 KB header for one file (meta-data
        # conversion into the canonical format).
        self.dump_file_header = 0.0012
        # Phase IV: moving one 4 KB block through the file system read
        # path into the dump stream (no user/kernel copies, per the paper,
        # but still format conversion + checksumming).
        self.dump_data_block = 0.000105

        # -- logical restore --------------------------------------------------
        # Creating one file or directory: CPU (namespace work, inode
        # init) plus the cold-metadata latency the paper's 2 h "Creating
        # files" stage spends waiting on disk.  At 1:1000 scale the whole
        # metadata working set fits in the buffer cache, so that wait is
        # charged explicitly instead of emerging from cache misses.
        self.restore_create_file = 0.0008
        self.restore_create_latency = 0.0030
        # Writing one 4 KB block through the file-system write path.
        self.restore_data_block = 0.000115
        # NVRAM logging surcharge per 4 KB block (footnote 2: logical
        # restore goes through NVRAM; disabling this is the ablation).
        self.restore_nvram_block = 0.000064
        # Reading/parsing one 1 KB header from the stream.
        self.restore_parse_header = 0.0004

        # -- physical (image) dump/restore ---------------------------------------
        # Moving one 4 KB block between RAID and tape, no interpretation.
        self.image_dump_block = 0.0000235
        # Writing one 4 KB block through RAID (parity update) on restore.
        self.image_restore_block = 0.0000485
        # Scanning the block-map bit planes, per 4 KB of map inspected.
        self.image_map_scan = 0.00001

        # -- snapshots ------------------------------------------------------------
        self.snapshot_create_seconds = 30.0
        self.snapshot_create_cpu = 0.5
        self.snapshot_delete_seconds = 35.0
        self.snapshot_delete_cpu = 0.5


class HardwareProfile:
    """Device parameters for the timing simulation."""

    def __init__(
        self,
        cpu_count: int = 1,
        per_disk_stream: float = 6.0 * MB,
        disk_seek: float = 0.0088,
        disk_half_rotation: float = 0.0030,
        disk_near_seek: float = 0.0025,
        tape_rate: float = 9.3 * MB,
        tape_record_size: int = 60 * KB,
        tape_record_gap: float = 0.00035,
        tape_change_time: float = 60.0,
        tape_restart_penalty: float = 0.12,
        tape_restart_idle: float = 0.004,
        pipeline_buffer_blocks: int = 2048,
    ):
        self.cpu_count = cpu_count
        self.per_disk_stream = per_disk_stream
        self.disk_seek = disk_seek
        self.disk_half_rotation = disk_half_rotation
        self.disk_near_seek = disk_near_seek
        self.tape_rate = tape_rate
        self.tape_record_size = tape_record_size
        self.tape_record_gap = tape_record_gap
        self.tape_change_time = tape_change_time
        self.tape_restart_penalty = tape_restart_penalty
        self.tape_restart_idle = tape_restart_idle
        self.pipeline_buffer_blocks = pipeline_buffer_blocks

    def disk_model_for_group(self, ndata_disks: int, block_size: int) -> DiskModel:
        return DiskModel(
            ndisks=ndata_disks,
            per_disk_stream=self.per_disk_stream,
            seek_time=self.disk_seek,
            half_rotation=self.disk_half_rotation,
            near_seek_time=self.disk_near_seek,
            block_size=block_size,
        )

    def tape_model(self) -> TapeModel:
        return TapeModel(
            rate=self.tape_rate,
            record_size=self.tape_record_size,
            record_gap=self.tape_record_gap,
            change_time=self.tape_change_time,
            restart_penalty=self.tape_restart_penalty,
            restart_idle=self.tape_restart_idle,
        )


def f630_profile() -> HardwareProfile:
    """The default profile calibrated to the paper's filer."""
    return HardwareProfile()


__all__ = ["CostModel", "HardwareProfile", "f630_profile"]
