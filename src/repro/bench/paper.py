"""The paper's published numbers, for side-by-side comparison.

All values are read directly from the OSDI '99 text.  Where Table 2's
throughput cells did not survive the source scan, the values are derived
from the stage timings in Table 3 over the 188 GB ``home`` volume (noted
below).  Times are seconds, rates MB/s, utilizations fractions.
"""

from __future__ import annotations

from repro.units import GB, HOUR, MINUTE

HOME_BYTES = 188 * GB
RLSE_BYTES = 129 * GB

# -- Table 2: basic backup and restore to one DLT-7000 ----------------------
# Elapsed hours derived from Table 3 stage sums; MB/s and GB/h follow.
TABLE2 = {
    "Logical Backup": {"hours": 7.43, "mb_s": 7.03, "gb_h": 25.3},
    "Logical Restore": {"hours": 8.00, "mb_s": 6.53, "gb_h": 23.5},
    "Physical Backup": {"hours": 6.22, "mb_s": 8.41, "gb_h": 30.2},
    "Physical Restore": {"hours": 5.90, "mb_s": 8.85, "gb_h": 31.9},
}

# -- Table 3: per-stage details on one drive -------------------------------------
TABLE3 = {
    "Logical Dump": [
        ("Creating snapshot", 30.0, 0.50),
        ("Mapping files and directories", 20 * MINUTE, 0.30),
        ("Dumping directories", 20 * MINUTE, 0.20),
        ("Dumping files", 6.75 * HOUR, 0.25),
        ("Deleting snapshot", 35.0, 0.50),
    ],
    "Logical Restore": [
        ("Creating files", 2 * HOUR, 0.30),
        ("Filling in data", 6 * HOUR, 0.40),
    ],
    "Physical Dump": [
        ("Creating snapshot", 30.0, 0.50),
        ("Dumping blocks", 6.2 * HOUR, 0.05),
        ("Deleting snapshot", 35.0, 0.50),
    ],
    "Physical Restore": [
        ("Restoring blocks", 5.9 * HOUR, 0.11),
    ],
}

# -- Tables 4 and 5: parallel runs --------------------------------------------------
# Each stage row: (elapsed seconds, cpu utilization, disk MB/s, tape MB/s);
# device rates the paper left blank are None.
TABLE4 = {  # 2 tape drives
    "Logical Backup": [
        ("Mapping", 15 * MINUTE, 0.50, None, None),
        ("Directories", 15 * MINUTE, 0.40, None, None),
        ("Files", 4 * HOUR, 0.50, None, None),
    ],
    "Logical Restore": [
        ("Creating files", 1.25 * HOUR, 0.53, None, None),
        ("Filling in data", 3.5 * HOUR, 0.75, None, None),
    ],
    "Physical Backup": [("Dumping blocks", 3.25 * HOUR, 0.12, None, None)],
    "Physical Restore": [("Restoring blocks", 3.1 * HOUR, 0.21, None, None)],
}

TABLE5 = {  # 4 tape drives
    "Logical Backup": [
        ("Mapping", 5 * MINUTE, 0.90, None, None),
        ("Directories", 7 * MINUTE, 0.90, None, None),
        ("Files", 2.5 * HOUR, 0.90, None, None),
    ],
    "Logical Restore": [
        ("Creating files", 0.75 * HOUR, 0.53, None, None),
        ("Filling in data", 3.25 * HOUR, 1.00, None, None),
    ],
    "Physical Backup": [("Dumping blocks", 1.7 * HOUR, 0.30, None, None)],
    "Physical Restore": [("Restoring blocks", 1.63 * HOUR, 0.41, None, None)],
}

# -- Section 5.2 summary -----------------------------------------------------------------
SUMMARY_4_DRIVES = {
    "logical_gb_h": 69.6,
    "logical_gb_h_per_tape": 17.4,
    "logical_hours": 2.7,
    "physical_gb_h": 110.0,
    "physical_gb_h_per_tape": 27.6,
    "physical_hours": 1.7,
}

# Headline claims the reproduction must preserve (the "shape").
CLAIMS = {
    # Table 2: physical dump ≈ 20 % higher throughput than logical.
    "backup_throughput_ratio": 1.20,
    # Table 2: "the significant difference in the restore performance".
    "restore_throughput_ratio": (TABLE2["Physical Restore"]["mb_s"]
                                 / TABLE2["Logical Restore"]["mb_s"]),
    # Table 3: logical dump uses ~5x the CPU of physical dump.
    "dump_cpu_ratio": 5.0,
    # Table 3: logical restore uses >3x the CPU of physical restore.
    "restore_cpu_ratio": 3.0,
}

__all__ = [
    "CLAIMS",
    "HOME_BYTES",
    "RLSE_BYTES",
    "SUMMARY_4_DRIVES",
    "TABLE2",
    "TABLE3",
    "TABLE4",
    "TABLE5",
]
