"""Performance layer: calibrated costs, op streams, and the timed executor.

Backup engines do their real data movement immediately and *yield* a
stream of :mod:`~repro.perf.ops` describing what they just did (which
physical blocks were read, how many tape bytes were produced, how much CPU
the meta-data work cost).  Correctness paths drain those streams and
ignore them; the performance harness replays them through a
discrete-event simulation of the paper's F630-class hardware
(:mod:`~repro.perf.executor`) to measure elapsed time, throughput, and
per-stage CPU utilization — the quantities in Tables 2-5.
"""

from repro.perf.costs import CostModel, HardwareProfile, f630_profile
from repro.perf.executor import JobResult, TimedRun
from repro.perf.ops import (
    CpuOp,
    DiskReadOp,
    DiskWriteOp,
    PhaseBegin,
    PhaseEnd,
    TapeReadOp,
    TapeWriteOp,
)

__all__ = [
    "CostModel",
    "CpuOp",
    "DiskReadOp",
    "DiskWriteOp",
    "HardwareProfile",
    "JobResult",
    "PhaseBegin",
    "PhaseEnd",
    "TapeReadOp",
    "TapeWriteOp",
    "TimedRun",
    "f630_profile",
]
