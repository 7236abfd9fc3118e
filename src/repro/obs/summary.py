"""Per-phase summary tables from a trace stream.

This reproduces the paper's CPU-attribution story (Table 3): for each
dump/restore phase — snapshot manipulation, the file-tree walk, block
reads, tape writes — how much simulated time elapsed and how much of it
was CPU.  The input is the ``cat == "stage"`` complete events the
executor emits, read back as the :class:`~repro.perf.executor.StageStats`
they were written from, so the same code summarizes a live run, a saved
JSONL trace, or a merged parallel stream.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.perf.executor import StageStats


def phase_rows(events: Iterable[dict]) -> List[Tuple[str, StageStats]]:
    """``(job, stage)`` for each stage span of a trace, in stream order."""
    return [(str(event.get("tid", "")), StageStats.from_span(event))
            for event in events
            if event.get("ph") == "X" and event.get("cat") == "stage"]


def _row(job: str, stage: StageStats) -> str:
    return "%-14s %-28s %12.2f %10.2f %5.1f%% %14d %14d" % (
        job, stage.name, stage.elapsed, stage.cpu_seconds,
        100.0 * stage.cpu_utilization(), stage.disk_bytes, stage.tape_bytes)


def format_phase_summary(rows: Iterable[Tuple[str, StageStats]]) -> str:
    """A fixed-width table: phase, elapsed, CPU seconds, CPU%, bytes."""
    rows = list(rows)
    header = "%-14s %-28s %12s %10s %6s %14s %14s" % (
        "job", "phase", "elapsed(s)", "cpu(s)", "cpu%", "disk-bytes",
        "tape-bytes")
    lines = [header, "-" * len(header)]
    lines.extend(_row(job, stage) for job, stage in rows)
    if rows:
        total = StageStats("total")
        total.touch(0.0)
        total.touch(sum(stage.elapsed for _job, stage in rows))
        for _job, stage in rows:
            total.cpu_seconds += stage.cpu_seconds
            total.disk_bytes += stage.disk_bytes
            total.tape_bytes += stage.tape_bytes
        lines.extend(["-" * len(header), _row("", total)])
    return "\n".join(lines)


__all__ = ["phase_rows", "format_phase_summary"]
