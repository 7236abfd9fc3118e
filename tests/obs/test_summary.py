"""Per-phase summaries: stage accounting and the Table 3 CPU story."""

from __future__ import annotations

import pytest

from repro.obs.summary import (
    format_phase_summary,
    job_elapsed,
    phase_rows,
)

from tests.obs.test_golden_trace import traced_backup_run


def synthetic_events():
    return [
        {"ph": "X", "cat": "job", "name": "j1", "ts": 0.0, "dur": 10.0,
         "tid": "j1", "seq": 0},
        {"ph": "X", "cat": "stage", "name": "walk", "ts": 0.0, "dur": 4.0,
         "tid": "j1", "seq": 1,
         "args": {"cpu_seconds": 2.0, "disk_bytes": 100, "tape_bytes": 0}},
        {"ph": "X", "cat": "stage", "name": "write", "ts": 4.0, "dur": 6.0,
         "tid": "j1", "seq": 2,
         "args": {"cpu_seconds": 1.5, "disk_bytes": 0, "tape_bytes": 900}},
        {"ph": "X", "cat": "op", "name": "CpuOp", "ts": 0.0, "dur": 1.0,
         "tid": "j1", "seq": 3, "args": {"stage": "walk"}},
        {"ph": "i", "cat": "sim", "name": "sim.run_complete", "ts": 10.0,
         "tid": "sim", "seq": 4},
    ]


def test_phase_rows_pick_only_stage_spans():
    rows = phase_rows(synthetic_events())
    assert [(r.job, r.phase, r.elapsed, r.cpu_seconds) for r in rows] == [
        ("j1", "walk", 4.0, 2.0), ("j1", "write", 6.0, 1.5)]
    assert rows[0].cpu_share == pytest.approx(0.5)
    assert rows[1].disk_bytes == 0 and rows[1].tape_bytes == 900


def test_job_elapsed_reads_job_spans():
    assert job_elapsed(synthetic_events()) == {"j1": 10.0}


def test_format_phase_summary_renders_totals():
    text = format_phase_summary(phase_rows(synthetic_events()))
    lines = text.splitlines()
    assert "phase" in lines[0] and "cpu%" in lines[0]
    assert any("walk" in line for line in lines)
    total = lines[-1]
    assert "total" in total
    assert "10.00" in total  # 4 + 6 elapsed
    assert "3.50" in total   # 2.0 + 1.5 cpu-seconds
    assert format_phase_summary([]).count("\n") == 1  # header + rule only


# ---------------------------------------------------------------------------
# Against a real traced run
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def real_events():
    return traced_backup_run().events()


def test_stage_durations_cover_job_elapsed(real_events):
    """Per-job stage spans tile the job span: sums match the elapsed."""
    elapsed = job_elapsed(real_events)
    assert set(elapsed) == {"logical-dump", "logical-restore", "image-dump"}
    for job, job_dur in elapsed.items():
        stage_sum = sum(row.elapsed for row in phase_rows(real_events)
                        if row.job == job)
        assert stage_sum == pytest.approx(job_dur, rel=0.01), job


def test_cpu_attribution_reproduces_table3_ordering(real_events):
    """The paper's Table 3: logical dump burns far more CPU per byte.

    Both engines pay the same fixed snapshot create/delete stages, so the
    CPU-attribution story lives in the data-moving stages: CPU seconds
    per tape byte must be much higher for the file-grain logical dump
    than for the block-grain image dump.
    """
    fixed = {"Creating snapshot", "Deleting snapshot"}
    cpu = {}
    tape = {}
    for row in phase_rows(real_events):
        if row.phase in fixed:
            continue
        cpu[row.job] = cpu.get(row.job, 0.0) + row.cpu_seconds
        tape[row.job] = tape.get(row.job, 0) + row.tape_bytes
    logical = cpu["logical-dump"] / tape["logical-dump"]
    image = cpu["image-dump"] / tape["image-dump"]
    assert logical > 2.0 * image
    # The logical dump's file-grain stages are the CPU-heavy ones.
    logical_stages = {row.phase for row in phase_rows(real_events)
                      if row.job == "logical-dump"}
    assert "Dumping files" in logical_stages
    assert "Creating snapshot" in logical_stages


def test_real_summary_table_is_deterministic(real_events):
    text = format_phase_summary(phase_rows(real_events))
    assert text == format_phase_summary(phase_rows(real_events))
    assert "Dumping files" in text
    assert "Dumping blocks" in text
