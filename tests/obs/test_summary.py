"""Per-phase summaries: stage accounting and the Table 3 CPU story."""

from __future__ import annotations

import pytest

from repro.backup import DumpDates, ImageDump, LogicalDump
from repro.obs import Tracer, read_jsonl, set_tracer
from repro.obs.summary import format_phase_summary, phase_rows
from repro.perf.executor import TimedRun

from tests.conftest import make_drive, make_fs, populate_small_tree
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
    assert [(job, s.name, s.elapsed, s.cpu_seconds) for job, s in rows] == [
        ("j1", "walk", 4.0, 2.0), ("j1", "write", 6.0, 1.5)]
    assert rows[0][1].cpu_utilization() == pytest.approx(0.5)
    assert rows[1][1].disk_bytes == 0 and rows[1][1].tape_bytes == 900


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
    elapsed = {event["tid"]: event["dur"] for event in real_events
               if event.get("cat") == "job"}
    assert set(elapsed) == {"logical-dump", "logical-restore", "image-dump"}
    for job, job_dur in elapsed.items():
        stage_sum = sum(stage.elapsed for name, stage
                        in phase_rows(real_events) if name == job)
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
    for job, stage in phase_rows(real_events):
        if stage.name in fixed:
            continue
        cpu[job] = cpu.get(job, 0.0) + stage.cpu_seconds
        tape[job] = tape.get(job, 0) + stage.tape_bytes
    logical = cpu["logical-dump"] / tape["logical-dump"]
    image = cpu["image-dump"] / tape["image-dump"]
    assert logical > 2.0 * image
    # The logical dump's file-grain stages are the CPU-heavy ones.
    logical_stages = {stage.name for job, stage in phase_rows(real_events)
                      if job == "logical-dump"}
    assert "Dumping files" in logical_stages
    assert "Creating snapshot" in logical_stages


def test_real_summary_table_is_deterministic(real_events):
    text = format_phase_summary(phase_rows(real_events))
    assert text == format_phase_summary(phase_rows(real_events))
    assert text == _span_table(real_events)
    assert "Dumping files" in text
    assert "Dumping blocks" in text


# ---------------------------------------------------------------------------
# One stage record: the summary reads back what the executor measured
# ---------------------------------------------------------------------------


def _span_table(events):
    """The phase table computed straight from the span fields (``dur``
    and ``args``): the reference the StageStats read-back must print
    byte for byte."""
    spans = [event for event in events
             if event.get("ph") == "X" and event.get("cat") == "stage"]
    header = "%-14s %-28s %12s %10s %6s %14s %14s" % (
        "job", "phase", "elapsed(s)", "cpu(s)", "cpu%", "disk-bytes",
        "tape-bytes")
    line = "%-14s %-28s %12.2f %10.2f %5.1f%% %14d %14d"
    lines = [header, "-" * len(header)]
    for event in spans:
        args, dur = event["args"], event["dur"]
        share = args["cpu_seconds"] / dur if dur else 0.0
        lines.append(line % (event["tid"], event["name"], dur,
                             args["cpu_seconds"], 100.0 * share,
                             args["disk_bytes"], args["tape_bytes"]))
    if spans:
        elapsed = sum(event["dur"] for event in spans)
        cpu = sum(event["args"]["cpu_seconds"] for event in spans)
        lines.append("-" * len(header))
        lines.append(line % (
            "", "total", elapsed, cpu,
            100.0 * cpu / elapsed if elapsed else 0.0,
            sum(event["args"]["disk_bytes"] for event in spans),
            sum(event["args"]["tape_bytes"] for event in spans)))
    return "\n".join(lines)


def test_summary_rows_are_the_job_stages(tmp_path):
    """``trace summary``'s rows, read from a saved trace, equal the
    ``JobResult.stages`` the executor measured, and its table equals the
    one computed from the raw span fields."""
    fs = make_fs(name="src")
    populate_small_tree(fs)
    tracer = Tracer()
    set_tracer(tracer)
    try:
        run = TimedRun()
        run.add_job("logical-dump", LogicalDump(
            fs, make_drive(name="ltape"), dumpdates=DumpDates()).run())
        run.add_job("image-dump", ImageDump(fs, make_drive(name="itape")).run())
        results = run.run()
    finally:
        set_tracer(None)
    path = str(tmp_path / "trace.jsonl")
    tracer.write_jsonl(path)
    events = read_jsonl(path)

    def record(stage):
        return (stage.name, stage.start, stage.elapsed, stage.cpu_seconds,
                stage.disk_bytes, stage.tape_bytes)

    rows = phase_rows(events)
    for name, result in results.items():
        measured = [record(result.stages[stage]) for stage
                    in result.stage_order
                    if result.stages[stage].start is not None]
        assert [record(stage) for job, stage in rows if job == name] \
            == measured
    assert {job for job, _stage in rows} == set(results)
    assert format_phase_summary(rows) == _span_table(events)
