"""Timed executor tests: pipelines, contention, stage accounting."""

import pytest

from repro.backup.logical.dump import LogicalDump
from repro.backup.logical.dumpdates import DumpDates
from repro.obs.trace import Tracer, set_tracer
from repro.perf import TimedRun
from repro.perf.executor import JobResult
from repro.perf.ops import (
    CpuOp,
    DiskReadOp,
    DiskWriteOp,
    PhaseBegin,
    PhaseEnd,
    ReadBarrier,
    SleepOp,
    TapeReadOp,
    TapeWriteOp,
)

from repro.units import MB
from repro.workload import WorkloadGenerator

from tests.conftest import make_drive, make_fs, make_volume


def dump_ops(volume, drive, chunks=50, blocks=256, stage="x"):
    ops = [PhaseBegin(stage)]
    for index in range(chunks):
        ops.append(DiskReadOp(volume, index * blocks, blocks, stage=stage))
        ops.append(TapeWriteOp(drive, blocks * 4096, 0, stage=stage))
    ops.append(PhaseEnd(stage))
    return ops


def test_dump_pipeline_is_tape_bound():
    volume = make_volume()
    drive = make_drive()
    run = TimedRun()
    run.add_ops("job", dump_ops(volume, drive))
    result = run.run()["job"]
    total = 50 * 256 * 4096
    tape_seconds = total / run.profile.tape_rate
    # Disk (sequential ~60 MB/s) overlaps tape (~9.3 MB/s): elapsed ≈ tape.
    assert result.elapsed == pytest.approx(tape_seconds, rel=0.15)


def test_cpu_bound_pipeline():
    volume = make_volume()
    drive = make_drive()
    ops = [PhaseBegin("x")]
    for index in range(20):
        ops.append(DiskReadOp(volume, index * 256, 256, stage="x"))
        ops.append(CpuOp(1.0, stage="x", side="disk"))
        ops.append(TapeWriteOp(drive, 256 * 4096, 0, stage="x"))
    ops.append(PhaseEnd("x"))
    run = TimedRun()
    run.add_ops("job", ops)
    result = run.run()["job"]
    assert result.elapsed >= 20.0  # gated by 20 s of CPU
    stage = result.stages["x"]
    assert stage.cpu_utilization() > 0.8


def test_concurrent_jobs_share_cpu():
    run = TimedRun()
    ops_a = [CpuOp(5.0, stage="a")]
    ops_b = [CpuOp(5.0, stage="b")]
    run.add_ops("a", ops_a)
    run.add_ops("b", ops_b)
    results = run.run()
    end = max(results["a"].end, results["b"].end)
    assert end == pytest.approx(10.0)  # one CPU serializes them


def test_jobs_on_separate_tapes_overlap():
    volume = make_volume()
    run = TimedRun()
    run.add_ops("a", dump_ops(volume, make_drive("t1"), chunks=20))
    run.add_ops("b", dump_ops(volume, make_drive("t2"), chunks=20))
    results = run.run()
    total = 20 * 256 * 4096
    tape_seconds = total / run.profile.tape_rate
    end = max(results["a"].end, results["b"].end)
    # Far less than strictly serial (disk is shared but fast).
    assert end < 2 * tape_seconds * 0.8


def test_restore_direction_sinks_to_disk():
    volume = make_volume()
    drive = make_drive()
    drive.write(b"x" * (20 * 256 * 4096 + 1024))
    drive.rewind()
    ops = [PhaseBegin("r")]
    for index in range(20):
        ops.append(TapeReadOp(drive, 256 * 4096, 0, stage="r"))
        ops.append(DiskWriteOp(volume, index * 256, 256, stage="r"))
    ops.append(PhaseEnd("r"))
    run = TimedRun()
    run.add_ops("restore", ops)
    result = run.run()["restore"]
    total = 20 * 256 * 4096
    tape_seconds = total / run.profile.tape_rate
    assert result.elapsed == pytest.approx(tape_seconds, rel=0.2)
    assert result.disk_bytes == total
    assert result.tape_bytes == total


def test_prefetch_overlaps_reads():
    volume = make_volume(ngroups=3, ndata=10, blocks_per_disk=4000)
    # Scattered single-extent reads across 3 groups, prefetched.
    serial = TimedRun()
    ops = []
    for index in range(90):
        block = (index % 3) * 10000 + (index * 517) % 9000
        ops.append(DiskReadOp(volume, block, 8, stage="x"))
    serial.add_ops("serial", list(ops))
    serial_elapsed = serial.run()["serial"].elapsed

    prefetched = TimedRun()
    pops = []
    for index, op in enumerate(ops):
        pops.append(DiskReadOp(op.volume, op.start_block, op.nblocks,
                               stage="x", prefetch=True))
    pops.append(ReadBarrier(len(pops), stage="x"))
    prefetched.add_ops("prefetch", pops)
    prefetch_elapsed = prefetched.run()["prefetch"].elapsed
    assert prefetch_elapsed < serial_elapsed * 0.7


def test_read_barrier_orders_completion():
    volume = make_volume()
    run = TimedRun()
    ops = [
        DiskReadOp(volume, 0, 1, stage="x", prefetch=True),
        ReadBarrier(1, stage="x"),
        CpuOp(0.001, stage="x"),
    ]
    run.add_ops("job", ops)
    result = run.run()["job"]
    assert result.elapsed > 0


def test_finished_prefetch_join_yields_to_events_at_the_same_instant():
    """Job a joins a read that finished long ago at t=0.5, the instant job
    b's sleep ends; b's sleep was queued first, so b runs first."""
    volume = make_volume()
    tracer = Tracer()
    set_tracer(tracer)  # a run takes the tracer installed when it is built
    try:
        run = TimedRun()
    finally:
        set_tracer(None)
    run.add_ops("a", [DiskReadOp(volume, 0, 1, stage="x", prefetch=True),
                      SleepOp(0.5, stage="x"), ReadBarrier(1, stage="x"),
                      PhaseEnd("x")])
    run.add_ops("b", [SleepOp(0.5, stage="y"), PhaseEnd("y")])
    run.run()
    ends = [event["tid"] for event in
            sorted(tracer.take_events(), key=lambda event: event["seq"])
            if event["name"] == "PhaseEnd"]
    assert ends == ["b", "a"]


def test_stage_accounting():
    volume = make_volume()
    drive = make_drive()
    ops = [PhaseBegin("one")]
    ops.append(CpuOp(2.0, stage="one"))
    ops.append(PhaseEnd("one"))
    ops.append(PhaseBegin("two"))
    ops.append(SleepOp(3.0, stage="two"))
    ops.append(PhaseEnd("two"))
    run = TimedRun()
    run.add_ops("job", ops)
    result = run.run()["job"]
    assert result.stages["one"].elapsed == pytest.approx(2.0)
    assert result.stages["one"].cpu_utilization() == pytest.approx(1.0)
    assert result.stages["two"].elapsed == pytest.approx(3.0)
    assert result.stages["two"].cpu_utilization() == 0.0


def _stage_fields(stage):
    return (stage.name, stage.start, stage.end, stage.cpu_seconds,
            stage.disk_bytes, stage.tape_bytes)


def test_merged_one_job_is_that_job():
    volume = make_volume()
    ops = dump_ops(volume, make_drive(), chunks=10)
    ops[1:1] = [CpuOp(0.3, stage="x")]
    ops += [PhaseBegin("y"), CpuOp(0.7, stage="y"), PhaseEnd("y")]
    run = TimedRun()
    run.add_ops("job", ops, start_at=0.25)
    job = run.run()["job"]
    merged = JobResult.merged([job])
    assert (merged.name, merged.start, merged.end, merged.elapsed) == (
        job.name, job.start, job.end, job.elapsed)
    assert (merged.cpu_seconds, merged.disk_bytes, merged.tape_bytes) == (
        job.cpu_seconds, job.disk_bytes, job.tape_bytes)
    assert merged.stage_order == job.stage_order == ["x", "y"]
    for name in job.stage_order:
        ours, theirs = merged.stages[name], job.stages[name]
        assert _stage_fields(ours) == _stage_fields(theirs)
        assert (ours.elapsed, ours.cpu_utilization(), ours.disk_rate,
                ours.tape_rate) == (theirs.elapsed, theirs.cpu_utilization(),
                                    theirs.disk_rate, theirs.tape_rate)


def test_merged_jobs_span_first_start_to_last_end():
    volume = make_volume()
    run = TimedRun()
    run.add_ops("a", dump_ops(volume, make_drive("t1"), chunks=20))
    run.add_ops("b", dump_ops(volume, make_drive("t2"), chunks=10),
                start_at=1.0)
    results = run.run()
    a, b = results["a"], results["b"]
    merged = JobResult.merged(results.values())
    assert merged.start == a.start == 0.0
    assert merged.end == max(a.end, b.end)
    assert merged.tape_bytes == a.tape_bytes + b.tape_bytes == 30 * 256 * 4096
    assert merged.disk_bytes == a.disk_bytes + b.disk_bytes
    stage = merged.stages["x"]
    assert stage.start == a.stages["x"].start
    assert stage.end == max(a.stages["x"].end, b.stages["x"].end)
    assert stage.tape_bytes == merged.tape_bytes


def test_merged_concurrent_dumps_overlap():
    fs_a = make_fs(name="a", blocks_per_disk=2000)
    fs_b = make_fs(name="b", blocks_per_disk=2000)
    WorkloadGenerator(seed=7).populate(fs_a, 4 * MB)
    WorkloadGenerator(seed=8).populate(fs_b, 4 * MB)
    run = TimedRun()
    run.add_job("home", LogicalDump(fs_a, make_drive("cv-a"),
                                    dumpdates=DumpDates()).run())
    run.add_job("rlse", LogicalDump(fs_b, make_drive("cv-b"),
                                    dumpdates=DumpDates()).run())
    results = run.run()
    merged = JobResult.merged(results.values())
    assert merged.tape_bytes > 8 * MB
    assert merged.elapsed > 0
    # Concurrent jobs overlap: wall-clock is far less than the sum.
    assert merged.elapsed < 0.8 * sum(r.elapsed for r in results.values())


def test_sleep_does_not_hold_cpu():
    run = TimedRun()
    run.add_ops("sleeper", [SleepOp(5.0, stage="s")])
    run.add_ops("worker", [CpuOp(1.0, stage="w")])
    results = run.run()
    assert results["worker"].end == pytest.approx(1.0)


def test_media_change_charged():
    volume = make_volume()
    drive = make_drive()
    run = TimedRun()
    run.add_ops("job", [TapeWriteOp(drive, 1024, 1, stage="x")])
    result = run.run()["job"]
    assert result.elapsed >= run.profile.tape_change_time


def test_start_at_offsets_job():
    run = TimedRun()
    run.add_ops("late", [CpuOp(1.0, stage="x")], start_at=5.0)
    result = run.run()["late"]
    assert result.start == pytest.approx(5.0)
    assert result.end == pytest.approx(6.0)


def test_disk_run_spanning_groups():
    volume = make_volume(ngroups=2, ndata=4, blocks_per_disk=100)
    run = TimedRun()
    # 400 is the group boundary; the run covers both groups.
    run.add_ops("job", [DiskReadOp(volume, 390, 20, stage="x")])
    result = run.run()["job"]
    assert result.disk_bytes == 20 * 4096
    assert len(run._disk_models) == 2


def test_narrow_reads_overlap_within_group():
    volume = make_volume(ngroups=1, ndata=10, blocks_per_disk=5000)
    run = TimedRun()
    # Two jobs issuing 1-block (narrow) reads at scattered addresses.
    ops_a = [DiskReadOp(volume, (i * 997) % 40000, 1, stage="x")
             for i in range(50)]
    ops_b = [DiskReadOp(volume, (i * 991 + 13) % 40000, 1, stage="x")
             for i in range(50)]
    run.add_ops("a", ops_a)
    run.add_ops("b", ops_b)
    results = run.run()
    end = max(results["a"].end, results["b"].end)
    solo = TimedRun()
    solo.add_ops("a", list(ops_a))
    solo_end = solo.run()["a"].end
    # Two narrow-read jobs nearly overlap (10 spindles available).
    assert end < solo_end * 1.5


def test_read_barrier_count_exceeds_issued_prefetches():
    volume = make_volume()
    run = TimedRun()
    ops = [
        DiskReadOp(volume, 0, 8, stage="x", prefetch=True),
        DiskReadOp(volume, 8, 8, stage="x", prefetch=True),
        # Engine over-counts: the barrier waits for what is in flight and
        # must not deadlock waiting for reads that were never issued.
        ReadBarrier(5, stage="x"),
        CpuOp(0.001, stage="x"),
    ]
    run.add_ops("job", ops)
    result = run.run()["job"]
    assert result.disk_bytes == 16 * 4096
    assert result.elapsed > 0


def test_sink_op_larger_than_pipeline_buffer():
    volume = make_volume()
    drive = make_drive()
    run = TimedRun()
    big = run._buffer_bytes * 2  # twice the whole pipeline buffer
    ops = [
        DiskReadOp(volume, 0, 16, stage="x"),
        TapeWriteOp(drive, big, 0, stage="x"),
        TapeWriteOp(drive, 1024, 0, stage="x"),
    ]
    run.add_ops("job", ops)
    result = run.run()["job"]
    # The oversized op occupies the buffer exclusively but still flows.
    assert result.tape_bytes == big + 1024
    assert result.elapsed >= big / run.profile.tape_rate
