"""Run-ahead is exact: every op stream times the same with and without it.

Each generated stream is replayed twice — as is, and with
``Simulation.ahead`` patched to refuse, which is the event-by-event path
where every wait goes through the heap.  Every result field, every
resource's utilization steps, the op trace and the final clock must be
equal, not approximately equal.
"""

from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.obs.trace import Tracer
from repro.perf.costs import HardwareProfile
from repro.perf.executor import TimedRun
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
from repro.sim.core import Simulation

from tests.conftest import make_drive, make_volume

# Two RAID groups of 4 data disks, 10 000 data blocks each.
VOLUME = make_volume(ngroups=2, ndata=4, blocks_per_disk=2500)
DRIVES = [make_drive(name="t%d" % index, tapes=1) for index in range(4)]

# Few distinct durations, so that waits of different jobs tie often.
_seconds = st.sampled_from([0.0, 0.001, 0.25, 0.5])
_block = st.one_of(st.integers(0, 19000), st.sampled_from([9996, 9999]))

_step = st.one_of(
    st.tuples(st.just("cpu"), _seconds, st.sampled_from(["disk", "tape"])),
    st.tuples(st.just("sleep"), _seconds),
    st.tuples(st.just("read"), _block, st.integers(1, 16), st.booleans()),
    st.tuples(st.just("barrier"), st.integers(0, 6)),
    st.tuples(st.just("write"), _block, st.integers(1, 16)),
    st.tuples(st.just("tape"), st.sampled_from([512, 4096, 61440, 204800]),
              st.sampled_from([0, 0, 0, 1])),
)

_job = st.fixed_dictionaries({
    "restore": st.booleans(),
    "drive": st.integers(0, 3),     # equal indices share a drive
    "start_at": st.sampled_from([0.0, 0.0, 0.25, 1.0]),
    "stages": st.lists(st.lists(_step, max_size=8), min_size=1, max_size=3),
})

_profile = st.fixed_dictionaries({
    "cpu_count": st.integers(1, 2),
    "dump_readahead": st.sampled_from([1, 2, 8]),
    "pipeline_buffer_blocks": st.sampled_from([4, 16, 2048]),
})


def _ops(spec):
    drive = DRIVES[spec["drive"]]
    tape_op = TapeReadOp if spec["restore"] else TapeWriteOp
    ops = [tape_op(drive, 4096, 0, stage="s0")] if spec["restore"] else []
    for index, steps in enumerate(spec["stages"]):
        stage = "s%d" % index
        ops.append(PhaseBegin(stage))
        for step in steps:
            kind = step[0]
            if kind == "cpu":
                ops.append(CpuOp(step[1], stage=stage, side=step[2]))
            elif kind == "sleep":
                ops.append(SleepOp(step[1], stage=stage))
            elif kind == "read":
                ops.append(DiskReadOp(VOLUME, step[1], step[2], stage=stage,
                                      prefetch=step[3]))
            elif kind == "barrier":
                ops.append(ReadBarrier(step[1], stage=stage))
            elif kind == "write":
                ops.append(DiskWriteOp(VOLUME, step[1], step[2], stage=stage))
            else:
                ops.append(tape_op(drive, step[1], step[2], stage=stage))
        ops.append(PhaseEnd(stage))
    return ops


def _fields(obj):
    return {key: value for key, value in vars(obj).items()
            if key not in ("stages", "data")}


def _replay(jobs, profile):
    tracer = Tracer()
    run = TimedRun(HardwareProfile(**profile), tracer=tracer)
    for index, spec in enumerate(jobs):
        run.add_ops("job%d" % index, _ops(spec), start_at=spec["start_at"])
    results = run.run()
    observed = {
        name: (_fields(result),
               [_fields(result.stages[stage]) for stage in result.stage_order])
        for name, result in results.items()
    }
    resources = [run.cpu, *run._disk_resources.values(),
                 *run._tape_resources.values()]
    steps = [(r.name, r.utilization._times, r.utilization._levels)
             for r in resources]
    # Op, stage and job spans in emission order; the sim instant carries
    # the event count, which is what run-ahead changes.
    spans = [event for event in tracer.take_events() if event["cat"] != "sim"]
    return observed, steps, spans, run.sim.now, run.sim.events_scheduled


def _dump(*steps):
    return {"restore": False, "drive": 0, "start_at": 0.0,
            "stages": [list(steps)]}


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_job, min_size=1, max_size=4), _profile)
# A finished prefetch read joined at the instant another job's sleep ends:
# the other job runs first, so the join must not skip ahead of it.
@example([_dump(("read", 0, 1, True), ("sleep", 0.5), ("barrier", 1)),
          _dump(("sleep", 0.5))],
         {"cpu_count": 1, "dump_readahead": 8, "pipeline_buffer_blocks": 16})
def test_run_ahead_matches_the_event_by_event_path(jobs, profile):
    fast = _replay(jobs, profile)
    with mock.patch.object(Simulation, "ahead", lambda self, delay: False):
        slow = _replay(jobs, profile)
    assert fast[:4] == slow[:4]
    assert fast[4] <= slow[4]
