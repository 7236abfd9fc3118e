"""Run-ahead and the snapshot stage op are exact.

Each generated stream is replayed as is and with ``Simulation.ahead``
patched to refuse, which is the event-by-event path where every wait
goes through the heap.  Each is also replayed with every
:class:`DutyCycleOp` expanded by :func:`_old_stage_pairs`, a copy of
the generator both dump engines emitted a snapshot stage with before
the executor replayed its slices itself.  Every result field, every
resource's final ``in_use``, the op trace and the final clock must be
equal, not approximately equal.
"""

from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.obs.trace import Tracer, set_tracer
from repro.perf.costs import HardwareProfile
from repro.perf.executor import TimedRun
from repro.perf.ops import (
    CpuOp,
    DiskReadOp,
    DiskWriteOp,
    DutyCycleOp,
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


def _old_stage_pairs(stage, seconds, cpu_share):
    """The CpuOp/SleepOp slices of a snapshot stage, as once emitted."""
    step = 0.5
    elapsed = 0.0
    while elapsed < seconds:
        piece = min(step, seconds - elapsed)
        yield CpuOp(piece * cpu_share, stage=stage, side="disk")
        yield SleepOp(piece * (1.0 - cpu_share), stage=stage)
        elapsed += piece


# Few distinct durations, so that waits of different jobs tie often.
_seconds = st.sampled_from([0.0, 0.001, 0.25, 0.5])
_block = st.one_of(st.integers(0, 19000), st.sampled_from([9996, 9999]))

_step = st.one_of(
    # Stage lengths on and off the 0.5 s slice grid.
    st.tuples(st.just("duty"), st.sampled_from([30.0, 35.0, 0.75, 0.2, 0.0]),
              st.sampled_from([0.0, 0.5, 1.0])),
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
    "pipeline_buffer_blocks": st.sampled_from([4, 16, 2048]),
})


def _ops(spec, expand=False):
    drive = DRIVES[spec["drive"]]
    tape_op = TapeReadOp if spec["restore"] else TapeWriteOp
    ops = [tape_op(drive, 4096, 0, stage="s0")] if spec["restore"] else []
    for index, steps in enumerate(spec["stages"]):
        stage = "s%d" % index
        ops.append(PhaseBegin(stage))
        for step in steps:
            kind = step[0]
            if kind == "duty":
                # Engines emit a stage op only in dumps, where the whole
                # stage runs in the producer as its pairs did.
                if spec["restore"]:
                    continue
                if expand:
                    ops.extend(_old_stage_pairs(stage, step[1], step[2]))
                else:
                    ops.append(DutyCycleOp(step[1], step[2], stage=stage))
            elif kind == "cpu":
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


def _replay(jobs, profile, expand=False):
    tracer = Tracer()
    set_tracer(tracer)  # a run takes the tracer installed when it is built
    try:
        run = TimedRun(HardwareProfile(**profile))
    finally:
        set_tracer(None)
    for index, spec in enumerate(jobs):
        run.add_ops("job%d" % index, _ops(spec, expand),
                    start_at=spec["start_at"])
    results = run.run()
    observed = {
        name: (_fields(result),
               [_fields(result.stages[stage]) for stage in result.stage_order])
        for name, result in results.items()
    }
    resources = [run.cpu, *run._disk_resources.values(),
                 *run._tape_resources.values()]
    in_use = [(r.name, r.in_use) for r in resources]
    # Op, stage and job spans in emission order, then the sim instant:
    # it carries the event count, which is what run-ahead changes.
    events = tracer.take_events()
    spans = [event for event in events if event["cat"] != "sim"]
    sim_events = [event for event in events if event["cat"] == "sim"]
    return (observed, in_use, spans, run.sim.now, run.sim.events_scheduled,
            sim_events)


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
         {"cpu_count": 1, "pipeline_buffer_blocks": 16})
def test_run_ahead_matches_the_event_by_event_path(jobs, profile):
    fast = _replay(jobs, profile)
    with mock.patch.object(Simulation, "ahead", lambda self, delay: False):
        slow = _replay(jobs, profile)
    assert fast[:4] == slow[:4]
    assert fast[4] <= slow[4]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_job, min_size=1, max_size=3), _profile)
# Two snapshot stages share one CPU, slice against slice.  The second
# stage's CPU seconds, added slice by slice after 0.001, come to
# 17.500999999999998; added as one sum they would be 17.501.
@example([_dump(("duty", 30.0, 0.5)),
          _dump(("cpu", 0.001, "disk"), ("duty", 35.0, 0.5))],
         {"cpu_count": 1, "pipeline_buffer_blocks": 16})
def test_a_stage_op_replays_as_its_old_slices(jobs, profile):
    assert _replay(jobs, profile) == _replay(jobs, profile, expand=True)
    with mock.patch.object(Simulation, "ahead", lambda self, delay: False):
        assert _replay(jobs, profile) == _replay(jobs, profile, expand=True)
