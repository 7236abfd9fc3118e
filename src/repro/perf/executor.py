"""The timed executor: replay engine op streams on simulated hardware.

Each job (one dump or restore) becomes a *producer* process and one
*consumer* process per sink device, joined by bounded buffers:

* For a dump, the producer executes disk reads and CPU work in op order
  and enqueues tape writes; the consumer streams them to the drive.  The
  drive therefore stalls when the producer cannot feed it (fragmented
  reads, saturated CPU) — the mechanism behind the paper's logical-dump
  numbers — and the producer stalls when the buffer fills (tape-bound).
* For a restore the roles flip: the tape is the source, the disk-side
  work the sink.

All jobs in a :class:`TimedRun` share one CPU resource and per-RAID-group
disk channels, so concurrent jobs contend exactly where the real filer
contends.  Per-stage elapsed time, CPU-seconds, and device bytes are
recorded for the paper's Table 3-5 rows.  :class:`StageStats` is the one
record of simulated work: the kernel schedules and the device models
return service times, and neither keeps an account of its own.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, Iterator, List, Optional

from repro.errors import ReproError
from repro.obs.metrics import REGISTRY
from repro.obs.trace import get_tracer
from repro.perf.costs import HardwareProfile, f630_profile
from repro.perf.ops import (
    CpuOp,
    ReadBarrier,
    DiskReadOp,
    DiskWriteOp,
    DutyCycleOp,
    PerfOp,
    PhaseBegin,
    PhaseEnd,
    SleepOp,
    TapeReadOp,
    TapeWriteOp,
)
from repro.sim.core import Simulation
from repro.sim.resources import Resource, Store
from repro.units import mb_per_s

_SENTINEL = object()

# A DutyCycleOp replays as slices this long, each a CPU charge and then
# idle time, so concurrent jobs share the CPU slice by slice.
_DUTY_SLICE = 0.5


class StageStats:
    """Per-stage measurements for one job."""

    def __init__(self, name: str):
        self.name = name
        self.start: Optional[float] = None
        self.end: Optional[float] = None
        self.cpu_seconds = 0.0
        self.disk_bytes = 0
        self.tape_bytes = 0

    @property
    def elapsed(self) -> float:
        if self.start is None or self.end is None:
            return 0.0
        return max(0.0, self.end - self.start)

    def cpu_utilization(self) -> float:
        if self.elapsed <= 0:
            return 0.0
        return self.cpu_seconds / self.elapsed

    @property
    def disk_rate(self) -> float:
        return mb_per_s(self.disk_bytes, self.elapsed)

    @property
    def tape_rate(self) -> float:
        return mb_per_s(self.tape_bytes, self.elapsed)

    @classmethod
    def from_span(cls, event: dict) -> "StageStats":
        """The stage a ``cat == "stage"`` span of
        :meth:`TimedRun._observe_job` records."""
        stage = cls(event["name"])
        stage.start = event["ts"]
        stage.end = event["ts"] + event.get("dur", 0.0)
        args = event.get("args", {})
        stage.cpu_seconds = args.get("cpu_seconds", 0.0)
        stage.disk_bytes = args.get("disk_bytes", 0)
        stage.tape_bytes = args.get("tape_bytes", 0)
        return stage

    def touch(self, now: float) -> None:
        if self.start is None or now < self.start:
            self.start = now
        if self.end is None or now > self.end:
            self.end = now


class JobResult:
    """Outcome of one job in a timed run."""

    def __init__(self, name: str):
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.stages: Dict[str, StageStats] = {}
        self.stage_order: List[str] = []
        self.data = None  # the engine's own result object
        self.tape_bytes = 0
        self.disk_bytes = 0
        self.cpu_seconds = 0.0

    @property
    def elapsed(self) -> float:
        return self.end - self.start

    def stage(self, name: str) -> StageStats:
        if name not in self.stages:
            self.stages[name] = StageStats(name)
            self.stage_order.append(name)
        return self.stages[name]

    @classmethod
    def merged(cls, results: Iterable["JobResult"]) -> "JobResult":
        """One result for jobs that ran side by side (one per drive).

        It spans the first start to the last end; each stage spans the
        first start to the last end of that stage over the jobs, with CPU
        seconds and device bytes summed in the order given.  One job
        merges to its own figures.
        """
        results = list(results)
        merged = cls("+".join(result.name for result in results))
        merged.start = min(result.start for result in results)
        merged.end = max(result.end for result in results)
        for result in results:
            merged.cpu_seconds += result.cpu_seconds
            merged.disk_bytes += result.disk_bytes
            merged.tape_bytes += result.tape_bytes
            for name in result.stage_order:
                stage = result.stages[name]
                into = merged.stage(name)
                into.touch(stage.start)
                into.touch(stage.end)
                into.cpu_seconds += stage.cpu_seconds
                into.disk_bytes += stage.disk_bytes
                into.tape_bytes += stage.tape_bytes
        return merged


class _Job:
    def __init__(self, name: str, ops: List[PerfOp], data, start_at: float):
        self.name = name
        self.ops = ops
        self.data = data
        self.start_at = start_at
        self.result = JobResult(name)
        self.result.data = data
        # Sink classification: dumps sink to tape, restores sink to disk.
        self.is_restore = any(isinstance(op, TapeReadOp) for op in ops)

    def is_sink_op(self, op: PerfOp) -> bool:
        if self.is_restore:
            return isinstance(op, (DiskWriteOp, DiskReadOp, DutyCycleOp)) or (
                isinstance(op, CpuOp) and op.side == "disk"
            )
        return isinstance(op, TapeWriteOp)

    def sink_key(self, op: PerfOp):
        if self.is_restore:
            return "disk"
        return id(op.drive)


class TimedRun:
    """A set of concurrent jobs over one simulated machine."""

    def __init__(self, profile: Optional[HardwareProfile] = None):
        self.profile = profile or f630_profile()
        # Observability: the process-wide tracer/registry, both disabled
        # unless the caller (CLI --trace/--metrics, tests) turned them on.
        # Disabled costs one attribute check per record.
        self.tracer = get_tracer()
        self.metrics = REGISTRY
        self.sim = Simulation()
        self.cpu = Resource(self.sim, capacity=self.profile.cpu_count, name="cpu")
        self._disk_models = {}
        self._disk_resources = {}
        self._tape_models = {}
        self._tape_resources = {}
        self._jobs: List[_Job] = []
        self._buffer_bytes = self.profile.pipeline_buffer_blocks * 4096

    # -- device registry -------------------------------------------------------

    def _disk(self, volume, group_index: int):
        key = (id(volume), group_index)
        if key not in self._disk_models:
            group = volume.geometry.groups[group_index]
            self._disk_models[key] = self.profile.disk_model_for_group(
                group.ndata_disks, volume.block_size
            )
            # Capacity = spindles: narrow (sub-stripe) reads busy one
            # disk each and overlap; striped requests take the group.
            self._disk_resources[key] = Resource(
                self.sim, capacity=group.ndata_disks,
                name="disk:%s.g%d" % (volume.name, group_index),
            )
        return self._disk_models[key], self._disk_resources[key]

    def _tape(self, drive):
        key = id(drive)
        if key not in self._tape_models:
            self._tape_models[key] = self.profile.tape_model()
            self._tape_resources[key] = Resource(self.sim, name="tape:%s" % drive.name)
        return self._tape_models[key], self._tape_resources[key]

    # -- job intake ----------------------------------------------------------------

    def add_job(self, name: str, engine: Iterator, start_at: float = 0.0) -> JobResult:
        """Drive ``engine`` to completion now (real data moves), capturing
        its ops for timed replay."""
        ops: List[PerfOp] = []
        data = None
        while True:
            try:
                ops.append(next(engine))
            except StopIteration as stop:
                data = getattr(stop, "value", None)
                break
        job = _Job(name, ops, data, start_at)
        self._jobs.append(job)
        return job.result

    def add_ops(self, name: str, ops: List[PerfOp], data=None,
                start_at: float = 0.0) -> JobResult:
        """Add a pre-collected op list (used by tests)."""
        job = _Job(name, list(ops), data, start_at)
        self._jobs.append(job)
        return job.result

    # -- op execution -----------------------------------------------------------------

    def _record(self, job: _Job, op: PerfOp, start: float, end: float,
                cpu_seconds: float = 0.0, disk_bytes: int = 0,
                tape_bytes: int = 0, name: str = "") -> None:
        """Charge one op (or one slice of it, traced as ``name``)."""
        result = job.result
        if op.stage:
            stage = result.stage(op.stage)
            stage.touch(start)
            stage.touch(end)
            stage.cpu_seconds += cpu_seconds
            stage.disk_bytes += disk_bytes
            stage.tape_bytes += tape_bytes
        result.cpu_seconds += cpu_seconds
        result.disk_bytes += disk_bytes
        result.tape_bytes += tape_bytes
        tracer = self.tracer
        if tracer.enabled:
            tracer.complete(name or type(op).__name__, cat="op", ts=start,
                            dur=end - start, tid=job.name,
                            args={"stage": op.stage})

    def _in_place(self, job: _Job, op: PerfOp) -> bool:
        """Complete an op that needs no device model without a generator.

        Phase markers always complete here; CPU and sleep ops do when
        ``Simulation.ahead`` holds for them.  Returns False, having
        changed nothing, when the op must go through :meth:`_execute`.
        """
        sim = self.sim
        start = sim.now
        if isinstance(op, CpuOp):
            if not self.cpu.hold(op.seconds):
                return False
            self._record(job, op, start, sim.now, cpu_seconds=op.seconds)
        elif isinstance(op, SleepOp):
            if not sim.ahead(op.seconds):
                return False
            self._record(job, op, start, sim.now)
        elif isinstance(op, (PhaseBegin, PhaseEnd)):
            self._record(job, op, start, start)
        else:
            return False
        return True

    def _cpu_wait(self, seconds: float):
        """Hold one CPU for ``seconds`` through the grant queue: the wait
        of a CPU charge that ``Resource.hold`` could not complete."""
        request = self.cpu.acquire()
        if not request.processed:
            yield request
        try:
            if not self.sim.ahead(seconds):
                yield self.sim.timeout(seconds)
        finally:
            self.cpu.release(request)

    def _execute(self, job: _Job, op: PerfOp):
        # Every wait is skipped when the kernel completed it in place: a
        # processed grant/put/get, or a service time ``sim.ahead`` covers.
        sim = self.sim
        start = sim.now
        if isinstance(op, CpuOp):
            # _in_place already found that hold() refuses here.
            yield from self._cpu_wait(op.seconds)
            self._record(job, op, start, sim.now, cpu_seconds=op.seconds)
        elif isinstance(op, SleepOp):
            # _in_place already found that ahead() does not hold here.
            yield sim.timeout(op.seconds)
            self._record(job, op, start, sim.now)
        elif isinstance(op, DutyCycleOp):
            # Each slice charges, waits and records as a CpuOp followed by
            # a SleepOp would, with the same floats and in the same order.
            seconds, share = op.seconds, op.cpu_share
            elapsed = 0.0
            while elapsed < seconds:
                piece = min(_DUTY_SLICE, seconds - elapsed)
                busy = piece * share
                start = sim.now
                if not self.cpu.hold(busy):
                    yield from self._cpu_wait(busy)
                self._record(job, op, start, sim.now, cpu_seconds=busy,
                             name="CpuOp")
                idle = piece * (1.0 - share)
                start = sim.now
                if not sim.ahead(idle):
                    yield sim.timeout(idle)
                self._record(job, op, start, sim.now, name="SleepOp")
                elapsed += piece
        elif isinstance(op, (DiskReadOp, DiskWriteOp)):
            # A run may span RAID groups; each piece charges its group.
            remaining = op.nblocks
            block = op.start_block
            moved = 0
            while remaining > 0:
                location = op.volume.locate(block)
                group = op.volume.geometry.groups[location.group_index]
                in_group = min(
                    remaining, group.data_blocks - location.group_block
                )
                model, resource = self._disk(op.volume, location.group_index)
                kind = "write" if isinstance(op, DiskWriteOp) else "read"
                # A read smaller than the stripe width touches one spindle:
                # it holds one capacity unit (other spindles keep serving)
                # and transfers at single-disk rate.  Striped requests and
                # all writes (gathered into whole stripes at the CP) hold
                # the entire group.
                narrow = kind == "read" and in_group < model.ndisks
                amount = 1 if narrow else resource.capacity
                request = resource.acquire(amount)
                if not request.processed:
                    yield request
                try:
                    if narrow:
                        service = model.narrow_service(location.group_block,
                                                       in_group)
                    else:
                        service = model.service_time(location.group_block,
                                                     in_group, kind=kind)
                    if not sim.ahead(service):
                        yield sim.timeout(service)
                finally:
                    resource.release(request)
                moved += in_group * op.volume.block_size
                block += in_group
                remaining -= in_group
            self._record(job, op, start, sim.now, disk_bytes=moved)
        elif isinstance(op, (TapeWriteOp, TapeReadOp)):
            model, resource = self._tape(op.drive)
            request = resource.acquire()
            if not request.processed:
                yield request
            try:
                service = model.transfer_time(
                    op.nbytes, op.media_changes, now=sim.now,
                    writing=isinstance(op, TapeWriteOp),
                )
                if not sim.ahead(service):
                    yield sim.timeout(service)
            finally:
                resource.release(request)
            self._record(job, op, start, sim.now, tape_bytes=op.nbytes)
        else:
            raise ReproError("executor cannot handle op %r" % (op,))

    # -- processes -----------------------------------------------------------------------

    def _producer(self, job: _Job, stores: Dict[object, Store]):
        sim = self.sim
        if job.start_at and not sim.ahead(job.start_at):
            yield sim.timeout(job.start_at)
        job.result.start = sim.now
        # Engine-directed read-ahead: prefetch reads run asynchronously,
        # as many as the engine issues before its next ReadBarrier, which
        # orders completion.  A read that already finished is joined
        # without an event when the heap would resume us next anyway.
        inflight: Deque = deque()
        completed = 0
        for op in job.ops:
            if isinstance(op, DiskReadOp) and op.prefetch and not job.is_sink_op(op):
                inflight.append(sim.process(self._execute(job, op)))
                continue
            if isinstance(op, ReadBarrier):
                while completed < op.count and inflight:
                    reader = inflight.popleft()
                    if not (reader.processed and sim.ahead(0.0)):
                        yield reader
                    completed += 1
                continue
            if job.is_sink_op(op):
                store = stores[job.sink_key(op)]
                weight = 1
                if isinstance(op, (TapeWriteOp, TapeReadOp)):
                    weight = max(1, op.nbytes)
                elif isinstance(op, (DiskReadOp, DiskWriteOp)):
                    weight = op.nblocks * op.volume.block_size
                # An op bigger than the whole buffer still has to flow; it
                # just occupies the buffer exclusively.
                weight = min(weight, store.capacity)
                put = store.put(op, weight=weight)
                if not put.processed:
                    yield put
            elif not self._in_place(job, op):
                yield from self._execute(job, op)
        while inflight:
            reader = inflight.popleft()
            if not (reader.processed and sim.ahead(0.0)):
                yield reader
        for store in stores.values():
            put = store.put(_SENTINEL, weight=1)
            if not put.processed:
                yield put

    def _consumer(self, job: _Job, store: Store):
        while True:
            got = store.get()
            if not got.processed:
                yield got
            op = got.value
            if op is _SENTINEL:
                return
            if not self._in_place(job, op):
                yield from self._execute(job, op)

    # -- running -----------------------------------------------------------------------

    def run(self) -> Dict[str, JobResult]:
        """Execute every job; returns results keyed by job name."""
        sim = self.sim
        waiters = []
        for job in self._jobs:
            sink_keys = {job.sink_key(op) for op in job.ops if job.is_sink_op(op)}
            stores = {
                key: Store(sim, capacity=max(self._buffer_bytes, 2), name=str(key))
                for key in sink_keys
            }
            producer = sim.process(self._producer(job, stores),
                                   name="%s.producer" % job.name)
            consumers = [
                sim.process(self._consumer(job, store),
                            name="%s.consumer" % job.name)
                for store in stores.values()
            ]
            waiters.append((job, producer, consumers))
        sim.run()
        self._observe_sim()
        results = {}
        for job, producer, consumers in waiters:
            if producer.is_alive or any(c.is_alive for c in consumers):
                raise ReproError("job %r did not finish (deadlock?)" % job.name)
            ends = [job.result.start]
            for stage in job.result.stages.values():
                if stage.end is not None:
                    ends.append(stage.end)
            job.result.end = max(ends)
            results[job.name] = job.result
            self._observe_job(job.result)
        return results

    # -- observability ---------------------------------------------------------

    def _observe_sim(self) -> None:
        """Emit the kernel's event count once the run has drained."""
        sim = self.sim
        if self.metrics.enabled:
            self.metrics.gauge("sim.events_scheduled").set(
                sim.events_scheduled)
        if self.tracer.enabled:
            self.tracer.instant(
                "sim.run_complete", cat="sim", ts=sim.now, tid="sim",
                args={"events_scheduled": sim.events_scheduled})

    def _observe_job(self, result: JobResult) -> None:
        """Emit the per-job and per-stage spans plus run totals."""
        tracer = self.tracer
        if tracer.enabled:
            tracer.complete(
                result.name, cat="job", ts=result.start, dur=result.elapsed,
                tid=result.name,
                args={"cpu_seconds": result.cpu_seconds,
                      "disk_bytes": result.disk_bytes,
                      "tape_bytes": result.tape_bytes})
            for name in result.stage_order:
                stage = result.stages[name]
                if stage.start is None:
                    continue
                tracer.complete(
                    name, cat="stage", ts=stage.start, dur=stage.elapsed,
                    tid=result.name,
                    args={"cpu_seconds": stage.cpu_seconds,
                          "disk_bytes": stage.disk_bytes,
                          "tape_bytes": stage.tape_bytes})
        metrics = self.metrics
        if metrics.enabled:
            metrics.counter("executor.jobs").inc()
            metrics.counter("executor.cpu_seconds").inc(result.cpu_seconds)
            metrics.counter("executor.disk_bytes").inc(result.disk_bytes)
            metrics.counter("executor.tape_bytes").inc(result.tape_bytes)


__all__ = ["JobResult", "StageStats", "TimedRun"]
