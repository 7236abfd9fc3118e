"""Admission-controlled job scheduling over shared drives.

The scheduler answers one question, repeatedly: *given everything
queued, which jobs run next?*  It is deliberately a pure, deterministic
decision procedure — no wall clock, no OS state — so a seeded fleet run
produces the same admission sequence every time.

Model
-----

Time advances in **ticks**.  Each tick the service asks for a batch; the
scheduler packs jobs onto the free drive slots and the batch runs to
completion before the next tick (a batch barrier).  Within that frame:

* **Priority lanes** — ``interactive`` strictly before ``daily`` before
  ``background``.  A lane is only consulted when every higher lane has
  nothing admissible, so an interactive restore never waits behind a
  background rebalance.
* **Per-tenant rotation** — inside a lane, tenants take turns: each
  admission pass starts at the lane's persistent cursor, takes the
  oldest job of each queued tenant in turn, and leaves the cursor just
  past the last tenant it admitted, so the same tenant cannot shadow its
  neighbours tick after tick.  A tenant's ``weight`` is recorded in the
  spec but does not change its turn.
* **One job per tenant per batch** — a tenant's jobs mutate its (one)
  volume, so two of them cannot run in the same barrier frame.
* **Drive reservation** — every admitted job holds exactly one slot in
  the :class:`DriveTable` from admission to completion; the table hands
  out the lowest free index, so drive assignment is as deterministic as
  the admission order.

Determinism contract: admission depends only on (queue contents,
cursors, free drives) — all of which are pure functions of
the submission history.  Every transition is appended to an event log
of plain dicts with tick-stamps, which is the byte-comparison artifact
CI uses to prove runs under different hash seeds identical.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.fleet.tenant import LANES, FleetError


class Job:
    """One queued unit of work (a dump or a restore for one tenant)."""

    __slots__ = ("job_id", "tenant", "kind", "lane", "day", "payload",
                 "submit_tick", "start_tick", "end_tick", "drive")

    def __init__(self, job_id: str, tenant: str, kind: str, lane: str,
                 day: int, submit_tick: int,
                 payload: Optional[Dict] = None):
        if lane not in LANES:
            raise FleetError("job %s: unknown lane %r" % (job_id, lane))
        if kind not in ("dump", "restore"):
            raise FleetError("job %s: unknown kind %r" % (job_id, kind))
        self.job_id = job_id
        self.tenant = tenant
        self.kind = kind
        self.lane = lane
        self.day = day
        self.payload = payload or {}
        self.submit_tick = submit_tick
        self.start_tick: Optional[int] = None
        self.end_tick: Optional[int] = None
        self.drive: Optional[int] = None

    @property
    def wait_ticks(self) -> Optional[int]:
        if self.start_tick is None:
            return None
        return self.start_tick - self.submit_tick

    def __repr__(self) -> str:
        return "<Job %s %s/%s %s>" % (self.job_id, self.tenant, self.kind,
                                      self.lane)


class DriveTable:
    """The shared tape-drive slots and who holds each one."""

    def __init__(self, count: int):
        if count < 1:
            raise FleetError("drive table needs at least one drive")
        self.count = count
        self.holders: List[Optional[str]] = [None] * count
        # Busy tick-count per drive, for the utilization metric.
        self.busy_ticks = [0] * count

    def free_count(self) -> int:
        return sum(1 for holder in self.holders if holder is None)

    def reserve(self, job_id: str) -> int:
        """Claim the lowest free slot for ``job_id``."""
        for index, holder in enumerate(self.holders):
            if holder is None:
                self.holders[index] = job_id
                return index
        raise FleetError("no free drive for job %s" % job_id)

    def release(self, index: int, job_id: str) -> None:
        if self.holders[index] != job_id:
            raise FleetError(
                "drive %d is held by %r, not %r"
                % (index, self.holders[index], job_id))
        self.holders[index] = None

    def tick(self) -> None:
        """Account one tick of busy time to every held drive."""
        for index, holder in enumerate(self.holders):
            if holder is not None:
                self.busy_ticks[index] += 1


class FleetScheduler:
    """Round-robin admission over priority lanes and drives."""

    def __init__(self, drives: DriveTable):
        self.drives = drives
        # lane -> tenant -> FIFO of queued jobs.  Tenant order within a
        # lane is *arrival order of first job*, rotated by the cursor —
        # deterministic, and stable under dict iteration (py3.7+).
        self.queues: Dict[str, Dict[str, List[Job]]] = {
            lane: {} for lane in LANES}
        self.cursors: Dict[str, int] = {lane: 0 for lane in LANES}
        self.running: Dict[str, Job] = {}
        self.events: List[Dict] = []
        self.tick = 0
        self._completed_waits: List[int] = []

    # -- event log ---------------------------------------------------------

    def _log(self, event: str, job: Job, **extra) -> None:
        record = {"tick": self.tick, "event": event, "job": job.job_id,
                  "tenant": job.tenant, "kind": job.kind, "lane": job.lane,
                  "day": job.day}
        record.update(extra)
        self.events.append(record)

    # -- submission --------------------------------------------------------

    def submit(self, job: Job) -> None:
        lane = self.queues[job.lane]
        lane.setdefault(job.tenant, []).append(job)
        self._log("submit", job)

    def queued_jobs(self) -> List[Job]:
        jobs: List[Job] = []
        for lane in LANES:
            for queue in self.queues[lane].values():
                jobs.extend(queue)
        return jobs

    def queue_depth(self, tenant: Optional[str] = None) -> int:
        jobs = self.queued_jobs()
        if tenant is None:
            return len(jobs)
        return sum(1 for job in jobs if job.tenant == tenant)

    # -- admission ---------------------------------------------------------

    def admit(self) -> List[Job]:
        """Pack the next batch onto the free drives; returns it in
        admission order.

        Batch composition depends only on the submission history and the
        free drives.
        """
        budget = self.drives.free_count()
        batch: List[Job] = []
        admitted_tenants = set()
        for lane in LANES:
            if budget <= len(batch):
                break
            batch.extend(self._admit_lane(lane, budget - len(batch),
                                          admitted_tenants))
        for job in batch:
            job.start_tick = self.tick
            job.drive = self.drives.reserve(job.job_id)
            self.running[job.job_id] = job
            self._log("start", job, drive=job.drive,
                      wait_ticks=job.wait_ticks)
        return batch

    def _admit_lane(self, lane: str, budget: int,
                    admitted_tenants: set) -> List[Job]:
        """One pass over the lane's queued tenants from the cursor: the
        oldest job of each tenant not yet in the batch, until ``budget``
        jobs are admitted."""
        queues = self.queues[lane]
        tenants = [t for t in queues if queues[t]]
        admitted: List[Job] = []
        if not tenants:
            return admitted
        start = self.cursors[lane] % len(tenants)
        for offset in range(len(tenants)):
            if budget <= len(admitted):
                break
            index = (start + offset) % len(tenants)
            tenant = tenants[index]
            if tenant in admitted_tenants:
                continue
            admitted.append(queues[tenant].pop(0))
            admitted_tenants.add(tenant)
            self.cursors[lane] = (index + 1) % len(tenants)
        return admitted

    # -- completion --------------------------------------------------------

    def complete(self, job: Job, **outcome) -> None:
        """Record a finished job and free its drive."""
        if job.job_id not in self.running:
            raise FleetError("job %s is not running" % job.job_id)
        del self.running[job.job_id]
        job.end_tick = self.tick
        self.drives.release(job.drive, job.job_id)
        self._completed_waits.append(job.wait_ticks)
        self._log("finish", job, drive=job.drive, **outcome)

    def advance_tick(self) -> None:
        """Close the batch barrier: account drive time, bump the tick."""
        self.drives.tick()
        self.tick += 1

    # -- metrics -----------------------------------------------------------

    def utilization(self) -> List[float]:
        """Per-drive busy fraction over the ticks elapsed so far."""
        if self.tick == 0:
            return [0.0] * self.drives.count
        return [busy / self.tick for busy in self.drives.busy_ticks]

    def mean_wait(self) -> float:
        if not self._completed_waits:
            return 0.0
        return sum(self._completed_waits) / len(self._completed_waits)


__all__ = ["DriveTable", "FleetScheduler", "Job"]
