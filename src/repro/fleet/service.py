"""The fleet service: a deterministic multi-tenant backup daemon.

The service owns a fleet root (see :mod:`repro.fleet.tenant` for the
layout) and advances it through simulated days.  Each day:

1. every unpaused tenant's scheduled dump is submitted to the
   :class:`~repro.fleet.scheduler.FleetScheduler` on the tenant's lane,
   along with any ad-hoc jobs queued via the API or ``repro fleet
   submit``;
2. the queue drains in **batch barriers**: the scheduler admits a batch
   onto the free drives, each of the batch's dumps calls
   :func:`~repro.manager.campaign.run_tenant_day_resident` against the
   tenant's mounted volume in this process, and each result is committed
   to the owning tenant's catalog in admission order before the next
   tick;
3. retention runs per tenant and the day's catalog mutations are
   journaled (append + fsync); volumes are saved only when dirty and due.

Determinism contract: job payloads (bytes, files, blocks, simulated
times) are pure functions of (spec, seed, day); admission order is a
pure function of submission history; commits happen in admission order;
ticks — not wall clock — stamp the event log.  A fleet run is therefore
byte-identical from run to run and under any ``PYTHONHASHSEED``, event
log, tenant catalogs and tenant volumes included, which CI checks on
every push.  A service start is a reboot:
every volume is mounted cold from its ``volume.bin``, so a restart shows
only in the elapsed time of each logical tenant's next dump.

Observability: each job becomes a ``fleet``-category span on its
tenant's lane (ts = start tick, dur = ticks held), and each tick
samples counter events — per-tenant queue depth and per-drive busy
state — which is where queue-wait and drive-utilization signals come
from.  :func:`export_fleet_trace` maps tenants onto named Chrome
processes.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from repro.catalog.lock import FileLock
from repro.fleet.scheduler import DriveTable, FleetScheduler, Job
from repro.fleet.tenant import (
    LANES,
    FleetError,
    FleetSpec,
    Tenant,
    load_fleet_spec,
)
from repro.manager.campaign import (
    day_mutation,
    restore_point_in_time,
    run_tenant_day_resident,
)
from repro.manager.retention import prune
from repro.obs.export import export_chrome_trace
from repro.obs.metrics import REGISTRY
from repro.obs.trace import get_tracer

STATE_VERSION = 1

#: Last-N job results kept in state.json for the status document.
RECENT_JOBS = 20

#: Chrome-export pid of the first tenant lane (pid 0 is the fleet).
TENANT_PID_BASE = 1000


def _default_state() -> Dict:
    return {
        "version": STATE_VERSION,
        "day": 0,
        "tick": 0,
        "job_seq": 0,
        "paused": [],
        "pending": [],
        "recent": [],
        "drr": {"cursors": {}},
    }


class FleetService:
    """Run a fleet root through simulated days; everything on disk.

    Tenant volumes live in this process: each is mounted from its
    ``volume.bin`` on first use and aged and dumped in place by every
    job after that.  The catalog journal makes the per-day commits
    durable; dirty volumes are saved when :meth:`run_days` returns.
    """

    def __init__(self, root: str, jobs: int = 1):
        # Every tenant-day runs in this process (DESIGN.md, "Parallel
        # where it pays"); the keyword stays for callers that pass 1.
        if jobs != 1:
            raise FleetError("the fleet service runs in one process;"
                             " jobs must be 1, not %r" % (jobs,))
        self.root = root
        self.spec = load_fleet_spec(self.spec_path(root))
        self.state = load_state(root)
        self.tenants: Dict[str, Tenant] = {}
        for spec in self.spec.tenants:
            # Lazy: catalogs, media, and volumes load on first touch, so
            # a service fronting hundreds of tenants starts in O(spec).
            tenant = Tenant(spec, self.tenant_root(root, spec.name))
            self.tenants[spec.name] = tenant
        self.drives = DriveTable(self.spec.drives)
        self.scheduler = FleetScheduler(self.drives)
        self.scheduler.tick = self.state["tick"]
        self.scheduler.cursors.update(
            self.state.get("drr", {}).get("cursors", {}))

    # -- paths -------------------------------------------------------------

    @staticmethod
    def spec_path(root: str) -> str:
        for name in ("fleet.json", "fleet.toml"):
            candidate = os.path.join(root, name)
            if os.path.exists(candidate):
                return candidate
        return os.path.join(root, "fleet.json")

    @staticmethod
    def state_path(root: str) -> str:
        return os.path.join(root, "state.json")

    @staticmethod
    def events_path(root: str) -> str:
        return os.path.join(root, "events.jsonl")

    @staticmethod
    def tenant_root(root: str, name: str) -> str:
        return os.path.join(root, "tenants", name)

    # -- fleet creation ----------------------------------------------------

    @classmethod
    def init_fleet(cls, root: str, spec: FleetSpec) -> "FleetService":
        """Create a fleet root from a spec: layout, tenants, state."""
        if os.path.exists(cls.state_path(root)):
            raise FleetError("fleet root %s is already initialised" % root)
        os.makedirs(root, exist_ok=True)
        with open(os.path.join(root, "fleet.json"), "w") as handle:
            json.dump(spec.to_dict(), handle, indent=1, sort_keys=True)
            handle.write("\n")
        for tenant_spec in spec.tenants:
            Tenant(tenant_spec, cls.tenant_root(root, tenant_spec.name)).create()
        save_state(root, _default_state())
        return cls(root)

    # -- state persistence -------------------------------------------------

    def _save_state(self) -> None:
        self.state["tick"] = self.scheduler.tick
        # A root written by an older version may carry more under
        # "drr" (deficits); it is kept as read.
        self.state.setdefault("drr", {})["cursors"] = dict(
            self.scheduler.cursors)
        with FileLock(self.state_path(self.root) + ".lock"):
            # Submissions and pause toggles that landed on disk while
            # this run held the state in memory must survive the write.
            disk = load_state(self.root)
            self.state["pending"] = disk.get("pending", [])
            self.state["paused"] = disk.get("paused", [])
            _write_state(self.root, self.state)

    def _take_pending(self) -> List[Dict]:
        """Atomically claim jobs queued on disk by the API/CLI.

        Re-reads state under the lock so submissions that landed after
        this service loaded are not lost, checks every entry, then clears
        the disk queue: a bad entry leaves the queue as it was.
        """
        with FileLock(self.state_path(self.root) + ".lock"):
            disk = load_state(self.root)
            pending = disk.get("pending", [])
            for entry in pending:
                name = entry.get("tenant")
                if not isinstance(name, str) or name not in self.tenants:
                    raise FleetError("pending job names unknown tenant %r"
                                     % (name,))
                _check_job(entry.get("kind", "dump"),
                           entry.get("lane", "interactive"),
                           entry.get("day"))
            if pending:
                disk["pending"] = []
                _write_state(self.root, disk)
            # Pause toggles written by the API take effect from the next
            # submission pass.
            self.state["paused"] = disk.get("paused",
                                            self.state.get("paused", []))
        self.state["pending"] = []
        return pending

    def _next_job_id(self) -> str:
        seq = self.state["job_seq"]
        self.state["job_seq"] = seq + 1
        return "J%05d" % seq

    # -- daemon loop -------------------------------------------------------

    def run_days(self, days: int) -> Dict:
        """Advance the whole fleet ``days`` simulated days."""
        totals = {"days": 0, "jobs": 0, "bytes_to_tape": 0, "retired": 0}
        for _ in range(days):
            day_stats = self.run_day()
            totals["days"] += 1
            totals["jobs"] += day_stats["jobs"]
            totals["bytes_to_tape"] += day_stats["bytes_to_tape"]
            totals["retired"] += day_stats["retired"]
        self._append_events()
        for tenant in self.tenants.values():
            tenant.save_state(force=False)
        self._save_state()
        return totals

    def run_day(self) -> Dict:
        """One day: submit scheduled + pending jobs, drain, prune."""
        day = self.state["day"]
        paused = set(self.state.get("paused", []))
        for index, spec in enumerate(self.spec.tenants):
            if spec.name in paused:
                continue
            self.scheduler.submit(Job(
                self._next_job_id(), spec.name, "dump", spec.lane, day,
                self.scheduler.tick,
                payload={"tenant_index": index, "scheduled": True}))
        for entry in self._take_pending():
            name = entry["tenant"]
            spec = self.spec.tenant(name)
            self.scheduler.submit(Job(
                self._next_job_id(), name, entry.get("kind", "dump"),
                entry.get("lane", "interactive"), day,
                self.scheduler.tick,
                payload={"tenant_index": self.spec.tenants.index(spec),
                         "scheduled": False,
                         "target_day": entry.get("day")}))
        stats = self._drain(day)
        retired = 0
        committed = []
        for spec in self.spec.tenants:
            tenant = self.tenants[spec.name]
            outcome = prune(tenant.catalog, tenant.pool, now_day=day,
                            save=False)
            if any(outcome.values()):
                tenant.media_dirty = True
                retired += sum(len(ids) for ids in outcome.values())
            # Durability point for the day: everything this day changed
            # in the catalog goes to the journal in one append per
            # tenant; the fsyncs run back to back below (group commit
            # across tenants — one filesystem transaction, not one per
            # catalog).
            if tenant._catalog is not None and tenant._catalog.dirty:
                tenant._catalog.commit_dirty(sync=False)
                committed.append(tenant._catalog)
        for catalog in committed:
            catalog.sync_journal()
        stats["retired"] = retired
        self.state["day"] = day + 1
        return stats

    # -- batch execution ---------------------------------------------------

    def _drain(self, day: int) -> Dict:
        stats = {"jobs": 0, "bytes_to_tape": 0, "retired": 0}
        while self.scheduler.queue_depth():
            batch = self.scheduler.admit()
            if not batch:
                raise FleetError("queued jobs but nothing admissible")
            # Sample while the batch holds its drives: drive_busy=1 on
            # held drives, queue_depth counting the jobs still waiting.
            self._sample_counters()
            dumps = [job for job in batch if job.kind == "dump"]
            restores = [job for job in batch if job.kind == "restore"]
            outcomes = self._run_dumps(dumps, day)
            for job in restores:
                outcomes[job.job_id] = self._run_restore(job)
            self.scheduler.advance_tick()
            for job in batch:
                outcome = outcomes[job.job_id]
                self.scheduler.complete(job, **outcome)
                self._observe_job(job, outcome)
                self._record_recent(job, outcome)
                stats["jobs"] += 1
                stats["bytes_to_tape"] += outcome.get("bytes_to_tape", 0)
        self._sample_counters()
        return stats

    # -- dump batches ------------------------------------------------------

    def _run_dumps(self, jobs: List[Job], day: int) -> Dict[str, Dict]:
        """Stage a batch's dump jobs, run each in this process, then
        commit each result in admission order: a job that raises does
        so before anything of the batch is committed."""
        if not jobs:
            return {}
        staged = []
        calls = []
        for job in jobs:
            tenant = self.tenants[job.tenant]
            volume = tenant.volume
            dump = volume.stage_dump(tenant.catalog, day, job.job_id)
            job_name = "%s.%s" % (job.tenant, job.job_id)
            drive = tenant.pool.drive_for_job(job_name)
            mutation = None
            if job.payload.get("scheduled") and day > 0:
                mutation = day_mutation(self.spec.seed, day,
                                        job.payload["tenant_index"])
            staged.append((job, tenant, dump, drive))
            calls.append((volume, drive, job_name, dump, mutation))
        payloads = [run_tenant_day_resident(*call) for call in calls]
        outcomes: Dict[str, Dict] = {}
        for (job, tenant, dump, drive), payload in zip(staged, payloads):
            backup_set = tenant.volume.commit_dump(
                tenant.catalog, tenant.pool, day, dump, drive, payload)
            tenant.volume_dirty = True
            tenant.media_dirty = True
            tenant.dumps += 1
            tenant.bytes_to_tape += payload["bytes_to_tape"]
            outcomes[job.job_id] = {
                "status": "ok", "level": dump["level"],
                "set_id": backup_set.set_id,
                "bytes_to_tape": payload["bytes_to_tape"],
                "files": payload["files"], "blocks": payload["blocks"],
                "sim_seconds": round(payload["end"] - payload["start"], 6),
            }
        return outcomes

    def _run_restore(self, job: Job) -> Dict:
        """Ad-hoc restore: replay the chain read-only against the
        tenant's media."""
        tenant = self.tenants[job.tenant]
        target_day = job.payload.get("target_day")
        # fsid == tenant name by construction; going through the catalog
        # keeps restores from loading and mounting the volume.
        fs, plan = restore_point_in_time(
            tenant.catalog, tenant.pool, tenant.name,
            day=target_day, name="restore.%s" % job.job_id)
        files = sum(1 for _ in fs.walk("/"))
        return {"status": "ok", "sets": len(plan.sets),
                "target_day": plan.sets[-1].day, "nodes": files}

    # -- observability -----------------------------------------------------

    def _sample_counters(self) -> None:
        """One counter sample per tick: queue depths and drive states."""
        tracer = get_tracer()
        tick = self.scheduler.tick
        if tracer.enabled:
            for spec in self.spec.tenants:
                tracer.counter("queue_depth",
                               self.scheduler.queue_depth(spec.name),
                               cat="fleet", ts=float(tick),
                               tid="tenant/%s" % spec.name)
            for index, holder in enumerate(self.drives.holders):
                tracer.counter("drive_busy", 0 if holder is None else 1,
                               cat="fleet", ts=float(tick),
                               tid="drive/%d" % index)
        if REGISTRY.enabled:
            for index, holder in enumerate(self.drives.holders):
                if holder is not None:
                    REGISTRY.counter("fleet.drive.%d.busy_ticks"
                                     % index).inc()

    def _observe_job(self, job: Job, outcome: Dict) -> None:
        tracer = get_tracer()
        if tracer.enabled:
            tracer.complete(
                job.job_id, cat="fleet", ts=float(job.start_tick),
                dur=float(job.end_tick - job.start_tick),
                tid="tenant/%s" % job.tenant,
                args={"kind": job.kind, "lane": job.lane, "day": job.day,
                      "drive": job.drive, "wait_ticks": job.wait_ticks,
                      "status": outcome.get("status")})
        if REGISTRY.enabled:
            REGISTRY.counter("fleet.jobs").inc()
            REGISTRY.counter("fleet.bytes_to_tape").inc(
                outcome.get("bytes_to_tape", 0))
            REGISTRY.histogram(
                "fleet.tenant.%s.wait_ticks" % job.tenant,
                (0, 1, 2, 4, 8, 16)).observe(job.wait_ticks)

    def _record_recent(self, job: Job, outcome: Dict) -> None:
        recent = self.state.setdefault("recent", [])
        recent.append({
            "job": job.job_id, "tenant": job.tenant, "kind": job.kind,
            "lane": job.lane, "day": job.day, "drive": job.drive,
            "submit_tick": job.submit_tick, "start_tick": job.start_tick,
            "end_tick": job.end_tick, "wait_ticks": job.wait_ticks,
            "outcome": outcome,
        })
        del recent[:-RECENT_JOBS]

    def _append_events(self) -> None:
        """Append this run's scheduler transitions to events.jsonl."""
        events = self.scheduler.events
        if not events:
            return
        with open(self.events_path(self.root), "a") as handle:
            for event in events:
                handle.write(json.dumps(event, sort_keys=True))
                handle.write("\n")
        self.scheduler.events = []


def export_fleet_trace(events: List[dict], path: str,
                       tenants: List[str]) -> int:
    """Write a Chrome trace with one named process lane per tenant.

    Events on a ``tenant/<name>`` tid move to that tenant's pid; drive
    counters and the jobs' engine spans (tid = job name) stay on the
    fleet process.
    """
    pid_of = {name: TENANT_PID_BASE + index
              for index, name in enumerate(tenants)}
    mapped = []
    for event in events:
        tid = event.get("tid")
        if isinstance(tid, str) and tid.startswith("tenant/"):
            name = tid[len("tenant/"):]
            if name in pid_of:
                event = dict(event)
                event["pid"] = pid_of[name]
        mapped.append(event)
    names = {pid: "tenant:%s" % name for name, pid in pid_of.items()}
    names[0] = "fleet"
    return export_chrome_trace(mapped, path, pid_names=names)


# -- on-disk state helpers (shared with the API server) --------------------

def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _check_shape(path: str, state: Dict) -> None:
    """Raise :class:`FleetError` unless ``state`` has the fields the
    service reads, each of the type it reads them as.  Keys this version
    does not read (``affinity``, ``drr.deficits``) are left alone."""
    def refuse(what: str) -> None:
        raise FleetError("fleet state %s: %s" % (path, what))

    for key in ("day", "tick", "job_seq"):
        if not _is_count(state.get(key)):
            refuse("%s must be a whole number >= 0, got %r"
                   % (key, state.get(key)))
    for key, kind, what in (("pending", dict, "objects"),
                            ("recent", dict, "objects"),
                            ("paused", str, "tenant names")):
        items = state.get(key, [])
        if not (isinstance(items, list)
                and all(isinstance(item, kind) for item in items)):
            refuse("%s must be a list of %s" % (key, what))
    drr = state.get("drr", {})
    cursors = drr.get("cursors", {}) if isinstance(drr, dict) else None
    if not (isinstance(cursors, dict)
            and all(lane in LANES and _is_count(cursor)
                    for lane, cursor in cursors.items())):
        refuse("drr.cursors must map lanes (%s) to whole numbers >= 0"
               % ", ".join(LANES))


def load_state(root: str) -> Dict:
    path = os.path.join(root, "state.json")
    try:
        with open(path) as handle:
            state = json.load(handle)
    except (OSError, ValueError) as error:
        raise FleetError("cannot read fleet state %s: %s" % (path, error))
    if not isinstance(state, dict):
        raise FleetError("fleet state %s is not a JSON object" % path)
    if state.get("version") != STATE_VERSION:
        raise FleetError("fleet state %s has version %r, want %d"
                         % (path, state.get("version"), STATE_VERSION))
    _check_shape(path, state)
    return state


def _write_state(root: str, state: Dict) -> None:
    path = os.path.join(root, "state.json")
    temp = path + ".tmp"
    with open(temp, "w") as handle:
        json.dump(state, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(temp, path)


def save_state(root: str, state: Dict) -> None:
    """Locked, crash-safe state.json write."""
    with FileLock(os.path.join(root, "state.json") + ".lock"):
        _write_state(root, state)


def _check_job(kind, lane, day) -> None:
    if kind not in ("dump", "restore"):
        raise FleetError("unknown job kind %r" % (kind,))
    if lane not in LANES:
        raise FleetError("unknown lane %r (want one of %s)"
                         % (lane, ", ".join(LANES)))
    if day is not None and not _is_count(day):
        raise FleetError("day must be a whole number >= 0, got %r" % (day,))


def submit_job(root: str, tenant: str, kind: str = "dump",
               lane: str = "interactive",
               day: Optional[int] = None) -> Dict:
    """Queue an ad-hoc job on disk; the next service day picks it up."""
    _check_job(kind, lane, day)
    spec = load_fleet_spec(FleetService.spec_path(root))
    spec.tenant(tenant)  # raises FleetError for unknown tenants
    entry = {"tenant": tenant, "kind": kind, "lane": lane, "day": day}
    with FileLock(os.path.join(root, "state.json") + ".lock"):
        state = load_state(root)
        state.setdefault("pending", []).append(entry)
        _write_state(root, state)
    return entry


def set_paused(root: str, tenant: str, paused: bool) -> List[str]:
    """Pause or resume a tenant; returns the new paused list."""
    spec = load_fleet_spec(FleetService.spec_path(root))
    spec.tenant(tenant)
    with FileLock(os.path.join(root, "state.json") + ".lock"):
        state = load_state(root)
        names = set(state.get("paused", []))
        if paused:
            names.add(tenant)
        else:
            names.discard(tenant)
        state["paused"] = sorted(names)
        _write_state(root, state)
        return state["paused"]


__all__ = [
    "FleetService",
    "RECENT_JOBS",
    "STATE_VERSION",
    "export_fleet_trace",
    "load_state",
    "save_state",
    "set_paused",
    "submit_job",
]
