"""The campaign driver: fleets of dumps over simulated weeks.

A campaign runs one or more volumes through N simulated days.  Every
volume is an independent filer streaming to its own partition of the
scratch media — the paper's Section 5.1 finding is that concurrent dumps
of ``home`` and ``rlse`` to separate drives do not interfere — so the
unit of work is one volume's whole day, :func:`run_volume_day`: age,
snapshot, dump in its own :class:`~repro.perf.executor.TimedRun`, retire
superseded image snapshots.  Plain campaigns, chaos campaigns (the same
function with a fault hook) and fleet jobs (the same function behind
:func:`run_tenant_day_resident`) all run it in this process, on the live
volume, and all commit through :meth:`CampaignVolume.commit_dump`.

:class:`CampaignDriver` stages each day's dumps, runs them through the
in-process path of a :class:`~repro.parallel.pool.TaskPool` (which gives
each volume-day its own trace lane and metrics delta), and commits the
results in declaration order.  Contention between dumps sharing a filer
is a different experiment and lives in :mod:`repro.backup.jobs`.

:func:`restore_point_in_time` closes the loop: it asks the catalog for
the minimal chain covering a target day and replays it, logical chains
through fresh-format + incremental restores with symbol-table
threading, image chains through raw block restores, geometry taken from
the tape itself.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Tuple

from repro.errors import CatalogError, IncrementalError
from repro.backup.jobs import build_dump_engine
from repro.obs.metrics import REGISTRY
from repro.obs.trace import get_tracer
from repro.backup.logical.restore import LogicalRestore
from repro.backup.physical.image import ImageHeader
from repro.backup.physical.restore import ImageRestore
from repro.catalog.records import STRATEGY_IMAGE, STRATEGY_LOGICAL
from repro.parallel.pool import TaskPool, TaskSpec
from repro.perf.costs import CostModel, HardwareProfile
from repro.perf.executor import TimedRun
from repro.perf.ops import drain_engine
from repro.raid.layout import make_geometry
from repro.raid.volume import RaidVolume
from repro.wafl.filesystem import WaflFilesystem
from repro.workload.mutate import MutationConfig, apply_mutations

DAILY_SNAPSHOT = "day.%d"


def day_mutation(seed: int, day: int, index: int,
                 base: Optional[MutationConfig] = None) -> MutationConfig:
    """Volume ``index``'s aging on ``day``: ``base``'s fractions under a
    seed fixed per (day, volume), so a day ages identically wherever and
    in whatever order its volumes run."""
    config = copy.copy(base) if base is not None else MutationConfig()
    config.seed = seed + 1009 * day + 97 * index
    return config


def run_volume_day(
    volume: "CampaignVolume",
    drive,
    job_name: str,
    dump: Dict,
    mutation: Optional[MutationConfig] = None,
    daily_snapshot: Optional[str] = None,
    profile: Optional[HardwareProfile] = None,
    fault=None,
) -> Tuple[Dict, List[Dict]]:
    """One volume's whole day, in place on ``volume``.

    Ages the volume, takes the daily snapshot, dumps to ``drive`` in the
    volume's own :class:`TimedRun`, and — image strategy — retires the
    kept snapshots the fresh dump supersedes.  ``dump`` holds
    :func:`build_dump_engine`'s keywords as
    :meth:`CampaignVolume.stage_dump` decided them.

    ``fault`` is ``None`` on a plain day.  A chaos campaign passes a hook
    (:class:`repro.chaos.campaign.VolumeDayFault`) whose ``age`` stands
    in for the aging step and whose ``drain`` drains the engine, each
    firing and recovering the planned fault if it belongs to that step;
    recovery hands back the op stream an unfaulted dump emits, so the
    payload is the oracle's.  A crash recovery remounts the volume, and
    ``volume.fs`` is rebound to the recovered mount.

    Returns ``(payload, events)``: the day's timings and counts for
    :meth:`CampaignVolume.commit_dump`, and the fault hook's events.
    """
    fs, strategy = volume.fs, volume.strategy
    if fault is not None:
        fs = volume.fs = fault.age(fs, volume.tree, mutation)
    elif mutation is not None:
        apply_mutations(fs, volume.tree, mutation)
    if daily_snapshot is not None:
        fs.snapshot_create(daily_snapshot)
    engine = build_dump_engine(fs, drive, strategy, **dump)
    run = TimedRun(profile)
    if fault is not None:
        ops, data = fault.drain(engine, fs, drive, strategy, dump)
        job = run.add_ops(job_name, ops, data=data)
    else:
        job = run.add_job(job_name, engine)
    run.run()
    data = job.data
    if strategy == STRATEGY_LOGICAL:
        date = data.date
    else:
        record = fs.fsinfo.find_snapshot(dump["snapshot_name"])
        date = record.created if record else 0
        # A fresh level-L dump retires kept snapshots at levels >= L,
        # the same way dumpdates supersedes deeper records.
        kept = volume.kept_snapshots
        for old_level in list(kept):
            if old_level >= dump["level"]:
                old_name, _date = kept.pop(old_level)
                fs.snapshot_delete(old_name)
        kept[dump["level"]] = (dump["snapshot_name"], date)
    payload = {
        "name": job_name,
        "date": date,
        "start": job.start,
        "end": job.end,
        "bytes_to_tape": data.bytes_to_tape,
        "files": data.files,
        "blocks": data.blocks,
    }
    return payload, fault.events if fault is not None else []


def run_tenant_day_resident(volume: "CampaignVolume", drive, job_name: str,
                            dump: Dict,
                            mutation: Optional[MutationConfig] = None) -> Dict:
    """One fleet tenant-day over the tenant's resident volume.

    The fleet's unit of work: :func:`run_volume_day` with no fault hook
    against the :class:`CampaignVolume` the service holds for the tenant
    (loaded and mounted once per service start).  Returns the payload.
    """
    payload, _events = run_volume_day(volume, drive, job_name, dump,
                                      mutation)
    return payload


class CampaignVolume:
    """One volume enrolled in a campaign."""

    def __init__(self, fs, tree, strategy: str, schedule, subtree: str = "/"):
        if strategy not in (STRATEGY_LOGICAL, STRATEGY_IMAGE):
            raise CatalogError("unknown campaign strategy %r" % (strategy,))
        self.fs = fs
        self.tree = tree
        self.strategy = strategy
        self.schedule = schedule
        self.subtree = subtree
        # Image strategy: the newest dump snapshot per level, kept alive
        # as future incremental bases.  :func:`run_volume_day` maintains
        # it beside the file system.
        self.kept_snapshots: Dict[int, Tuple[str, int]] = {}

    @property
    def fsid(self) -> str:
        return self.fs.volume.name

    def base_snapshot_for(self, level: int) -> Optional[str]:
        """The most recent kept snapshot at a strictly lower level."""
        candidates = [(date, name) for lvl, (name, date)
                      in self.kept_snapshots.items() if lvl < level]
        if not candidates:
            return None
        return max(candidates)[1]

    def effective_level(self, catalog, level: int) -> int:
        """Downgrade to a full when the scheduled level has no base yet."""
        if level == 0:
            return 0
        if self.strategy == STRATEGY_LOGICAL:
            try:
                catalog.dumpdates.base_for(self.fsid, self.subtree, level)
            except IncrementalError:
                return 0
            return level
        if self.base_snapshot_for(level) is None:
            return 0
        return level

    def stage_dump(self, catalog, day: int, tag: str,
                   costs: Optional[CostModel] = None) -> Dict:
        """Decide ``day``'s dump: :func:`build_dump_engine`'s keywords.

        ``tag`` makes the image snapshot's name unique to the job.  The
        dumpdates are a private copy — the dump records into it as it
        runs, and :meth:`commit_dump` records into the catalog's.
        """
        level = self.effective_level(catalog, self.schedule.level_for(day))
        image = self.strategy == STRATEGY_IMAGE
        return {
            "level": level,
            "subtree": self.subtree,
            "dumpdates": None if image else copy.deepcopy(catalog.dumpdates),
            "snapshot_name": "img.%s.%s" % (self.fsid, tag) if image else None,
            "base_snapshot": (self.base_snapshot_for(level)
                              if image and level > 0 else None),
            "costs": costs,
        }

    def commit_dump(self, catalog, pool, day: int, dump: Dict, drive,
                    payload: Dict):
        """Record one finished volume-day; returns its backup set.

        Adopts the cartridges the day wrote, records the set and its
        media, and emits one campaign-level span plus counters.  The catalog is not
        saved — callers commit a whole day at once.
        """
        pool.adopt_cartridges(drive)
        backup_set = catalog.record_set(
            fsid=self.fsid, subtree=self.subtree, strategy=self.strategy,
            level=dump["level"], day=day, date=payload["date"],
            snapshot=dump["snapshot_name"],
            base_snapshot=dump["base_snapshot"],
            start_time=payload["start"], end_time=payload["end"],
            bytes_to_tape=payload["bytes_to_tape"], files=payload["files"],
            blocks=payload["blocks"], save=False,
        )
        pool.commit_job(drive, backup_set)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.complete(
                payload["name"], cat="campaign", ts=payload["start"],
                dur=payload["end"] - payload["start"], tid=self.fsid,
                args={"day": day, "strategy": self.strategy,
                      "level": dump["level"],
                      "bytes_to_tape": payload["bytes_to_tape"]})
        if REGISTRY.enabled:
            REGISTRY.counter("campaign.dumps").inc()
            REGISTRY.counter("campaign.bytes_to_tape").inc(
                payload["bytes_to_tape"])
        return backup_set


class CampaignDriver:
    """Run a multi-day, multi-volume backup campaign against a catalog."""

    def __init__(
        self,
        catalog,
        pool,
        profile: Optional[HardwareProfile] = None,
        costs: Optional[CostModel] = None,
        mutations: Optional[MutationConfig] = None,
        keep_daily_snapshots: bool = False,
        seed: int = 1234,
    ):
        self.catalog = catalog
        self.pool = pool
        self.profile = profile
        self.costs = costs
        self.mutations = mutations or MutationConfig()
        self.keep_daily_snapshots = keep_daily_snapshots
        self.seed = seed
        self.volumes: List[CampaignVolume] = []
        self.day = 0

    def add_volume(self, fs, tree, strategy: str, schedule,
                   subtree: str = "/") -> CampaignVolume:
        volume = CampaignVolume(fs, tree, strategy, schedule, subtree)
        self.volumes.append(volume)
        return volume

    # -- one day -----------------------------------------------------------

    def run_day(self) -> Dict[str, object]:
        """Age and dump every volume, record the sets.

        Returns ``{job name: (backup set, payload)}``.
        """
        results, _events = self._run_day([None] * len(self.volumes))
        return results

    def _run_day(self, faults: List) -> Tuple[Dict[str, object], List[Dict]]:
        """One day with ``faults[i]`` handed to volume ``i``'s day.

        Each volume-day gets a disjoint slice of the scratch media
        (:meth:`MediaPool.partitioned_drives`) and runs in this process on
        the live volume; sets are committed in declaration order, so set
        IDs, dumpdates and media allocation follow the volume order.
        """
        day = self.day
        names = ["%s.d%02d" % (volume.fsid, day) for volume in self.volumes]
        drives = self.pool.partitioned_drives(names)
        dumps = [volume.stage_dump(self.catalog, day, "d%d" % day, self.costs)
                 for volume in self.volumes]
        # retries=0: a day ages the live volume in place, so a second
        # attempt would age already-aged state.
        specs = [
            TaskSpec(names[index], run_volume_day, (
                volume, drives[index], names[index], dumps[index],
                (day_mutation(self.seed, day, index, self.mutations)
                 if day > 0 else None),
                DAILY_SNAPSHOT % day if self.keep_daily_snapshots else None,
                self.profile, faults[index],
            ), retries=0)
            for index, volume in enumerate(self.volumes)
        ]
        results: Dict[str, object] = {}
        events: List[Dict] = []
        for volume, dump, drive, (payload, day_events) in zip(
                self.volumes, dumps, drives, TaskPool().map_values(specs)):
            backup_set = volume.commit_dump(self.catalog, self.pool, day,
                                            dump, drive, payload)
            results[payload["name"]] = (backup_set, payload)
            events.extend(day_events)
        self.catalog.save()
        self.day += 1
        return results, events

    def run(self, days: int) -> int:
        """Run ``days`` consecutive campaign days; returns the next day."""
        for _ in range(days):
            self.run_day()
        return self.day


# ---------------------------------------------------------------------------
# Point-in-time restore from the catalog
# ---------------------------------------------------------------------------

def restore_point_in_time(
    catalog,
    pool,
    fsid: str,
    subtree: str = "/",
    day: Optional[int] = None,
    strategy: Optional[str] = None,
    geometry=None,
    costs: Optional[CostModel] = None,
    name: Optional[str] = None,
):
    """Restore (fsid, subtree) to ``day`` from exactly the chain's media.

    Returns ``(fs, plan)``: a mounted file system holding the restored
    state and the :class:`~repro.catalog.records.RestorePlan` that was
    replayed.  Logical chains restore into a freshly formatted volume
    (``geometry`` chooses its shape — cross-geometry restore is the
    logical strategy's strength); image chains rebuild a volume of the
    geometry recorded on the tape itself.
    """
    plan = catalog.chain_for(fsid, subtree=subtree, target_day=day,
                             strategy=strategy)
    name = name or "restore.%s" % fsid
    if plan.strategy == STRATEGY_LOGICAL:
        volume = RaidVolume(geometry or make_geometry(2, 4, 2500), name=name)
        fs = WaflFilesystem.format(volume)
        symtab = None
        for backup_set in plan.sets:
            drive = pool.drive_for_restore(backup_set)
            result = drain_engine(
                LogicalRestore(fs, drive, symtab=symtab, costs=costs).run()
            )
            symtab = result.symtab
        fs.consistency_point()
        return fs, plan

    first_drive = pool.drive_for_restore(plan.sets[0])
    first_drive.rewind()
    header = ImageHeader.unpack_from_stream(first_drive.read)
    volume = RaidVolume(header.geometry, name=name)
    for backup_set in plan.sets:
        drive = pool.drive_for_restore(backup_set)
        drain_engine(ImageRestore(volume, drive, costs=costs).run())
    return WaflFilesystem.mount(volume), plan


__all__ = [
    "CampaignDriver",
    "CampaignVolume",
    "DAILY_SNAPSHOT",
    "day_mutation",
    "restore_point_in_time",
    "run_tenant_day_resident",
    "run_volume_day",
]
