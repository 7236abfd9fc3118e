"""The four ledger workloads.

Each workload builds its inputs from the seed (``setup``), runs one
timed iteration at a time (``iterate``), checks that iteration's outputs
outside the timed region (``check``) and checks the run as a whole at
the end (``finish``).  Everything runs single-threaded in this process
(``jobs=1`` everywhere).

How the seed is used.  The generator's file sizes have a Pareto tail
(2 % of files, 1 MB to 64 MB) that puts half a volume's bytes in a dozen
files, so two fully re-seeded trees differ by +-20 % in files and bytes,
and one tail draw in a campaign day multiplies every later dump — more
than any code change this benchmark is meant to resolve.  The
*populations* therefore use fixed seeds (the canonical aged tree of
EXPERIMENTS.md for the tables), and ``--seed`` drives what happens to
them: a day of light-tailed mutations on top of the table environments,
the campaign's chaos plan, every fleet day's mutations.  Inputs still
differ between seeds; their size stays comparable.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import random
from contextlib import nullcontext
from typing import Dict, List, Optional, Tuple

from repro.backup.logical.dump import LogicalDump
from repro.backup.logical.dumpdates import DumpDates
from repro.backup.logical.restore import LogicalRestore
from repro.backup.physical.dump import ImageDump
from repro.backup.physical.restore import ImageRestore
from repro.backup.verify import verify_trees
from repro.bench.configs import EliotConfig, ExperimentEnv
from repro.bench.harness import table2_from_basic
from repro.bench.paper import TABLE2
from repro.catalog.store import BackupCatalog
from repro.chaos.campaign import ChaosCampaignDriver
from repro.chaos.plan import ChaosPlan
from repro.chaos.verify import campaign_state_digests, compare_digests
from repro.fleet.service import FleetService
from repro.fleet.tenant import FleetSpec, TenantSpec
from repro.manager.campaign import CampaignDriver, restore_point_in_time
from repro.manager.media import MediaPool
from repro.manager.retention import prune
from repro.manager.schedule import parse_schedule
from repro.nvram.log import NvramLog
from repro.perf.executor import TimedRun
from repro.raid.layout import make_geometry
from repro.raid.volume import RaidVolume
from repro.storage.persist import save_volume
from repro.units import MB
from repro.wafl.filesystem import WaflFilesystem
from repro.wafl.fsck import fsck
from repro.workload.distributions import FileSizeDistribution
from repro.workload.generator import WorkloadGenerator
from repro.workload.mutate import MutationConfig, apply_mutations

#: Seed of every fixed population (the repo's own default).
POPULATION_SEED = 1999

#: The generator's log-normal body without its Pareto tail.
LIGHT_TAILED = FileSizeDistribution(tail_probability=0.0,
                                    max_bytes=256 * 1024)


class NullRecorder:
    """Stands in for the span recorder when tracing is off."""

    _NULL = nullcontext()

    def span(self, name: str):
        return self._NULL

    def begin_iteration(self, iteration: int) -> None:
        pass

    def end_iteration(self) -> None:
        pass


class Tally:
    """Attempted and failed checks, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems[:20 - len(self.problems)])


class Outcome:
    """What one timed iteration did."""

    def __init__(self):
        self.work = 0.0          # in the workload's work unit
        self.protected_bytes = 0  # active bytes the dumps covered
        self.tape_bytes = 0      # bytes the dumps wrote to tape
        self.sim_seconds = 0.0   # simulated seconds of the engine jobs
        self.sim_bytes = 0       # tape bytes those jobs moved
        self.sim_digest: Optional[str] = None  # must repeat every iteration
        self.tally = Tally()     # engine-level checks made while timed
        self.volumes: List[Tuple[str, WaflFilesystem]] = []  # to post-check
        self.extra: Dict[str, float] = {}


# Stripe count up to which RaidVolume.verify_parity() (one Python-level
# read per member per stripe) is affordable as a per-iteration check.
_FULL_PARITY_STRIPES = 20_000


def _xor(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "little")
            ^ int.from_bytes(b, "little")).to_bytes(len(a), "little")


def parity_holds(volume: RaidVolume) -> bool:
    """Every stripe's parity, via ``verify_parity()`` where that is
    affordable.  The big-map volume has two million stripes of which a
    few thousand hold data; there only stripes with a non-zero member
    are XORed (an all-zero stripe is consistent by construction)."""
    if all(group.geometry.blocks_per_disk <= _FULL_PARITY_STRIPES
           for group in volume.groups):
        return volume.verify_parity()
    for group in volume.groups:
        expected: Dict[int, bytes] = {}
        for disk in group.data_disks:
            for stripe, contents in disk.nonzero_blocks():
                seen = expected.get(stripe)
                expected[stripe] = (contents if seen is None
                                    else _xor(seen, contents))
        zero = bytes(group.block_size)
        parity = dict(group.parity_disk.nonzero_blocks())
        for stripe in expected.keys() | parity.keys():
            if expected.get(stripe, zero) != parity.get(stripe, zero):
                return False
    return True


def check_volume(tally: Tally, label: str, fs: WaflFilesystem) -> None:
    """The universal post-condition: fsck clean and parity consistent."""
    report = fsck(fs)
    tally.expect(report.clean, "%s: fsck %s" % (label, report.errors[:3]))
    tally.expect(parity_holds(fs.volume), "%s: parity mismatch" % label)


def _digest(document) -> str:
    return hashlib.sha256(
        json.dumps(document, sort_keys=True).encode()).hexdigest()


class Workload:
    name = ""
    why = ""
    work_unit = ""
    warmups = 1
    #: Iterations between two machine-speed probes.
    probe_every = 1
    #: Leading timed iterations that tape_amp, sim_mb_s and peak_rss_mb
    #: are taken over, so that they do not depend on how many iterations
    #: the time budget happened to fit.
    window = 3
    min_iterations = 3
    #: Simulated days one iteration covers.
    days = 1

    def setup(self, seed: int, workdir: str, rec):
        raise NotImplementedError

    def iterate(self, state, rec) -> Outcome:
        raise NotImplementedError

    def check(self, state, outcome: Outcome, tally: Tally) -> None:
        for label, fs in outcome.volumes:
            check_volume(tally, label, fs)

    def finish(self, state, rec, tally: Tally) -> None:
        pass

    def input_digest(self, state) -> str:
        """Identifies the generated inputs (the seed must change it)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Tables 2/3: the four single-drive operations
# ---------------------------------------------------------------------------

def _engine_result(engine):
    """One engine in its own TimedRun (not ``run_basic_op``, which would
    re-run the dump inside each restore)."""
    run = TimedRun()
    run.add_job("job", engine)
    return run.run()["job"]


def _job_document(result) -> Dict:
    return {
        "elapsed": result.elapsed, "cpu": result.cpu_seconds,
        "tape": result.tape_bytes, "disk": result.disk_bytes,
        "stages": [(name, result.stages[name].elapsed,
                    result.stages[name].cpu_seconds)
                   for name in result.stage_order],
    }


class TableWorkload(Workload):
    """LogicalDump, ImageDump, LogicalRestore, ImageRestore, mount and
    two verify_trees against one clone of the aged ``home`` volume."""

    work_unit = "MB"
    warmups = 2

    def __init__(self, name: str, why: str, scale: int,
                 data_cap: Optional[int], aging_rounds: int):
        self.name = name
        self.why = why
        self.scale = scale
        self.data_cap = data_cap
        self.aging_rounds = aging_rounds

    def setup(self, seed: int, workdir: str, rec) -> ExperimentEnv:
        env = ExperimentEnv(EliotConfig(
            scale=self.scale, seed=POPULATION_SEED,
            aging_rounds=self.aging_rounds, data_cap=self.data_cap))
        env.build_home()
        # The seeded part: one day of modifies, renames and creates on
        # the canonical tree, sizes from the log-normal body only.  No
        # deletes: one unlucky pick among the big-map volume's few files
        # would take a tenth of its data away.
        apply_mutations(
            env.home_fs, env.home_tree,
            MutationConfig(delete_fraction=0.0, seed=seed),
            sizes=LIGHT_TAILED)
        return env

    def input_digest(self, env: ExperimentEnv) -> str:
        return _digest(sorted(env.home_tree.files))

    def iterate(self, env: ExperimentEnv, rec) -> Outcome:
        outcome = Outcome()
        with rec.span("clone"):
            work = env.clone()
        fs = work.home_fs
        costs = work.config.cost_model()
        data_bytes = work.data_bytes("home")
        logical_drive = work.new_drive("ledger-logical")
        physical_drive = work.new_drive("ledger-physical")
        basic = {"data_bytes": data_bytes}
        with rec.span("logical-dump"):
            basic["logical-dump"] = _engine_result(LogicalDump(
                fs, logical_drive, level=0, dumpdates=DumpDates(),
                costs=costs).run())
        with rec.span("physical-dump"):
            basic["physical-dump"] = _engine_result(ImageDump(
                fs, physical_drive, costs=costs).run())
        with rec.span("logical-restore"):
            restore_fs = WaflFilesystem.format(work.fresh_home_volume(),
                                               nvram=NvramLog())
            basic["logical-restore"] = _engine_result(LogicalRestore(
                restore_fs, logical_drive, costs=costs).run())
        with rec.span("physical-restore"):
            image_volume = work.fresh_home_volume()
            basic["physical-restore"] = _engine_result(ImageRestore(
                image_volume, physical_drive, costs=costs).run())
        with rec.span("mount"):
            image_fs = WaflFilesystem.mount(image_volume)
        with rec.span("verify"):
            basic["logical_diffs"] = verify_trees(fs, restore_fs,
                                                  check_mtime=True)
            basic["physical_diffs"] = verify_trees(fs, image_fs,
                                                   check_mtime=True)
        outcome.tally.expect(not basic["logical_diffs"],
                             "logical restore differs: %s"
                             % basic["logical_diffs"][:3])
        outcome.tally.expect(not basic["physical_diffs"],
                             "image restore differs: %s"
                             % basic["physical_diffs"][:3])
        ops = ("logical-dump", "physical-dump",
               "logical-restore", "physical-restore")
        outcome.work = 4 * data_bytes / MB
        outcome.protected_bytes = 2 * data_bytes
        outcome.tape_bytes = (basic["logical-dump"].tape_bytes
                              + basic["physical-dump"].tape_bytes)
        outcome.sim_seconds = sum(basic[op].elapsed for op in ops)
        outcome.sim_bytes = sum(basic[op].tape_bytes for op in ops)
        outcome.sim_digest = _digest([_job_document(basic[op]) for op in ops])
        table = table2_from_basic(basic, self.scale)
        outcome.extra["sim_err_pct"] = 100.0 * sum(
            abs(table.row("%s MBytes/second" % label).ratio - 1.0)
            for label in TABLE2) / len(TABLE2)
        outcome.volumes = [("logical restore", restore_fs),
                           ("image restore", image_fs)]
        return outcome


# ---------------------------------------------------------------------------
# A two-volume campaign, three ways: plain, chaos oracle, chaos
# ---------------------------------------------------------------------------

class CampaignWorkload(Workload):
    name = "campaign_chaos"
    why = ("small incremental writes beside full reads: CP/snapshot/mutate "
           "paths, JSON catalog image, zlib volume saves, all three "
           "day-runners and chaos recovery")
    work_unit = "volume-days"
    warmups = 1

    VOLUMES = (("home", "logical"), ("rlse", "image"))
    SCHEDULE = "gfs:4x2"  # fulls on days 0 and 8
    POLICY = "redundancy 1"
    #: Seed of the daily mutations, the same on every run: the driver
    #: draws their sizes from the Pareto-tailed default (see above), and
    #: a day that logs no operation makes crash recovery differ from the
    #: oracle by one consistency point (README, known limits).
    MUTATION_SEED = 2

    def __init__(self, days: int = 14, data_bytes: int = 3 * MB,
                 blocks_per_disk: int = 3000):
        self.days = days
        self.data_bytes = data_bytes
        self.blocks_per_disk = blocks_per_disk
        self.restore_day = days - 1

    def setup(self, seed: int, workdir: str, rec) -> Dict:
        volumes = []
        for index, (name, strategy) in enumerate(self.VOLUMES):
            raid = RaidVolume(make_geometry(2, 4, self.blocks_per_disk),
                              name=name)
            fs = WaflFilesystem.format(raid, nvram=NvramLog())
            tree = WorkloadGenerator(
                sizes=LIGHT_TAILED,
                seed=POPULATION_SEED + index).populate(fs, self.data_bytes)
            fs.consistency_point()
            volumes.append((fs, tree, strategy))
        os.makedirs(workdir, exist_ok=True)
        return {"seed": seed, "volumes": volumes, "workdir": workdir}

    def input_digest(self, state: Dict) -> str:
        plan = ChaosPlan(state["seed"])
        return _digest([plan.to_json(self.days, len(self.VOLUMES)),
                        state["seed"]])

    def _campaign(self, state: Dict, label: str, plan: Optional[ChaosPlan]):
        """One whole campaign over fresh clones of the set-up volumes."""
        base = os.path.join(state["workdir"], label)
        for leftover in (base + ".catalog.json", base + ".events.jsonl"):
            if os.path.exists(leftover):
                os.remove(leftover)
        catalog = BackupCatalog(base + ".catalog.json")
        pool = MediaPool(catalog)
        pool.add_blank(80, capacity=4 * MB)
        if plan is None:
            driver = CampaignDriver(catalog, pool, seed=self.MUTATION_SEED,
                                    keep_daily_snapshots=True)
        else:
            driver = ChaosCampaignDriver(
                catalog, pool, plan, events_path=base + ".events.jsonl",
                seed=self.MUTATION_SEED, keep_daily_snapshots=True)
        for fs, tree, strategy in state["volumes"]:
            driver.add_volume(fs.clone_volume(nvram=NvramLog()),
                              copy.deepcopy(tree), strategy,
                              parse_schedule(self.SCHEDULE))
            catalog.set_policy(fs.volume.name, "/", self.POLICY, save=False)
        driver.run(self.days)
        return catalog, pool, driver

    def _save(self, state: Dict, label: str, pool, driver) -> Dict[str, str]:
        base = os.path.join(state["workdir"], label)
        pool.save(base + ".media")
        paths = {}
        for volume in driver.volumes:
            volume.fs.consistency_point()
            paths[volume.fsid] = base + ".%s.vol" % volume.fsid
            save_volume(volume.fs.volume, paths[volume.fsid])
        return campaign_state_digests(base + ".catalog.json",
                                      base + ".media", paths)

    def iterate(self, state: Dict, rec) -> Outcome:
        outcome = Outcome()
        chaos_seed = state["seed"]
        with rec.span("plain"):
            plain = self._campaign(state, "plain", None)
        with rec.span("oracle"):
            oracle = self._campaign(state, "oracle",
                                    ChaosPlan(chaos_seed, enabled=False))
        with rec.span("chaos"):
            chaos = self._campaign(state, "chaos",
                                   ChaosPlan(chaos_seed, rate=0.5))
        with rec.span("save"):
            oracle_digests = self._save(state, "oracle", *oracle[1:])
            chaos_digests = self._save(state, "chaos", *chaos[1:])
        with rec.span("digest"):
            mismatches = compare_digests(oracle_digests, chaos_digests)
        outcome.tally.expect(not mismatches,
                             "chaos state diverges from its oracle: %s"
                             % [key for key, _l, _r in mismatches])
        outcome.extra["digest_mismatches"] = len(mismatches)
        catalog, pool, driver = chaos
        with rec.span("prune"):
            retired = prune(catalog, pool, now_day=self.days - 1)
        outcome.tally.expect(bool(retired), "prune retired nothing")
        with rec.span("restore"):
            for volume in driver.volumes:
                restored, _plan = restore_point_in_time(
                    catalog, pool, volume.fsid, day=self.restore_day)
                diffs = verify_trees(
                    volume.fs.snapshot_view("day.%d" % self.restore_day),
                    restored)
                outcome.tally.expect(not diffs, "%s day-%d restore: %s" % (
                    volume.fsid, self.restore_day, diffs[:3]))
                outcome.volumes.append(("%s restore" % volume.fsid, restored))
        outcome.tally.expect(
            any(event["outcome"] == "hit" for event in driver.events),
            "the chaos plan injected no fault")
        simulated = []
        for label, (run_catalog, _pool, run_driver) in (
                ("plain", plain), ("oracle", oracle), ("chaos", chaos)):
            outcome.tally.expect(
                len(run_catalog.sets) == self.days * len(self.VOLUMES),
                "%s campaign catalogued %d sets" % (label,
                                                    len(run_catalog.sets)))
            problems = run_catalog.validate_no_orphans()
            outcome.tally.expect(not problems, "%s catalog: %s"
                                 % (label, problems[:3]))
            active = {volume.fsid: (volume.fs.statfs()["active_blocks"]
                                    * volume.fs.volume.block_size)
                      for volume in run_driver.volumes}
            for backup_set in run_catalog.sets.values():
                outcome.tape_bytes += backup_set.bytes_to_tape
                outcome.protected_bytes += active[backup_set.fsid]
                outcome.sim_seconds += (backup_set.end_time
                                        - backup_set.start_time)
                simulated.append((label, backup_set.set_id, backup_set.level,
                                  backup_set.bytes_to_tape,
                                  backup_set.start_time, backup_set.end_time))
            for volume in run_driver.volumes:
                outcome.volumes.append(("%s %s" % (label, volume.fsid),
                                        volume.fs))
        outcome.sim_bytes = outcome.tape_bytes
        outcome.sim_digest = _digest(simulated)
        outcome.work = 3 * self.days * len(self.VOLUMES)
        return outcome


# ---------------------------------------------------------------------------
# The warm fleet daemon
# ---------------------------------------------------------------------------

class FleetWorkload(Workload):
    name = "fleet_warm"
    why = ("the control plane and many tiny ops: sim+perf per job, media "
           "pool, catalog journal + fsync, scheduler, in-process dispatch; "
           "the bulk data plane is nearly idle")
    work_unit = "jobs"
    warmups = 0
    probe_every = 8

    min_iterations = 16

    #: (population seed, data_bytes): twelve populations of 4 to 9 files.
    #: With fewer than 13 files the service's daily mutation (8 % of the
    #: files, sizes from the Pareto-tailed default) rounds to nothing, so
    #: the fleet is stationary: a day costs the same however many days a
    #: run fits.  A tenant that does mutate grows without bound, runs its
    #: media pool dry within ~100 days and, once nearly full, trips a
    #: block-pointer error (README, known limits).
    POPULATIONS = (
        (1999, 200_000), (2000, 220_000), (2001, 240_000), (2002, 260_000),
        (2004, 280_000), (2008, 300_000), (2010, 320_000), (2015, 340_000),
        (2016, 200_000), (2017, 220_000), (2019, 240_000), (2020, 260_000))

    def __init__(self, tenants: int = 12, window: int = 64):
        self.tenants = tenants
        self.window = window

    def _spec(self, seed: int) -> FleetSpec:
        """The seed deals the roles (lane, strategy, schedule, retention)
        and the scheduler weights out to the fixed populations."""
        strategies = ("logical", "image")
        schedules = ("gfs:4x2", "hanoi:3")
        retentions = ("redundancy 2", "window 10 days")
        lanes = ("daily", "background")
        roles = [(lanes[index % 2], strategies[index % 2],
                  schedules[(index // 2) % 2], retentions[(index // 3) % 2])
                 for index in range(self.tenants)]
        rng = random.Random(seed)
        rng.shuffle(roles)
        tenants = [
            TenantSpec("t%02d" % index, lane=lane, strategy=strategy,
                       schedule=schedule, retention=retention,
                       weight=rng.randrange(1, 4), data_bytes=data_bytes,
                       seed=population_seed, cartridges=200,
                       cartridge_capacity=2_000_000, blocks_per_disk=900)
            for index, ((population_seed, data_bytes),
                        (lane, strategy, schedule, retention))
            in enumerate(zip(self.POPULATIONS, roles))]
        return FleetSpec(tenants=tenants, drives=4, seed=seed)

    def setup(self, seed: int, workdir: str, rec) -> Dict:
        """The cold lifecycle: init, three days with the shutdown
        checkpoint, reopen, one day."""
        FleetService.init_fleet(workdir, self._spec(seed))
        FleetService(workdir, jobs=1).run_days(3)
        with rec.span("restart"):
            service = FleetService(workdir, jobs=1)
        service.run_day()
        busy = [tenant.name for tenant in service.tenants.values()
                if len(tenant.volume.tree.files) >= 13]
        if busy:
            raise ValueError("tenants %s would mutate daily" % busy)
        return {"service": service, "root": workdir,
                "events_mark": len(service.scheduler.events)}

    def input_digest(self, state: Dict) -> str:
        return _digest(state["service"].spec.to_dict())

    def iterate(self, state: Dict, rec) -> Outcome:
        outcome = Outcome()
        stats = state["service"].run_day()
        outcome.work = stats["jobs"]
        outcome.tape_bytes = stats["bytes_to_tape"]
        outcome.tally.expect(stats["jobs"] == self.tenants,
                             "day ran %d of %d jobs"
                             % (stats["jobs"], self.tenants))
        return outcome

    def check(self, state: Dict, outcome: Outcome, tally: Tally) -> None:
        service = state["service"]
        events = service.scheduler.events
        finished = [event for event in events[state["events_mark"]:]
                    if event["event"] == "finish"]
        state["events_mark"] = len(events)
        outcome.sim_seconds = sum(event["sim_seconds"] for event in finished)
        outcome.sim_bytes = sum(event["bytes_to_tape"]
                                for event in finished)
        outcome.protected_bytes = sum(
            tenant.volume.fs.statfs()["active_blocks"]
            * tenant.volume.fs.volume.block_size
            for tenant in service.tenants.values())

    def finish(self, state: Dict, rec, tally: Tally) -> None:
        with rec.span("checkpoint"):
            state["service"].run_days(0)
        reopened = FleetService(state["root"], jobs=1)
        _check_event_log(tally, FleetService.events_path(state["root"]))
        for index, tenant in enumerate(reopened.tenants.values()):
            problems = tenant.catalog.validate_no_orphans()
            tally.expect(not problems, "%s catalog: %s"
                         % (tenant.name, problems[:3]))
            if index >= 2:
                continue  # one restore drill per strategy
            restored, _plan = restore_point_in_time(
                tenant.catalog, tenant.pool, tenant.name,
                name="restore.%s" % tenant.name)
            diffs = verify_trees(tenant.volume.fs, restored)
            tally.expect(not diffs, "%s restore: %s"
                         % (tenant.name, diffs[:3]))
            check_volume(tally, "%s restore" % tenant.name, restored)
            check_volume(tally, tenant.name, tenant.volume.fs)


def _check_event_log(tally: Tally, path: str) -> None:
    """events.jsonl: job ids gapless, every job submitted, started and
    finished exactly once, ticks never going back."""
    seen: Dict[str, List[str]] = {}
    last_tick = 0
    ordered = True
    with open(path) as handle:
        for line in handle:
            event = json.loads(line)
            ordered = ordered and event["tick"] >= last_tick
            last_tick = event["tick"]
            if event["event"] != "affinity":
                seen.setdefault(event["job"], []).append(event["event"])
    tally.expect(ordered, "event log ticks go backwards")
    tally.expect(list(seen) == ["J%05d" % n for n in range(len(seen))],
                 "event log job sequence has gaps")
    broken = [job for job, events in seen.items()
              if events != ["submit", "start", "finish"]]
    tally.expect(not broken, "jobs without submit/start/finish: %s"
                 % broken[:3])


def build_workloads(smoke: bool = False) -> Dict[str, Workload]:
    """The four workloads; ``smoke`` is the tiny sizing of the self-test."""
    if smoke:
        members = [
            TableWorkload("table2_4k", "smoke", scale=64000, data_cap=None,
                          aging_rounds=1),
            TableWorkload("table2_bigmap", "smoke", scale=400,
                          data_cap=1 * MB, aging_rounds=1),
            CampaignWorkload(days=10, data_bytes=MB // 2,
                             blocks_per_disk=1200),
            FleetWorkload(tenants=4, window=6),
        ]
    else:
        members = [
            TableWorkload(
                "table2_4k",
                "the paper's Tables 2/3 at 1:4000 (61 MB): the data plane "
                "(raid, disk, wafl read path, buffer cache, dumpfmt) does "
                "the work; address-space-proportional code does none",
                scale=4000, data_cap=None, aging_rounds=2),
            TableWorkload(
                "table2_bigmap",
                "same code on a 23 GB address space holding 8 MB: blockmap "
                "planes, mount, clone and sparse zero-fill reads dominate "
                "and the data plane is the minority",
                scale=8, data_cap=8 * MB, aging_rounds=1),
            CampaignWorkload(),
            FleetWorkload(),
        ]
    return {workload.name: workload for workload in members}
