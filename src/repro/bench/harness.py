"""Experiment runners: one function per paper table.

Each runner clones the scaled testbed as ``build_home_env`` mounted it
(cold, and unseen by the next), executes the real engines under the
timed executor, verifies the restored data bit-for-bit, and returns
:class:`~repro.bench.report.Table` objects holding measured-vs-paper rows.

Scale handling: throughput (MB/s, GB/h) and utilization are
scale-invariant and compared directly.  Every elapsed cell is
extrapolated by one rule, :func:`paper_seconds`: the fixed snapshot
stages multiply by the scale (undoing ``EliotConfig.cost_model``), every
other stage by the paper's 188 GB over the bytes the replica holds.
Table 2's elapsed cell is the sum of the Table 3 stage times it prints.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import ReproError
from repro.backup.logical.dump import (
    STAGE_DIRS,
    STAGE_FILES,
    STAGE_MAPPING,
    STAGE_SNAP_CREATE,
    STAGE_SNAP_DELETE,
    LogicalDump,
)
from repro.backup.logical.dumpdates import DumpDates
from repro.backup.logical.restore import (
    STAGE_CREATE,
    STAGE_FILL,
    LogicalRestore,
)
from repro.backup.physical.dump import ImageDump
from repro.backup.physical.dump import STAGE_BLOCKS as STAGE_DUMP_BLOCKS
from repro.backup.physical.restore import ImageRestore
from repro.backup.physical.restore import STAGE_BLOCKS as STAGE_RESTORE_BLOCKS
from repro.backup.physical.incremental import classify_all
from repro.backup.verify import verify_trees
from repro.bench import paper
from repro.bench.configs import EliotConfig, ExperimentEnv, build_home_env
from repro.bench.report import Table
from repro.nvram.log import NvramLog
from repro.perf.executor import JobResult, TimedRun
from repro.units import HOUR, MB, gb_per_hour
from repro.wafl.filesystem import WaflFilesystem

#: Stages of fixed duration, which ``EliotConfig.cost_model`` divides by
#: the scale whatever the volume holds.
_FIXED_STAGES = (STAGE_SNAP_CREATE, STAGE_SNAP_DELETE)


def paper_seconds(stage_name: str, elapsed: float, data_bytes: int,
                  scale: int) -> float:
    """The one place a model second becomes a paper second.

    A fixed stage multiplies by ``scale``; every other stage moves the
    replica's ``data_bytes`` and stretches by the paper volume over them.
    """
    if stage_name in _FIXED_STAGES:
        return elapsed * scale
    return elapsed * paper.HOME_BYTES / data_bytes


# ---------------------------------------------------------------------------
# Table 1 — incremental image-dump block states
# ---------------------------------------------------------------------------

def run_table1(scale_bytes: int = 8 * MB, seed: int = 3) -> Tuple[Table, Dict]:
    """Reproduce Table 1: classify every block by its A/B plane bits and
    check the incremental dump carries exactly the 'newly written' set."""
    from repro.raid.layout import geometry_for_capacity
    from repro.raid.volume import RaidVolume
    from repro.workload.generator import WorkloadGenerator
    from repro.workload.mutate import MutationConfig, apply_mutations
    from repro.backup.common import drain_engine
    from repro.backup.physical.incremental import incremental_block_set
    from repro.storage.tape import TapeDrive, TapeStacker

    geometry = geometry_for_capacity(scale_bytes, ngroups=2, ndata_disks=6)
    volume = RaidVolume(geometry, name="t1")
    fs = WaflFilesystem.format(volume)
    tree = WorkloadGenerator(seed=seed).populate(fs, scale_bytes // 2)
    record_a = fs.snapshot_create("A")
    apply_mutations(fs, tree, MutationConfig(seed=seed + 1))
    record_b = fs.snapshot_create("B")

    counts = classify_all(fs.blockmap, record_a.snap_id, record_b.snap_id)
    expected = incremental_block_set(fs.blockmap, record_b.snap_id,
                                     record_a.snap_id)

    drive = TapeDrive(TapeStacker.with_blank_tapes(4, name="t1"))
    result = drain_engine(
        ImageDump(fs, drive, snapshot_name="B", base_snapshot="A").run()
    )

    table = Table("Table 1 — block states for incremental image dump")
    from repro.backup.physical.incremental import (
        DELETED, NEWLY_WRITTEN, NOT_IN_EITHER, UNCHANGED,
    )
    table.add("0 0  %s" % NOT_IN_EITHER, counts[NOT_IN_EITHER])
    table.add("0 1  %s" % NEWLY_WRITTEN, counts[NEWLY_WRITTEN])
    table.add("1 0  %s" % DELETED, counts[DELETED])
    table.add("1 1  %s" % UNCHANGED, counts[UNCHANGED])
    table.add("incremental dump block count", result.blocks,
              counts[NEWLY_WRITTEN],
              note="must equal the 'newly written' count")
    checks = {
        "incremental_matches": result.blocks == counts[NEWLY_WRITTEN]
        == len(expected),
        "counts": counts,
    }
    return table, checks


# ---------------------------------------------------------------------------
# Tables 2 and 3 — basic single-drive backup and restore, and the one
# dump → restore → verify runner of Tables 2-5
# ---------------------------------------------------------------------------

#: The two backup strategies of Tables 2-5, as independent task names.
BASIC_STRATEGIES = ("logical", "physical")


def run_strategy(env: ExperimentEnv, strategy: str) -> Dict:
    """Dump, restore and verify one strategy on a private clone of ``env``.

    The one runner of Tables 2-5.  The drives come from the environment:
    one per qtree (Tables 4/5: "we used quota trees"), or one for the
    whole volume.  Logical runs one dump per qtree, each to its drive,
    then one restore per drive into its qtree of a fresh file system;
    physical stripes one image over every drive, then restores each
    drive's stream as its own job onto a volume of home's geometry.  The
    jobs of one operation run side by side in one :class:`TimedRun`.

    The clone means a strategy's numbers are a function of (configuration,
    strategy) alone — not of what ran before it in this process, nor of
    which worker it landed in — and that ``env`` itself is never touched.
    Returns a payload dict: ``strategy``, ``dump`` and ``restore`` (each
    one :class:`JobResult`, merged over the drives), ``data_bytes`` and
    ``diffs`` (the verify-trees difference count, 0 when bit-perfect).
    Nothing in it refers to the clone, so the clone dies with this call.
    """
    work = env.clone()
    fs = work.home_fs
    data_bytes = work.data_bytes("home")
    costs = work.config.cost_model()
    subtrees = work.qtree_paths or ["/"]
    drives = work.new_drives(len(subtrees), strategy)

    def timed(op: str, engines) -> JobResult:
        run = TimedRun()
        for index, engine in enumerate(engines):
            run.add_job("%s-%s.%d" % (strategy, op, index), engine.run())
        return JobResult.merged(run.run().values())

    if strategy == "logical":
        dumpdates = DumpDates()
        dump = timed("dump", [
            LogicalDump(fs, drive, level=0, subtree=subtree,
                        dumpdates=dumpdates, costs=costs)
            for subtree, drive in zip(subtrees, drives)])
        # Onto a fresh file system, through NVRAM, as shipped.
        restored = WaflFilesystem.format(work.fresh_home_volume(),
                                         nvram=NvramLog())
        restore = timed("restore", [
            LogicalRestore(restored, drive, into=subtree, costs=costs)
            for subtree, drive in zip(subtrees, drives)])
    elif strategy == "physical":
        dump = timed("dump", [ImageDump(fs, drives, costs=costs)])
        # Onto identical geometry; each drive's stream is self-contained,
        # and only one of several carries the file system's root.
        image_volume = work.fresh_home_volume()
        restore = timed("restore", [
            ImageRestore(image_volume, drive, costs=costs,
                         expect_fsinfo=len(drives) == 1)
            for drive in drives])
        restored = WaflFilesystem.mount(image_volume)
    else:
        raise ReproError("unknown backup strategy %r" % (strategy,))
    # The volume root itself is outside every qtree dump.
    ignore = ["/"] if work.qtree_paths else None
    return {
        "strategy": strategy,
        "dump": dump,
        "restore": restore,
        "data_bytes": data_bytes,
        "diffs": len(verify_trees(fs, restored, check_mtime=True,
                                  ignore=ignore)),
    }


def basic_from_strategies(payloads) -> Dict:
    """The dict Tables 2-5 are read from, out of :func:`run_strategy`
    payloads."""
    basic: Dict = {}
    for payload in payloads:
        strategy = payload["strategy"]
        basic["%s-dump" % strategy] = payload["dump"]
        basic["%s-restore" % strategy] = payload["restore"]
        basic["%s_diffs" % strategy] = payload["diffs"]
        basic["data_bytes"] = payload["data_bytes"]
    return basic


def run_basic(env: Optional[ExperimentEnv] = None) -> Dict:
    """Both strategies, one after the other; ``env`` is left untouched."""
    env = env or build_home_env()
    return basic_from_strategies(run_strategy(env, strategy)
                                 for strategy in BASIC_STRATEGIES)


def _diff_count(diffs) -> int:
    return diffs if isinstance(diffs, int) else len(diffs)


def _op_rate(result: JobResult, data_bytes: int) -> float:
    """MB/s over the stages that move the data."""
    data_seconds = sum(stage.elapsed for name, stage in result.stages.items()
                       if name not in _FIXED_STAGES)
    return data_bytes / MB / data_seconds if data_seconds > 0 else 0.0


def run_table2(env: Optional[ExperimentEnv] = None) -> Table:
    """Table 2: elapsed time, MB/s, GB/hour for the four operations."""
    env = env or build_home_env()
    return table2_from_basic(run_basic(env), env.config.scale)


def table2_from_basic(basic: Dict, scale: int) -> Table:
    """Assemble Table 2 from a basic-results dict (see
    :func:`basic_from_strategies`)."""
    data_bytes = basic["data_bytes"]
    table = Table(
        "Table 2 — basic backup and restore (1 DLT drive, %s)"
        % ("scale 1:%d" % scale)
    )
    ops = [
        ("Logical Backup", basic["logical-dump"]),
        ("Logical Restore", basic["logical-restore"]),
        ("Physical Backup", basic["physical-dump"]),
        ("Physical Restore", basic["physical-restore"]),
    ]
    rates = {}
    for label, result in ops:
        published = paper.TABLE2[label]
        rate = rates[label] = _op_rate(result, data_bytes)
        # The sum of the stage times Table 3 prints for this op.
        paper_hours = sum(
            paper_seconds(name, stage.elapsed, data_bytes, scale)
            for name, stage in result.stages.items()) / HOUR
        table.add("%s elapsed (extrapolated)" % label, paper_hours,
                  published["hours"], unit="")
        table.add("%s MBytes/second" % label, rate, published["mb_s"])
        table.add("%s GBytes/hour" % label, rate * 3600 / 1024,
                  published["gb_h"])
    table.add("physical/logical backup throughput ratio",
              rates["Physical Backup"] / rates["Logical Backup"],
              paper.CLAIMS["backup_throughput_ratio"])
    table.add("physical/logical restore throughput ratio",
              rates["Physical Restore"] / rates["Logical Restore"],
              paper.CLAIMS["restore_throughput_ratio"])
    table.add("logical restore verified (diff count)",
              _diff_count(basic["logical_diffs"]), 0)
    table.add("physical restore verified (diff count)",
              _diff_count(basic["physical_diffs"]), 0)
    return table


def run_table3(env: Optional[ExperimentEnv] = None) -> Table:
    """Table 3: per-stage elapsed time and CPU utilization."""
    env = env or build_home_env()
    return table3_from_basic(run_basic(env), env.config.scale)


def table3_from_basic(basic: Dict, scale: int) -> Table:
    """Assemble Table 3 from a basic-results dict."""
    table = Table("Table 3 — dump and restore details (per stage)")
    data_bytes = basic["data_bytes"]
    sections = [
        ("Logical Dump", basic["logical-dump"]),
        ("Logical Restore", basic["logical-restore"]),
        ("Physical Dump", basic["physical-dump"]),
        ("Physical Restore", basic["physical-restore"]),
    ]
    for section, result in sections:
        published = dict(
            (name, (seconds, cpu))
            for name, seconds, cpu in paper.TABLE3[section]
        )
        for name in result.stage_order:
            stage = result.stages[name]
            pub = published.get(name)
            table.add("%s / %s time" % (section, name),
                      paper_seconds(name, stage.elapsed, data_bytes, scale),
                      pub[0] if pub else None, unit="s")
            table.add("%s / %s CPU" % (section, name),
                      stage.cpu_utilization(),
                      pub[1] if pub else None, unit="%")
    # Headline claims.
    ld = basic["logical-dump"]
    pd = basic["physical-dump"]
    lr = basic["logical-restore"]
    pr = basic["physical-restore"]
    table.add("logical/physical dump CPU ratio",
              ld.stages[STAGE_FILES].cpu_utilization()
              / pd.stages[STAGE_DUMP_BLOCKS].cpu_utilization(),
              paper.CLAIMS["dump_cpu_ratio"])
    table.add("logical/physical restore CPU ratio",
              lr.cpu_seconds / lr.elapsed
              / pr.stages[STAGE_RESTORE_BLOCKS].cpu_utilization(),
              paper.CLAIMS["restore_cpu_ratio"])
    return table


# ---------------------------------------------------------------------------
# Tables 4 and 5 — parallel backup and restore
# ---------------------------------------------------------------------------

def run_table45(ndrives: int, config: Optional[EliotConfig] = None) -> Table:
    """Tables 4 (2 drives) and 5 (4 drives): Tables 2/3 run again with
    the volume split into one qtree per drive (see :func:`run_strategy`)."""
    if ndrives not in (2, 4):
        raise ReproError("the paper ran 2- and 4-drive configurations")
    config = config or EliotConfig(qtrees=ndrives)
    if config.qtrees != ndrives:
        raise ReproError("config.qtrees must equal ndrives")
    return table45_from_basic(run_basic(build_home_env(config)), ndrives,
                              config.scale)


def table45_from_basic(basic: Dict, ndrives: int, scale: int) -> Table:
    """Assemble Table 4 or 5 from a basic-results dict (see
    :func:`basic_from_strategies`); a strategy it lacks has no rows."""
    published = paper.TABLE4 if ndrives == 2 else paper.TABLE5
    data_bytes = basic["data_bytes"]
    table = Table(
        "Table %d — parallel backup and restore on %d tape drives"
        % (4 if ndrives == 2 else 5, ndrives)
    )
    # (operation, row label, paper section, paper row, stage)
    rows = (
        ("logical-dump", "Logical Mapping", "Logical Backup", "Mapping",
         STAGE_MAPPING),
        ("logical-dump", "Logical Directories", "Logical Backup", "Directories",
         STAGE_DIRS),
        ("logical-dump", "Logical Files", "Logical Backup", "Files", STAGE_FILES),
        ("logical-restore", "Logical Creating files", "Logical Restore",
         "Creating files", STAGE_CREATE),
        ("logical-restore", "Logical Filling in data", "Logical Restore",
         "Filling in data", STAGE_FILL),
        ("physical-dump", "Physical dumping blocks", "Physical Backup",
         "Dumping blocks", STAGE_DUMP_BLOCKS),
        ("physical-restore", "Physical restoring blocks", "Physical Restore",
         "Restoring blocks", STAGE_RESTORE_BLOCKS),
    )
    for op, label, section, paper_row, stage_name in rows:
        if op not in basic or stage_name not in basic[op].stages:
            continue
        stage = basic[op].stages[stage_name]
        pub = next(row[1:] for row in published[section]
                   if row[0] == paper_row)
        table.add("%s time" % label,
                  paper_seconds(stage_name, stage.elapsed, data_bytes, scale),
                  pub[0], unit="s")
        table.add("%s CPU" % label, stage.cpu_utilization(), pub[1], unit="%")
        table.add("%s disk MB/s" % label, stage.disk_rate, pub[2])
        table.add("%s tape MB/s" % label, stage.tape_rate, pub[3])

    strategies = [strategy for strategy in BASIC_STRATEGIES
                  if "%s_diffs" % strategy in basic]
    # Section 5.2 summary (4-drive configuration): logical over the whole
    # dump, physical over its block stage.  Rates are scale-invariant.
    if ndrives == 4:
        for strategy in strategies:
            dump = basic["%s-dump" % strategy]
            wall = (dump.elapsed if strategy == "logical"
                    else dump.stages[STAGE_DUMP_BLOCKS].elapsed)
            gb_h = gb_per_hour(data_bytes, wall)
            name = strategy.capitalize()
            table.add("%s overall GB/hour" % name, gb_h,
                      paper.SUMMARY_4_DRIVES["%s_gb_h" % strategy])
            table.add("%s GB/hour/tape" % name, gb_h / ndrives,
                      paper.SUMMARY_4_DRIVES["%s_gb_h_per_tape" % strategy])
    for strategy in strategies:
        table.add("%s restore verified (diff count)" % strategy,
                  _diff_count(basic["%s_diffs" % strategy]), 0)
    return table


# ---------------------------------------------------------------------------
# Section 5.1 — concurrent volumes do not interfere
# ---------------------------------------------------------------------------

def run_concurrent_volumes(config: Optional[EliotConfig] = None) -> Table:
    """Dump home and rlse concurrently to separate drives; compare with
    each running alone ("each executed in exactly the same amount of
    time as they had when executing in isolation")."""
    env = build_home_env(config, with_rlse=True).clone()
    costs = env.config.cost_model()

    def dump_elapsed(fs, drive, concurrent_with=None) -> Dict[str, float]:
        run = TimedRun()
        run.add_job("a", LogicalDump(fs, drive, level=0,
                                     dumpdates=DumpDates(),
                                     costs=costs).run())
        if concurrent_with is not None:
            other_fs, other_drive = concurrent_with
            run.add_job("b", LogicalDump(other_fs, other_drive, level=0,
                                         dumpdates=DumpDates(),
                                         costs=costs).run())
        results = run.run()
        return {name: result.elapsed for name, result in results.items()}

    solo_home = dump_elapsed(env.home_fs, env.new_drive("cv-h1"))["a"]
    solo_rlse = dump_elapsed(env.rlse_fs, env.new_drive("cv-r1"))["a"]
    both = dump_elapsed(
        env.home_fs, env.new_drive("cv-h2"),
        concurrent_with=(env.rlse_fs, env.new_drive("cv-r2")),
    )
    table = Table("Section 5.1 — concurrent dumps of home and rlse")
    table.add("home solo elapsed", solo_home, unit="s")
    table.add("home concurrent elapsed", both["a"], solo_home, unit="s",
              note="paper: identical to solo")
    table.add("rlse solo elapsed", solo_rlse, unit="s")
    table.add("rlse concurrent elapsed", both["b"], solo_rlse, unit="s",
              note="paper: identical to solo")
    return table


__all__ = [
    "BASIC_STRATEGIES",
    "basic_from_strategies",
    "paper_seconds",
    "run_basic",
    "run_concurrent_volumes",
    "run_strategy",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_table45",
    "table2_from_basic",
    "table3_from_basic",
    "table45_from_basic",
]
