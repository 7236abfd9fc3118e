"""Ablation experiments for the design choices DESIGN.md calls out.

Each ablation isolates one mechanism behind the paper's results:

* **Fragmentation** — the "mature data set" footnote: logical dump slows
  as the file system ages; image dump barely notices.
* **NVRAM bypass** — footnote 2: logical restore goes through NVRAM
  "though there is no inherent need"; bypassing it buys back restore time.
* **Read-ahead** — the kernel dump's own read-ahead policy; with the
  window forced to 1 the producer serializes behind every seek.
* **Buffer cache** — metadata caching; a cold-cache restore pays a disk
  op for every namei step.

Ablations run at a reduced scale (they sweep several configurations) and
report the metric the mechanism moves.

Every sweep is a *point function* — a module-level (picklable) function
taking one sweep coordinate and returning its row tuples, which the
parallel evaluation plane fans out as independent tasks — registered in
:data:`SWEEPS`; ``sweep(key).table()`` runs the same points serially into
a :class:`~repro.bench.report.Table`.  Environments are seeded,
deterministic and mounted cold (``build_home_env``), so a point computed
in a worker process produces exactly the rows the serial loop does.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.backup.logical.dump import READAHEAD_EXTENTS, STAGE_FILES, LogicalDump
from repro.backup.logical.dumpdates import DumpDates
from repro.backup.logical.restore import STAGE_FILL, LogicalRestore
from repro.backup.physical.dump import STAGE_BLOCKS, ImageDump
from repro.bench.configs import EliotConfig, ExperimentEnv, build_home_env
from repro.bench.report import Table
from repro.nvram.log import NvramLog
from repro.perf.costs import HardwareProfile
from repro.perf.executor import JobResult, TimedRun
from repro.units import MB
from repro.wafl.filesystem import WaflFilesystem

ABLATION_SCALE = 4000  # ~47 MB home replica: seconds per configuration

#: A tape fast enough that the disk side shows past the DLT bottleneck:
#: Section 5.1's "remove the bottleneck device" methodology.
FAST_TAPE = HardwareProfile(tape_rate=30.0 * MB)

#: (label, measured, paper, unit, note) — what a point function returns.
RowTuple = Tuple[str, object, object, str, str]


def _scale(scale: Optional[int]) -> int:
    """Resolve a point's scale, reading the module global at call time
    so tests that monkeypatch ``ABLATION_SCALE`` keep working."""
    return ABLATION_SCALE if scale is None else scale


def _point_env(scale: Optional[int], **config) -> ExperimentEnv:
    """One point's private clone of the (process-cached) environment.

    A dump leaves snapshot churn behind; on the shared cached object a
    point would see the leftovers of whichever point ran before it in
    this process, and ``--jobs N`` would differ from the serial run.
    """
    return build_home_env(
        EliotConfig(scale=_scale(scale), **config)).clone()


def _dump_rate(engine, profile: Optional[HardwareProfile] = None) -> float:
    run = TimedRun(profile)
    run.add_job("job", engine)
    result = run.run()["job"]
    stage = result.stages.get(STAGE_FILES) or result.stages[STAGE_BLOCKS]
    return stage.tape_rate


# ---------------------------------------------------------------------------
# Point functions — one sweep coordinate each, picklable rows out
# ---------------------------------------------------------------------------

def fragmentation_point(rounds: int, scale: Optional[int] = None) -> List[RowTuple]:
    """One aging level: who pays for a mature file system?

    The DLT hides the effect at one drive, so the sweep runs on
    :data:`FAST_TAPE` and the disk-side difference shows directly.
    """
    env = _point_env(scale, aging_rounds=rounds, churn_fraction=0.28,
                     seed=2000)
    costs = env.config.cost_model()
    logical = _dump_rate(LogicalDump(
        env.home_fs, env.new_drive(), dumpdates=DumpDates(), costs=costs
    ).run(), FAST_TAPE)
    physical = _dump_rate(ImageDump(
        env.home_fs, env.new_drive(), costs=costs
    ).run(), FAST_TAPE)
    frag = env.fragmentation["mean_extent_blocks"]
    return [
        ("rounds=%d mean extent (blocks)" % rounds, frag, None, "", ""),
        ("rounds=%d logical dump MB/s" % rounds, logical, None, "", ""),
        ("rounds=%d physical dump MB/s" % rounds, physical, None, "", ""),
    ]


def nvram_point(bypass: bool, scale: Optional[int] = None) -> List[RowTuple]:
    """Footnote 2: logical restore with or without the NVRAM logging cost.

    "There is no inherent need for logical restore to go through NVRAM...
    Modifying WAFL's logical restore to avoid NVRAM is in the works."
    The file system still takes its consistency points either way; the
    ablation removes only the per-block log charge.  Each point redoes
    the (deterministic) dump so it is self-contained for a worker.
    """
    env = _point_env(scale, seed=2001)
    drive = env.new_drive("nvram-ab")
    run = TimedRun()
    run.add_job("dump", LogicalDump(env.home_fs, drive,
                                    dumpdates=DumpDates(),
                                    costs=env.config.cost_model()).run())
    run.run()

    label = "bypassing NVRAM" if bypass else "through NVRAM"
    costs = env.config.cost_model()
    if bypass:
        costs.restore_nvram_block = 0.0
    target = WaflFilesystem.format(env.fresh_home_volume(),
                                   nvram=NvramLog())
    run = TimedRun()
    run.add_job("restore", LogicalRestore(target, drive, costs=costs).run())
    result = run.run()["restore"]
    fill = result.stages[STAGE_FILL]
    return [
        ("%s fill MB/s" % label, fill.tape_rate, None, "", ""),
        ("%s fill CPU" % label, fill.cpu_utilization(), None, "%", ""),
        ("%s total elapsed" % label, result.elapsed, None, "s", ""),
    ]


def readahead_point(window: Optional[int],
                    scale: Optional[int] = None) -> List[RowTuple]:
    """Dump with one read-ahead window (``None`` = the shipped default),
    on :data:`FAST_TAPE`: on the DLT every window is tape bound."""
    env = _point_env(scale)
    window = READAHEAD_EXTENTS if window is None else window
    rate = _dump_rate(LogicalDump(
        env.home_fs, env.new_drive(), dumpdates=DumpDates(),
        costs=env.config.cost_model(), readahead_extents=window,
    ).run(), FAST_TAPE)
    return [("window=%d logical files MB/s" % window, rate, None, "", "")]


def cache_point(cache_blocks: int, scale: Optional[int] = None) -> List[RowTuple]:
    """Logical restore against one buffer-cache size (cold metadata reads).

    Like :func:`nvram_point`, the point redoes its own dump so it can run
    in any worker.
    """
    from repro.perf.ops import DiskReadOp

    env = _point_env(scale, seed=2002)
    costs = env.config.cost_model()
    drive = env.new_drive("cache-ab")
    run = TimedRun()
    run.add_job("dump", LogicalDump(env.home_fs, drive,
                                    dumpdates=DumpDates(), costs=costs).run())
    run.run()

    target = WaflFilesystem.format(env.fresh_home_volume(),
                                   nvram=NvramLog(),
                                   cache_blocks=cache_blocks)
    run = TimedRun()
    run.add_job("restore", LogicalRestore(target, drive, costs=costs).run())
    result = run.run()["restore"]
    cold_reads = sum(
        op.nblocks for op in run._jobs[0].ops
        if isinstance(op, DiskReadOp)
    )
    return [
        ("cache=%d blocks cold metadata reads" % cache_blocks,
         cold_reads, None, "", ""),
        ("cache=%d blocks hit rate" % cache_blocks,
         target.volume.cache.hit_rate, None, "%", ""),
        ("cache=%d blocks restore elapsed" % cache_blocks,
         result.elapsed, None, "s", ""),
    ]


def cpu_point(cpus: int, scale: Optional[int] = None) -> List[RowTuple]:
    """4-drive logical dump at one CPU count (Section 5.3)."""
    env = _point_env(scale, qtrees=4)
    costs = env.config.cost_model()
    dumpdates = DumpDates()
    run = TimedRun(HardwareProfile(cpu_count=cpus))
    for index, (subtree, drive) in enumerate(
            zip(env.qtree_paths, env.new_drives(4))):
        run.add_job("dump.%d" % index, LogicalDump(
            env.home_fs, drive, level=0, subtree=subtree,
            dumpdates=dumpdates, costs=costs).run())
    files = JobResult.merged(run.run().values()).stages[STAGE_FILES]
    return [("cpus=%d logical files MB/s (4 drives)" % cpus,
             files.tape_rate, None, "", "")]


# ---------------------------------------------------------------------------
# Sweep registry — what the evaluation plane fans out
# ---------------------------------------------------------------------------

class AblationSweep:
    """One named sweep: a point function plus its coordinate list."""

    __slots__ = ("key", "title", "point_fn", "points")

    def __init__(self, key: str, title: str, point_fn, points: List[Tuple]):
        self.key = key
        self.title = title
        self.point_fn = point_fn
        self.points = list(points)

    def point_name(self, args: Tuple) -> str:
        """Task name for one coordinate, e.g. ``ablation.cache[1024]``."""
        inner = ",".join(repr(a) for a in args)
        return "ablation.%s[%s]" % (self.key, inner)

    def table(self, scale: Optional[int] = None) -> Table:
        """Run every point serially and assemble the classic table."""
        table = Table(self.title)
        for args in self.points:
            for row in self.point_fn(*args, scale=scale):
                table.add(*row)
        return table


SWEEPS: List[AblationSweep] = [
    AblationSweep(
        "fragmentation",
        "Ablation — fragmentation (aging rounds) vs. dump rate",
        fragmentation_point, [(0,), (1,), (3,)],
    ),
    AblationSweep(
        "nvram",
        "Ablation — logical restore through vs. bypassing NVRAM",
        nvram_point, [(False,), (True,)],
    ),
    AblationSweep(
        "readahead",
        "Ablation — dump read-ahead window vs. file-stage rate",
        readahead_point, [(1,), (2,), (None,)],
    ),
    AblationSweep(
        "cache",
        "Ablation — buffer cache size vs. cold metadata reads",
        cache_point, [(64,), (1024,), (16384,)],
    ),
    AblationSweep(
        "cpu",
        "Ablation — CPU count vs. 4-drive logical dump rate",
        cpu_point, [(1,), (2,)],
    ),
]

_SWEEPS_BY_KEY = {sweep.key: sweep for sweep in SWEEPS}


def sweep(key: str) -> AblationSweep:
    return _SWEEPS_BY_KEY[key]


__all__ = [
    "ABLATION_SCALE",
    "AblationSweep",
    "SWEEPS",
    "cache_point",
    "cpu_point",
    "fragmentation_point",
    "nvram_point",
    "readahead_point",
    "sweep",
]
