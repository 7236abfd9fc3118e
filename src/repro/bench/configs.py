"""Scaled replicas of the paper's testbed.

"eliot" was an F630 with two volumes: ``home`` (188 GB, 31 disks in 3
RAID groups) and ``rlse`` (129 GB, 22 disks in 2 RAID groups), plus four
DLT-7000 drives with stackers.  ``EliotConfig`` reproduces that shape at
a configurable scale (default 1:1000 — 188 MB of real blocks), populates
it with the synthetic workload, and ages it to maturity.

Every experiment starts from ``WaflFilesystem.mount`` of a saved
container (DESIGN.md, "Start state"): :func:`build_home_env`, the one way
in, returns what :func:`load_env` mounts from a build's file, never the
builder's own warm file system.  Environments are cached per
configuration because building an aged volume costs tens of seconds.  A
cached environment is shared, not read-only: a dump creates and deletes a
snapshot and warms the buffer cache, so every experiment runs on its own
:meth:`ExperimentEnv.clone` and cannot see what ran before it.
"""

from __future__ import annotations

import os
import tempfile
from typing import Dict, List, Optional

from repro.errors import StorageError
from repro.raid.layout import geometry_for_capacity
from repro.raid.volume import RaidVolume
from repro.storage.tape import TapeDrive, TapeStacker
from repro.units import GB, MB
from repro.wafl.filesystem import WaflFilesystem
from repro.workload.aging import AgingConfig, age_filesystem, fragmentation_report
from repro.workload.generator import GeneratedTree, WorkloadGenerator
from repro.bench import paper

DEFAULT_SCALE = 1000

# Bytes populated for the paper-geometry (scale=1) full-scale runs.
FULLSCALE_DATA_CAP = 192 * MB

# Count of expensive volume builds (build_home / build_rlse) in this
# process.  ``run_all`` asserts its strategy tasks never build — they
# must inherit the parent's mounted environment through fork and clone it.
_BUILD_COUNT = 0


def env_build_count() -> int:
    """How many volume builds this process has performed."""
    return _BUILD_COUNT


def fullscale_config() -> EliotConfig:
    """The paper's geometry (188 GB address space, 31 spindles) with the
    populated set capped: chunked stores make the empty space free, so
    this exercises paper-scale addressing, block-map size, and extent
    paths at a CI-sized data volume."""
    return EliotConfig(scale=1, data_cap=FULLSCALE_DATA_CAP, aging_rounds=1)


class EliotConfig:
    """Knobs for building the experiment environment."""

    def __init__(
        self,
        scale: int = DEFAULT_SCALE,
        seed: int = 1999,
        aging_rounds: int = 2,
        churn_fraction: float = 0.22,
        qtrees: int = 0,
        tape_capacity: int = 35 * GB,
        tapes_per_stacker: int = 8,
        data_cap: Optional[int] = None,
    ):
        self.scale = scale
        self.seed = seed
        self.aging_rounds = aging_rounds
        self.churn_fraction = churn_fraction
        self.qtrees = qtrees
        self.tape_capacity = tape_capacity
        self.tapes_per_stacker = tapes_per_stacker
        # Cap on the bytes actually populated, independent of geometry.
        # Lets a benchmark build the *paper-size* (scale=1) address space
        # — lazily-chunked disks make the empty space free — while the
        # resident data set stays CI-sized.
        self.data_cap = data_cap

    @property
    def home_bytes(self) -> int:
        return paper.HOME_BYTES // self.scale

    @property
    def rlse_bytes(self) -> int:
        return paper.RLSE_BYTES // self.scale

    @property
    def home_data_bytes(self) -> int:
        if self.data_cap is None:
            return self.home_bytes
        return min(self.home_bytes, self.data_cap)

    @property
    def rlse_data_bytes(self) -> int:
        if self.data_cap is None:
            return self.rlse_bytes
        return min(self.rlse_bytes, self.data_cap)

    def cost_model(self):
        """Cost model with the fixed snapshot stages scaled like the data.

        Snapshot create/delete take a real 30 s / 35 s regardless of
        volume size; left unscaled they would dwarf the 1:1000 data
        phases and (worse) their CPU share would starve concurrent jobs
        in ways the real machine never sees.  The harness multiplies all
        stage times back up by the scale when reporting.
        """
        from repro.perf.costs import CostModel

        costs = CostModel()
        costs.snapshot_create_seconds /= self.scale
        costs.snapshot_delete_seconds /= self.scale
        return costs

    def cache_key(self) -> tuple:
        return (
            self.scale, self.seed, self.aging_rounds,
            self.churn_fraction, self.qtrees, self.data_cap,
        )


class ExperimentEnv:
    """A built environment: volumes, file systems, drive factory."""

    def __init__(self, config: EliotConfig):
        self.config = config
        self.home_volume: Optional[RaidVolume] = None
        self.home_fs: Optional[WaflFilesystem] = None
        self.home_tree = None
        self.rlse_volume: Optional[RaidVolume] = None
        self.rlse_fs: Optional[WaflFilesystem] = None
        self.rlse_tree = None
        self.qtree_paths: List[str] = []
        self.fragmentation: Dict[str, float] = {}
        self._drive_counter = 0

    # -- building -----------------------------------------------------------

    def _generator(self, seed: int) -> WorkloadGenerator:
        """Workload generator with the file-size ceiling scaled to the
        volume: the paper's 188 GB volume plausibly held files up to a
        few GB; a 1:1000 replica should cap proportionally."""
        from repro.workload.distributions import FileSizeDistribution

        sizes = FileSizeDistribution(
            max_bytes=max(256 * 1024, self.config.home_data_bytes // 24)
        )
        return WorkloadGenerator(sizes=sizes, seed=seed)

    def build_home(self) -> None:
        """``home``: 3 RAID groups of 10 data disks (31 spindles total)."""
        global _BUILD_COUNT
        _BUILD_COUNT += 1
        config = self.config
        geometry = geometry_for_capacity(
            config.home_bytes, ngroups=3, ndata_disks=10, slack=1.6
        )
        self.home_volume = RaidVolume(geometry, name="home")
        self.home_fs = WaflFilesystem.format(self.home_volume)
        generator = self._generator(config.seed)
        if config.qtrees:
            from repro.backup.jobs import split_into_qtrees

            self.qtree_paths = split_into_qtrees(
                self.home_fs, generator, config.home_data_bytes, config.qtrees
            )
            self.home_tree = None
        else:
            self.home_tree = generator.populate(self.home_fs,
                                                config.home_data_bytes)
        if config.aging_rounds:
            tree = self.home_tree
            if tree is None:
                # Qtree mode: rebuild a file list for the aging pass.
                tree = GeneratedTree()
                for path, inode in self.home_fs.walk("/"):
                    if inode.is_regular:
                        tree.files.append(path)
                    elif inode.is_dir and path != "/":
                        tree.directories.append(path)
            age_filesystem(
                self.home_fs, tree,
                AgingConfig(rounds=config.aging_rounds,
                            churn_fraction=config.churn_fraction,
                            seed=config.seed + 1),
            )
        self.home_fs.consistency_point()
        self.fragmentation = fragmentation_report(self.home_fs)

    def build_rlse(self) -> None:
        """``rlse``: 2 RAID groups of 10 data disks (22 spindles total)."""
        global _BUILD_COUNT
        _BUILD_COUNT += 1
        config = self.config
        geometry = geometry_for_capacity(
            config.rlse_bytes, ngroups=2, ndata_disks=10, slack=1.6
        )
        self.rlse_volume = RaidVolume(geometry, name="rlse")
        self.rlse_fs = WaflFilesystem.format(self.rlse_volume)
        generator = self._generator(config.seed + 77)
        self.rlse_tree = generator.populate(self.rlse_fs, config.rlse_data_bytes)
        if config.aging_rounds:
            age_filesystem(
                self.rlse_fs, self.rlse_tree,
                AgingConfig(rounds=max(1, config.aging_rounds - 1),
                            churn_fraction=config.churn_fraction,
                            seed=config.seed + 78),
            )
        self.rlse_fs.consistency_point()

    def clone(self) -> "ExperimentEnv":
        """A writable copy-on-write fork of this built environment.

        Volumes are cloned chunk-sharing (see ``VirtualDisk.clone``); the
        mounted file systems are cloned without a remount, reproducing
        their in-memory state (inode cache, cache warmth, counters)
        exactly — a cloned environment runs the tables byte-identically
        to a freshly built one, for the cost of the block-map memcpy.
        Trees, qtree paths, and the drive counter are shared/copied so
        drive naming stays deterministic.
        """
        other = ExperimentEnv(self.config)
        if self.home_fs is not None:
            other.home_fs = self.home_fs.clone_volume()
            other.home_volume = other.home_fs.volume
        if self.rlse_fs is not None:
            other.rlse_fs = self.rlse_fs.clone_volume()
            other.rlse_volume = other.rlse_fs.volume
        other.home_tree = self.home_tree
        other.rlse_tree = self.rlse_tree
        other.qtree_paths = list(self.qtree_paths)
        other.fragmentation = dict(self.fragmentation)
        other._drive_counter = self._drive_counter
        return other

    # -- devices --------------------------------------------------------------

    def new_drive(self, label: str = "") -> TapeDrive:
        self._drive_counter += 1
        name = label or "dlt%d" % self._drive_counter
        stacker = TapeStacker.with_blank_tapes(
            self.config.tapes_per_stacker,
            capacity=self.config.tape_capacity,
            name=name,
        )
        return TapeDrive(stacker, name=name)

    def new_drives(self, count: int, label: str = "dlt") -> List[TapeDrive]:
        return [self.new_drive("%s%d" % (label, i)) for i in range(count)]

    def fresh_home_volume(self) -> RaidVolume:
        """An empty volume of home's geometry (disaster-recovery target)."""
        return self.home_volume.clone_empty()

    # -- scale accounting ----------------------------------------------------------

    def data_bytes(self, volume: str = "home") -> int:
        fs = self.home_fs if volume == "home" else self.rlse_fs
        stats = fs.statfs()
        return stats["active_blocks"] * stats["block_size"]


_ENV_CACHE: Dict[tuple, ExperimentEnv] = {}


def build_home_env(config: Optional[EliotConfig] = None,
                   with_rlse: bool = False,
                   cache_file: Optional[str] = None) -> ExperimentEnv:
    """The mounted environment for ``config``, cached per process (forked
    workers inherit the cache).

    What is registered and returned is always :func:`load_env` of a
    container: on a miss, of a scratch file holding a fresh build; of
    ``cache_file`` whenever the caller names one — loaded if it exists,
    else built and written there, and never shadowed by the process
    cache, so a stale file is refused (:class:`StorageError`), not ignored.
    """
    config = config or EliotConfig()
    key = config.cache_key() + (with_rlse,)
    if cache_file is not None or key not in _ENV_CACHE:
        with tempfile.TemporaryDirectory(prefix="repro-env-") as scratch:
            path = cache_file or os.path.join(scratch, "built.env")
            if not os.path.exists(path):
                built = ExperimentEnv(config)
                built.build_home()
                if with_rlse:
                    built.build_rlse()
                save_env(built, path)
            env = load_env(path)
        if env.config.cache_key() + (env.rlse_fs is not None,) != key:
            raise StorageError("%s holds a different configuration" % path)
        _ENV_CACHE[key] = env
    return _ENV_CACHE[key]


def clear_env_cache() -> None:
    _ENV_CACHE.clear()


_CONFIG_FIELDS = ("scale", "seed", "aging_rounds", "churn_fraction",
                  "qtrees", "tape_capacity", "tapes_per_stacker", "data_cap")


def save_env(env: ExperimentEnv, path: str) -> int:
    """Persist a built environment to ``path``; returns bytes.

    The file is the one :mod:`repro.storage.persist` container, kind
    ``env``: the builder's configuration and generated trees plus the
    volumes' on-disk state, so it must be written at a consistency point
    — which is how every build ends.  A cache file of another container
    version is refused with a :class:`~repro.errors.StorageError`; delete
    it and rebuild.
    """
    from repro.storage.persist import save_env_container

    config = env.config
    header = {
        "config": {field: getattr(config, field)
                   for field in _CONFIG_FIELDS},
        "with_rlse": env.rlse_fs is not None,
        "qtree_paths": env.qtree_paths,
        "fragmentation": env.fragmentation,
        "trees": [tree and tree.to_json()
                  for tree in (env.home_tree, env.rlse_tree)],
    }
    volumes = [env.home_volume]
    if env.rlse_fs is not None:
        volumes.append(env.rlse_volume)
    return save_env_container(path, header, volumes)


def load_env(path: str) -> ExperimentEnv:
    """Mount an environment saved by :func:`save_env`."""
    from repro.storage.persist import load_env_container

    header, volumes = load_env_container(path)
    if "trees" not in header:
        raise StorageError("%s predates environments that carry their"
                           " generated trees" % path)
    config = EliotConfig(**header["config"])
    env = ExperimentEnv(config)
    env.home_volume = volumes[0]
    env.home_fs = WaflFilesystem.mount(env.home_volume)
    if header["with_rlse"]:
        env.rlse_volume = volumes[1]
        env.rlse_fs = WaflFilesystem.mount(env.rlse_volume)
    env.qtree_paths = list(header.get("qtree_paths") or [])
    env.fragmentation = dict(header.get("fragmentation") or {})
    env.home_tree, env.rlse_tree = (
        tree and GeneratedTree.from_json(tree) for tree in header["trees"])
    return env


__all__ = [
    "DEFAULT_SCALE",
    "FULLSCALE_DATA_CAP",
    "EliotConfig",
    "ExperimentEnv",
    "build_home_env",
    "clear_env_cache",
    "env_build_count",
    "fullscale_config",
    "load_env",
    "save_env",
]
