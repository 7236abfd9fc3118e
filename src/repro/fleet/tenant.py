"""Tenants: per-customer backup state inside a fleet root.

A fleet is a directory tree — one spec, one shared state file, and one
subdirectory per tenant holding everything that tenant owns:

.. code-block:: text

    <root>/
      fleet.json            # the spec (or fleet.toml; see load_fleet_spec)
      state.json            # day/tick cursors, pending jobs, DRR state
      events.jsonl          # the scheduler's deterministic event log
      tenants/<name>/
        catalog.json        # the tenant's own BackupCatalog
        media.bin           # its cartridges' bytes (a persist.py container)
        volume.bin          # its volume at a consistency point, with the
                            # tree and kept snapshots in the header (a
                            # persist.py container, mounted on load)

Tenants never share media or catalogs — the only shared resources are
the drive *slots*, which is what makes the
scheduler's contention signals meaningful and the per-tenant state
trivially isolated.

The spec is JSON everywhere and TOML where the interpreter has
:mod:`tomllib` (3.11+); both parse to the same :class:`FleetSpec`.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from repro.errors import ReproError
from repro.catalog.records import MEDIA_SCRATCH, STATUS_OK
from repro.catalog.store import BackupCatalog
from repro.manager.campaign import CampaignVolume
from repro.manager.media import MediaPool
from repro.manager.retention import parse_policy
from repro.manager.schedule import parse_schedule
from repro.raid.layout import make_geometry
from repro.raid.volume import RaidVolume
from repro.storage.persist import load_env_container, save_env_container
from repro.units import MB
from repro.wafl.filesystem import WaflFilesystem
from repro.workload.generator import GeneratedTree, WorkloadGenerator

try:
    import tomllib  # Python 3.11+
except ImportError:  # pragma: no cover - 3.9/3.10
    tomllib = None

LANES = ("interactive", "daily", "background")

_STRATEGIES = ("logical", "image")


class FleetError(ReproError):
    """A fleet spec or fleet state is invalid."""


class TenantSpec:
    """One tenant's declaration in the fleet spec."""

    def __init__(self, name: str, lane: str = "daily", weight: int = 1,
                 strategy: str = "logical", schedule: str = "gfs:7x4",
                 retention: str = "redundancy 2",
                 data_bytes: int = 2 * MB, seed: int = 7,
                 cartridges: int = 10, cartridge_capacity: int = 8 * MB,
                 ngroups: int = 1, ndata: int = 4,
                 blocks_per_disk: int = 1200):
        if not name or "/" in name or name != name.strip():
            raise FleetError("bad tenant name %r" % (name,))
        if lane not in LANES:
            raise FleetError("tenant %r: unknown lane %r (want one of %s)"
                             % (name, lane, ", ".join(LANES)))
        if strategy not in _STRATEGIES:
            raise FleetError("tenant %r: unknown strategy %r"
                             % (name, strategy))
        if weight < 1:
            raise FleetError("tenant %r: weight must be >= 1" % (name,))
        parse_schedule(schedule)   # fail fast on bad spec text
        parse_policy(retention)
        self.name = name
        self.lane = lane
        self.weight = weight
        self.strategy = strategy
        self.schedule = schedule
        self.retention = retention
        self.data_bytes = data_bytes
        self.seed = seed
        self.cartridges = cartridges
        self.cartridge_capacity = cartridge_capacity
        self.ngroups = ngroups
        self.ndata = ndata
        self.blocks_per_disk = blocks_per_disk

    @classmethod
    def from_dict(cls, data: Dict) -> "TenantSpec":
        known = {"name", "lane", "weight", "strategy", "schedule",
                 "retention", "data_bytes", "seed", "cartridges",
                 "cartridge_capacity", "ngroups", "ndata",
                 "blocks_per_disk"}
        unknown = set(data) - known
        if unknown:
            raise FleetError("tenant spec has unknown key(s): %s"
                             % ", ".join(sorted(unknown)))
        if "name" not in data:
            raise FleetError("tenant spec is missing 'name'")
        return cls(**data)

    def to_dict(self) -> Dict:
        return {
            "name": self.name, "lane": self.lane, "weight": self.weight,
            "strategy": self.strategy, "schedule": self.schedule,
            "retention": self.retention, "data_bytes": self.data_bytes,
            "seed": self.seed, "cartridges": self.cartridges,
            "cartridge_capacity": self.cartridge_capacity,
            "ngroups": self.ngroups, "ndata": self.ndata,
            "blocks_per_disk": self.blocks_per_disk,
        }


class FleetSpec:
    """The whole fleet: shared drives plus a list of tenants."""

    def __init__(self, tenants: List[TenantSpec], drives: int = 2,
                 seed: int = 1234, quantum: int = 1, name: str = "fleet"):
        if drives < 1:
            raise FleetError("fleet needs at least one drive")
        if quantum < 1:
            raise FleetError("DRR quantum must be >= 1")
        if not tenants:
            raise FleetError("fleet spec declares no tenants")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise FleetError("duplicate tenant names in fleet spec")
        self.name = name
        self.tenants = list(tenants)
        self.drives = drives
        self.seed = seed
        self.quantum = quantum

    def tenant(self, name: str) -> TenantSpec:
        for spec in self.tenants:
            if spec.name == name:
                return spec
        raise FleetError("no tenant %r in fleet spec" % (name,))

    @classmethod
    def from_dict(cls, data: Dict) -> "FleetSpec":
        known = {"name", "tenants", "drives", "seed", "quantum"}
        unknown = set(data) - known
        if unknown:
            raise FleetError("fleet spec has unknown key(s): %s"
                             % ", ".join(sorted(unknown)))
        tenants = [TenantSpec.from_dict(t) for t in data.get("tenants", [])]
        return cls(tenants=tenants, drives=data.get("drives", 2),
                   seed=data.get("seed", 1234),
                   quantum=data.get("quantum", 1),
                   name=data.get("name", "fleet"))

    def to_dict(self) -> Dict:
        return {"name": self.name, "drives": self.drives, "seed": self.seed,
                "quantum": self.quantum,
                "tenants": [t.to_dict() for t in self.tenants]}


def load_fleet_spec(path: str) -> FleetSpec:
    """Parse a fleet spec file — ``.toml`` (3.11+) or JSON otherwise."""
    if path.endswith(".toml"):
        if tomllib is None:
            raise FleetError(
                "TOML fleet specs need Python 3.11+ (tomllib); use the"
                " JSON form on this interpreter")
        with open(path, "rb") as handle:
            data = tomllib.load(handle)
    else:
        try:
            with open(path) as handle:
                data = json.load(handle)
        except ValueError as error:
            raise FleetError("cannot parse fleet spec %s: %s" % (path, error))
        except OSError as error:
            raise FleetError("cannot read fleet spec %s: %s" % (path, error))
    if not isinstance(data, dict):
        raise FleetError("fleet spec %s is not a mapping" % path)
    return FleetSpec.from_dict(data)


class Tenant:
    """One tenant's live state: catalog, media pool, and volume.

    All three pieces load **lazily**: a fleet service holding hundreds of
    tenants pays for a volume load and mount only when a job actually
    needs the volume, and a status endpoint touching only catalogs never
    loads media bytes at all.  A service start is a reboot: every volume
    is mounted cold (DESIGN.md, "Start state").

    Dirty tracking mirrors that split.  ``volume_dirty`` / ``media_dirty``
    are set by whoever mutates the piece; the catalog tracks its own
    dirty records.  :meth:`save_state` with ``force=False`` writes only
    dirty pieces — a clean (paused, no-op) tenant costs nothing to
    checkpoint.
    """

    def __init__(self, spec: TenantSpec, root: str):
        self.spec = spec
        self.root = root
        self._catalog: Optional[BackupCatalog] = None
        self._pool: Optional[MediaPool] = None
        self._volume: Optional[CampaignVolume] = None
        self.volume_dirty = False
        self.media_dirty = False
        # Dumps completed / bytes shipped since this object was created
        # (status-document counters; durable totals live in the catalog).
        self.dumps = 0
        self.bytes_to_tape = 0

    # -- paths -------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def catalog_path(self) -> str:
        return os.path.join(self.root, "catalog.json")

    @property
    def media_path(self) -> str:
        return os.path.join(self.root, "media.bin")

    @property
    def volume_path(self) -> str:
        return os.path.join(self.root, "volume.bin")

    # -- lazy state --------------------------------------------------------

    @property
    def catalog(self) -> BackupCatalog:
        if self._catalog is None:
            catalog = BackupCatalog.load(self.catalog_path)
            catalog.use_journal()
            self._catalog = catalog
        return self._catalog

    @property
    def pool(self) -> MediaPool:
        if self._pool is None:
            self._pool = MediaPool.load(self.catalog, self.media_path)
        return self._pool

    @property
    def volume(self) -> CampaignVolume:
        if self._volume is None:
            stale = os.path.join(self.root, "volume.pkl")
            if (os.path.exists(stale)
                    and not os.path.exists(self.volume_path)):
                raise FleetError(
                    "%s was written by an older version and is no longer"
                    " read; create the fleet root again with `fleet init`"
                    % stale)
            header, volumes = load_env_container(self.volume_path, "tenant")
            volume = CampaignVolume(
                WaflFilesystem.mount(volumes[0]),
                GeneratedTree.from_json(header["tree"]), self.spec.strategy,
                parse_schedule(self.spec.schedule))
            volume.kept_snapshots = {
                level: (name, date)
                for level, name, date in header["kept_snapshots"]}
            self._volume = volume
        return self._volume

    # -- lifecycle ---------------------------------------------------------

    def create(self) -> "Tenant":
        """Format the tenant's volume, build its tree, register media."""
        os.makedirs(self.root, exist_ok=True)
        spec = self.spec
        raid = RaidVolume(
            make_geometry(spec.ngroups, spec.ndata, spec.blocks_per_disk),
            name=spec.name)
        fs = WaflFilesystem.format(raid)
        generator = WorkloadGenerator(seed=spec.seed)
        tree = generator.populate(fs, spec.data_bytes)
        self._catalog = BackupCatalog(self.catalog_path)
        self._catalog.use_journal()
        self._pool = MediaPool(self._catalog)
        self._pool.add_blank(spec.cartridges,
                             capacity=spec.cartridge_capacity)
        self._catalog.set_policy(spec.name, "/", spec.retention, save=False)
        self._volume = CampaignVolume(
            fs, tree, spec.strategy, parse_schedule(spec.schedule))
        self.save_state()
        return self

    def load(self) -> "Tenant":
        """Rehydrate catalog, media, and volume from the tenant dir."""
        self.catalog, self.pool, self.volume  # noqa: B018 - force the loads
        return self

    def load_catalog(self) -> "Tenant":
        """Load just the catalog — enough for a status summary, without
        paying to load and mount the tenant's whole volume."""
        self.catalog
        return self

    def save_state(self, force: bool = True) -> None:
        """Persist catalog, media bytes, and the volume container.

        ``force=False`` is the hot-path form: each piece is written only
        if dirty — the catalog as a journal append (or a compaction when
        one is due), media and volume only when a job actually touched
        them.  A clean tenant does no I/O at all.  ``force=True`` writes
        everything unconditionally (initial creation, explicit
        checkpoints), loading any piece not yet resident.
        """
        if force:
            self.catalog.save()
        elif self._catalog is not None and self._catalog.dirty:
            self._catalog.commit_dirty()
        if force or self.media_dirty:
            self.pool.save(self.media_path)
            self.media_dirty = False
        if force or self.volume_dirty:
            self.save_volume()

    def save_volume(self) -> None:
        """Checkpoint just the volume (atomically replaced)."""
        volume = self.volume
        if not volume.fs.at_consistency_point():
            volume.fs.consistency_point()
        header = {
            "tree": volume.tree.to_json(),
            "kept_snapshots": sorted(
                (level, name, date) for level, (name, date)
                in volume.kept_snapshots.items()),
        }
        save_env_container(self.volume_path, header, [volume.fs.volume],
                           "tenant")
        self.volume_dirty = False

    # -- status ------------------------------------------------------------

    def summary(self) -> Dict:
        """Catalog summary for the status document.

        Derived from the catalog alone (media statuses included), so the
        API server can build it without loading the tenant's volume.
        """
        sets = list(self.catalog.sets.values())
        live = [s for s in sets if s.status == STATUS_OK]
        scratch = sum(1 for c in self.catalog.media.values()
                      if c.status == MEDIA_SCRATCH)
        return {
            "name": self.name,
            "lane": self.spec.lane,
            "weight": self.spec.weight,
            "strategy": self.spec.strategy,
            "schedule": self.spec.schedule,
            "retention": self.spec.retention,
            "sets": len(sets),
            "live_sets": len(live),
            "bytes_to_tape": sum(s.bytes_to_tape for s in live),
            "scratch_cartridges": scratch,
        }


__all__ = [
    "FleetError",
    "FleetSpec",
    "LANES",
    "Tenant",
    "TenantSpec",
    "load_fleet_spec",
]
