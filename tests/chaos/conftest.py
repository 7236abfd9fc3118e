"""Shared builders for the chaos-plane tests.

Every test here compares a fault-injected run against a fault-free
oracle built by the *same* code with the plan disabled, so a helper that
constructs one complete campaign (catalog + media pool + two volumes,
one logical and one image, with NVRAM attached) is the common currency.
"""

from __future__ import annotations

import os

from repro.catalog import BackupCatalog
from repro.chaos import ChaosCampaignDriver, campaign_state_digests
from repro.manager import CampaignDriver, MediaPool, parse_schedule
from repro.nvram.log import NvramLog
from repro.raid.layout import make_geometry
from repro.raid.volume import RaidVolume
from repro.storage.persist import save_volume
from repro.units import MB
from repro.wafl.filesystem import WaflFilesystem
from repro.workload import WorkloadGenerator

#: The standard two-volume campaign: one of each backup strategy.
CAMPAIGN_VOLUMES = (("home", "logical"), ("rlse", "image"))


class CampaignRun:
    """One finished campaign plus the paths of its durable artifacts."""

    def __init__(self, root, driver, catalog_path, pool_path, volume_paths):
        self.root = root
        self.driver = driver
        self.catalog_path = catalog_path
        self.pool_path = pool_path
        self.volume_paths = volume_paths

    @property
    def events(self):
        return self.driver.events

    def digests(self):
        return campaign_state_digests(self.catalog_path, self.pool_path,
                                      self.volume_paths)


def run_chaos_campaign(root, plan, days=6, seed=41,
                       nbytes=MB, tape_capacity=MB, tapes=60,
                       schedule="gfs:7x4", events_path=None) -> CampaignRun:
    """Build, populate, and run one campaign under ``plan``.

    The oracle run is the same call with ``plan.enabled`` False — both
    paths execute :func:`run_volume_day` for every volume-day — and
    ``plan=None`` runs the plain :class:`CampaignDriver` instead.
    """
    os.makedirs(root, exist_ok=True)
    catalog_path = os.path.join(root, "catalog.json")
    pool_path = os.path.join(root, "pool.med")
    catalog = BackupCatalog(catalog_path)
    pool = MediaPool(catalog)
    pool.add_blank(tapes, capacity=tape_capacity)
    if plan is None:
        driver = CampaignDriver(catalog, pool, seed=seed)
    else:
        driver = ChaosCampaignDriver(catalog, pool, plan,
                                     events_path=events_path,
                                     seed=seed)
    for index, (name, strategy) in enumerate(CAMPAIGN_VOLUMES):
        volume = RaidVolume(make_geometry(2, 4, 2500), name=name)
        fs = WaflFilesystem.format(volume, nvram=NvramLog())
        generator = WorkloadGenerator(seed=seed + index)
        tree = generator.populate(fs, nbytes)
        fs.consistency_point()
        driver.add_volume(fs, tree, strategy, parse_schedule(schedule))
    driver.run(days)
    pool.save(pool_path)
    volume_paths = {}
    for (name, _strategy), state in zip(CAMPAIGN_VOLUMES, driver.volumes):
        state.fs.consistency_point()
        path = os.path.join(root, "%s.vol" % name)
        save_volume(state.fs.volume, path)
        volume_paths[name] = path
    return CampaignRun(root, driver, catalog_path, pool_path, volume_paths)
