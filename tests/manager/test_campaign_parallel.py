"""A campaign's volumes are parallel filers on disjoint media.

The paper's §5.1 dumps ``home`` and ``rlse`` side by side to separate
drives; a campaign day models that as one volume-day per volume, each on
its own slice of the scratch media (``MediaPool.partitioned_drives``).
One two-volume campaign (one logical, one image) runs five days; its
sets must never share a cartridge, and every volume must restore from
exactly the cartridges the catalog recorded.
"""

from __future__ import annotations

import pytest

from repro.backup.verify import verify_trees
from repro.catalog import BackupCatalog
from repro.errors import TapeError
from repro.manager import GFS, CampaignDriver, MediaPool, restore_point_in_time
from repro.units import MB
from repro.workload import WorkloadGenerator

from tests.conftest import make_fs

DAYS = 5


@pytest.fixture(scope="module")
def campaign():
    catalog = BackupCatalog()
    pool = MediaPool(catalog)
    pool.add_blank(40, capacity=2 * MB)
    driver = CampaignDriver(catalog, pool, keep_daily_snapshots=True, seed=7)
    for index, (name, strategy) in enumerate(
            [("home", "logical"), ("rlse", "image")]):
        fs = make_fs(name=name)
        tree = WorkloadGenerator(seed=20 + index).populate(fs, MB)
        fs.consistency_point()
        driver.add_volume(fs, tree, strategy, GFS(4, 2))
    driver.run(DAYS)
    return catalog, pool, driver


def test_parallel_media_allocation_is_disjoint(campaign):
    catalog, _pool, _driver = campaign
    assert len(catalog.sets) == DAYS * 2
    owners = {}
    for backup_set in catalog.sets.values():
        for label in backup_set.cartridges:
            assert label not in owners
            owners[label] = backup_set.set_id
            assert catalog.cartridge_record(label).set_id \
                == backup_set.set_id


def test_restore_from_parallel_campaign_verifies(campaign):
    catalog, pool, driver = campaign
    for index, fsid in enumerate(("home", "rlse")):
        fs, plan = restore_point_in_time(catalog, pool, fsid, day=DAYS - 1)
        source = driver.volumes[index].fs
        problems = verify_trees(
            source.snapshot_view("day.%d" % (DAYS - 1)), fs)
        assert problems == []


def test_partitioned_drives_demand_enough_scratch():
    catalog = BackupCatalog()
    pool = MediaPool(catalog)
    pool.add_blank(2, capacity=2 * MB)
    with pytest.raises(TapeError):
        pool.partitioned_drives(["a", "b", "c"])
    drives = pool.partitioned_drives(["a", "b"])
    labels = [c.label for d in drives for c in d.stacker.cartridges]
    assert sorted(labels) == sorted(pool.scratch_labels())
