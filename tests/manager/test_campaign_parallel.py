"""``jobs`` is placement only: a campaign is identical wherever it runs.

Two identical two-volume campaigns (one logical, one image) run five
days, one with ``jobs=1`` (volume-days in-process) and one with
``jobs=2`` (volume-days in worker processes).  Worker processes change
*where* a day executes, never *what* it produces — so every recorded
set must match on every field, simulated start/end times and cartridge
labels included, and the persisted catalog, media pool, and volume
images must be byte-identical.
"""

from __future__ import annotations

import os

import pytest

from repro.backup.verify import verify_trees
from repro.catalog import BackupCatalog
from repro.chaos.verify import (
    campaign_state_digests,
    compare_digests,
    volume_digest,
)
from repro.errors import TapeError
from repro.manager import GFS, CampaignDriver, MediaPool, restore_point_in_time
from repro.parallel import fork_available
from repro.storage.persist import save_volume
from repro.units import MB
from repro.workload import WorkloadGenerator

from tests.conftest import make_fs

DAYS = 5

pytestmark = pytest.mark.skipif(not fork_available(), reason="needs fork")


class Campaign:
    """One finished campaign, its per-day results, its saved artifacts."""

    def __init__(self, root, jobs, days=DAYS, tapes=40):
        self.catalog_path = os.path.join(root, "catalog.json")
        self.pool_path = os.path.join(root, "pool.med")
        self.catalog = BackupCatalog(self.catalog_path)
        self.pool = MediaPool(self.catalog)
        self.pool.add_blank(tapes, capacity=2 * MB)
        self.driver = CampaignDriver(self.catalog, self.pool,
                                     keep_daily_snapshots=True,
                                     seed=7, jobs=jobs)
        for index, (name, strategy) in enumerate(
                [("home", "logical"), ("rlse", "image")]):
            fs = make_fs(name=name)
            tree = WorkloadGenerator(seed=20 + index).populate(fs, MB)
            fs.consistency_point()
            self.driver.add_volume(fs, tree, strategy, GFS(4, 2))
        self.day_results = [self.driver.run_day() for _ in range(days)]
        self.pool.save(self.pool_path)
        self.volume_paths = {}
        for volume in self.driver.volumes:
            volume.fs.consistency_point()
            path = os.path.join(root, "%s.vol" % volume.fsid)
            save_volume(volume.fs.volume, path)
            self.volume_paths[volume.fsid] = path

    def digests(self):
        return campaign_state_digests(self.catalog_path, self.pool_path,
                                      self.volume_paths)


@pytest.fixture(scope="module")
def campaigns(tmp_path_factory):
    return (Campaign(str(tmp_path_factory.mktemp("serial")), jobs=1),
            Campaign(str(tmp_path_factory.mktemp("parallel")), jobs=2))


def test_parallel_sets_match_serial(campaigns):
    serial, parallel = campaigns
    assert len(serial.catalog.sets) == DAYS * 2
    assert sorted(serial.catalog.sets) == sorted(parallel.catalog.sets)
    for set_id, serial_set in serial.catalog.sets.items():
        # Every field: start_time, end_time and cartridges included.
        assert parallel.catalog.sets[set_id].to_dict() \
            == serial_set.to_dict(), set_id


def test_parallel_artifacts_byte_identical(campaigns):
    serial, parallel = campaigns
    # Digests of the saved catalog JSON, media pool and volume files.
    assert compare_digests(serial.digests(), parallel.digests()) == []
    for volume_s, volume_p in zip(serial.driver.volumes,
                                  parallel.driver.volumes):
        assert volume_digest(volume_p.fs.volume) \
            == volume_digest(volume_s.fs.volume)


def test_run_day_returns_the_same_shape(campaigns):
    serial, parallel = campaigns
    for day_s, day_p in zip(serial.day_results, parallel.day_results):
        assert list(day_s) == list(day_p)
        for name in day_s:
            set_s, payload_s = day_s[name]
            set_p, payload_p = day_p[name]
            assert type(set_p) is type(set_s)
            assert type(payload_p) is type(payload_s) is dict
            assert payload_p == payload_s
            assert set_p.to_dict() == set_s.to_dict()


def test_parallel_dumpdates_match_serial(campaigns):
    serial, parallel = campaigns
    assert parallel.catalog.dumpdates.history("home", "/") \
        == serial.catalog.dumpdates.history("home", "/")


def test_parallel_media_allocation_is_disjoint(campaigns):
    for campaign in campaigns:
        catalog = campaign.catalog
        owners = {}
        for backup_set in catalog.sets.values():
            for label in backup_set.cartridges:
                assert label not in owners
                owners[label] = backup_set.set_id
                assert catalog.cartridge_record(label).set_id \
                    == backup_set.set_id


def test_restore_from_parallel_campaign_verifies(campaigns):
    _, parallel = campaigns
    for index, fsid in enumerate(("home", "rlse")):
        fs, plan = restore_point_in_time(parallel.catalog, parallel.pool,
                                         fsid, day=DAYS - 1)
        source = parallel.driver.volumes[index].fs
        problems = verify_trees(
            source.snapshot_view("day.%d" % (DAYS - 1)), fs)
        assert problems == []


def test_parallel_volume_state_advances(campaigns):
    serial, parallel = campaigns
    # The rebound file systems carry the same aged data as serial ones.
    for volume_s, volume_p in zip(serial.driver.volumes,
                                  parallel.driver.volumes):
        assert verify_trees(volume_s.fs, volume_p.fs) == []


def test_partitioned_drives_demand_enough_scratch():
    catalog = BackupCatalog()
    pool = MediaPool(catalog)
    pool.add_blank(2, capacity=2 * MB)
    with pytest.raises(TapeError):
        pool.partitioned_drives(["a", "b", "c"])
    drives = pool.partitioned_drives(["a", "b"])
    labels = [c.label for d in drives for c in d.stacker.cartridges]
    assert sorted(labels) == sorted(pool.scratch_labels())
