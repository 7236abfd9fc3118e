"""The campaign driver end-to-end: 14 simulated days, both strategies.

One module-scoped campaign ages two volumes — ``home`` dumped logically,
``rlse`` dumped as images — under a compact GFS schedule (fulls on days
0 and 8, level 1 on days 4 and 12, level 2 between), keeping a daily
snapshot of each volume as ground truth.  The tests then restore from
exactly the cartridges the catalog plans, verify against the matching
day's snapshot, prune under retention policies, and restore again.
"""

from __future__ import annotations

import pytest

from repro.backup.verify import verify_trees, verify_volumes
from repro.catalog import BackupCatalog
from repro.errors import CatalogError, TapeError
from repro.manager import (
    GFS,
    CampaignDriver,
    MediaPool,
    prune,
    restore_point_in_time,
)
from repro.units import MB
from repro.workload import WorkloadGenerator

from tests.conftest import make_fs

DAYS = 14


@pytest.fixture(scope="module")
def campaign():
    catalog = BackupCatalog()
    pool = MediaPool(catalog)
    pool.add_blank(60, capacity=2 * MB)
    driver = CampaignDriver(catalog, pool, keep_daily_snapshots=True,
                            seed=7)
    volumes = {}
    for index, (name, strategy) in enumerate(
            [("home", "logical"), ("rlse", "image")]):
        fs = make_fs(name=name)
        generator = WorkloadGenerator(seed=20 + index)
        tree = generator.populate(fs, int(1.5 * MB))
        fs.consistency_point()
        driver.add_volume(fs, tree, strategy, GFS(4, 2))
        volumes[name] = fs
    driver.run(DAYS)
    return catalog, pool, volumes


def restored_matches_snapshot(campaign_state, fsid, day):
    catalog, pool, volumes = campaign_state
    fs, plan = restore_point_in_time(catalog, pool, fsid, day=day)
    problems = verify_trees(volumes[fsid].snapshot_view("day.%d" % day), fs)
    return fs, plan, problems


class TestCampaignHistory:
    def test_gfs_levels_were_run(self, campaign):
        catalog, _pool, _volumes = campaign
        for fsid in ("home", "rlse"):
            levels = [s.level for s in catalog.sets_for(fsid)]
            assert levels == [0, 2, 2, 2, 1, 2, 2, 2, 0, 2, 2, 2, 1, 2, 2, 2][:DAYS]

    def test_every_set_has_media(self, campaign):
        catalog, _pool, _volumes = campaign
        for backup_set in catalog.sets.values():
            assert backup_set.cartridges
            assert backup_set.bytes_to_tape > 0
            for label in backup_set.cartridges:
                assert catalog.cartridge_record(label).set_id == backup_set.set_id

    def test_no_cartridge_is_shared(self, campaign):
        catalog, _pool, _volumes = campaign
        owners = {}
        for backup_set in catalog.sets.values():
            for label in backup_set.cartridges:
                assert label not in owners, (
                    "%s shared by %s and %s"
                    % (label, owners[label], backup_set.set_id))
                owners[label] = backup_set.set_id

    def test_full_spans_multiple_cartridges(self, campaign):
        catalog, _pool, _volumes = campaign
        # 1.5 MB of data dumps to > 2 MB of stream, so the day-0 full
        # must span cartridges — the chain planner has to order them.
        full = catalog.sets_for("home")[0]
        assert len(full.cartridges) >= 2

    def test_dumpdates_followed_the_campaign(self, campaign):
        catalog, _pool, _volumes = campaign
        history = dict(catalog.dumpdates.history("home", "/"))
        assert set(history) == {0, 1, 2}


class TestRestores:
    def test_logical_restore_latest_day(self, campaign):
        fs, plan, problems = restored_matches_snapshot(campaign, "home", 13)
        assert problems == []
        assert [s.day for s in plan.sets] == [8, 12, 13]

    def test_logical_restore_mid_chain_day(self, campaign):
        _fs, plan, problems = restored_matches_snapshot(campaign, "home", 6)
        assert problems == []
        assert [s.day for s in plan.sets] == [0, 4, 6]

    def test_image_restore_latest_day(self, campaign):
        catalog, pool, volumes = campaign
        fs, plan, problems = restored_matches_snapshot(campaign, "rlse", 13)
        assert problems == []
        assert plan.strategy == "image"
        # Physical restore's stronger guarantee: the dumped snapshot's
        # blocks are byte-identical on the rebuilt volume.
        source = volumes["rlse"]
        record = source.fsinfo.find_snapshot("img.rlse.d13")
        assert record is not None
        blocks = source.blockmap.plane_blocks(record.snap_id)
        assert verify_volumes(source.volume, fs.volume, blocks) == []

    def test_image_restore_mid_chain_day(self, campaign):
        _fs, plan, problems = restored_matches_snapshot(campaign, "rlse", 9)
        assert problems == []
        assert [s.day for s in plan.sets] == [8, 9]

    def test_restore_day_without_dump_uses_previous_state(self, campaign):
        catalog, pool, _volumes = campaign
        fs, plan = restore_point_in_time(catalog, pool, "home", day=100)
        assert plan.target.day == 13


class TestPruneAndRestoreAgain:
    def test_prune_then_restore(self, campaign):
        catalog, pool, volumes = campaign
        catalog.set_policy("home", "/", "redundancy 1", save=False)
        catalog.set_policy("rlse", "/", "window 4", save=False)
        retired = prune(catalog, pool)

        # Both volumes lost their first chain (days 0..7).
        for fsid in ("home", "rlse"):
            obsolete_days = sorted(catalog.get_set(set_id).day
                                   for set_id in retired[(fsid, "/")])
            assert obsolete_days == list(range(8))
        assert catalog.validate_no_orphans() == []

        # Recycled cartridges are erased and scratch again.
        for set_ids in retired.values():
            for set_id in set_ids:
                for label in catalog.get_set(set_id).cartridges:
                    assert catalog.cartridge_record(label).status == "scratch"
                    assert pool.cartridge(label).used == 0

        # Old restore points are gone, recent ones still verify.
        with pytest.raises(CatalogError):
            catalog.chain_for("home", target_day=2)
        with pytest.raises(CatalogError):
            catalog.chain_for("rlse", target_day=6)
        for fsid in ("home", "rlse"):
            _fs, _plan, problems = restored_matches_snapshot(
                campaign, fsid, 13)
            assert problems == []

    def test_catalog_survives_a_restart(self, campaign, tmp_path):
        catalog, pool, _volumes = campaign
        catalog.path = str(tmp_path / "cat.json")
        catalog.save()
        loaded = BackupCatalog.load(catalog.path)
        for fsid in ("home", "rlse"):
            assert ([s.set_id for s in loaded.chain_for(fsid).sets]
                    == [s.set_id for s in catalog.chain_for(fsid).sets])
        assert loaded.dumpdates.base_for("home", "/", 2) \
            == catalog.dumpdates.base_for("home", "/", 2)


def test_a_failed_in_process_day_is_not_retried(monkeypatch):
    # An in-process volume-day ages the live volume, so a second attempt
    # would age already-aged state: it must fail after one, as TaskError.
    from repro.manager import campaign as campaign_module
    from repro.parallel import TaskError

    attempts = []

    def out_of_tape(volume, drive, job_name, *args, **kwargs):
        attempts.append(job_name)
        raise TapeError("stacker magazine exhausted")

    monkeypatch.setattr(campaign_module, "run_volume_day", out_of_tape)
    catalog = BackupCatalog()
    pool = MediaPool(catalog)
    pool.add_blank(2, capacity=2 * MB)
    driver = CampaignDriver(catalog, pool)
    fs = make_fs(name="home")
    tree = WorkloadGenerator(seed=20).populate(fs, MB // 4)
    driver.add_volume(fs, tree, "logical", GFS(4, 2))
    with pytest.raises(TaskError) as failure:
        driver.run_day()
    assert attempts == ["home.d00"]
    assert "TapeError" in failure.value.worker_traceback
