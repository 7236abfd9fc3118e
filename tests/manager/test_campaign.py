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


def test_a_failed_day_raises_its_own_error_after_one_attempt(monkeypatch):
    # A volume-day ages the live volume, so it is never re-run: the
    # day's own error reaches the caller after one attempt, and nothing
    # of the day is committed.
    from repro.manager import campaign as campaign_module

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
    with pytest.raises(TapeError, match="stacker magazine exhausted"):
        driver.run_day()
    assert attempts == ["home.d00"]
    assert catalog.sets == {} and driver.day == 0
    assert [pool.reserved_by(label) for label in catalog.media] \
        == [None, None]


def test_a_day_that_runs_out_of_tape_holds_nothing_and_reruns():
    # Six half-megabyte cartridges cannot take two 1 MB volumes' fulls.
    # The day that runs dry leaves every cartridge blank and free and no
    # dump snapshot behind; with more blanks the same day reruns.
    catalog = BackupCatalog()
    pool = MediaPool(catalog)
    pool.add_blank(6, capacity=MB // 2)
    driver = CampaignDriver(catalog, pool, seed=7)
    for index, (name, strategy) in enumerate(
            [("home", "logical"), ("rlse", "image")]):
        fs = make_fs(name=name, blocks_per_disk=600)
        tree = WorkloadGenerator(seed=20 + index).populate(fs, MB)
        driver.add_volume(fs, tree, strategy, GFS(4, 2))
    with pytest.raises(TapeError, match="out of cartridges"):
        driver.run_day()
    assert catalog.sets == {} and driver.day == 0
    for label in catalog.media:
        assert pool.reserved_by(label) is None
        assert pool.cartridge(label).used == 0
    assert [v.fs.snapshots() for v in driver.volumes] == [[], []]
    pool.add_blank(20, capacity=MB // 2)
    driver.run_day()
    for volume in driver.volumes:
        restored, _plan = restore_point_in_time(catalog, pool, volume.fsid)
        assert verify_trees(volume.fs, restored) == []


def test_a_traced_campaign_puts_each_volume_day_on_its_job_lane():
    # Volume-days run in this process, in declaration order: every
    # executor span lands in the parent's stream under pid 0, on the lane
    # named after its job (``<fsid>.dNN``).
    from repro.obs.trace import Tracer, set_tracer

    catalog = BackupCatalog()
    pool = MediaPool(catalog)
    pool.add_blank(20, capacity=2 * MB)
    driver = CampaignDriver(catalog, pool, seed=7)
    for index, (name, strategy) in enumerate(
            [("home", "logical"), ("rlse", "image")]):
        fs = make_fs(name=name, blocks_per_disk=600)
        tree = WorkloadGenerator(seed=20 + index).populate(fs, MB // 4)
        driver.add_volume(fs, tree, strategy, GFS(4, 2))
    tracer = Tracer()
    set_tracer(tracer)
    try:
        driver.run(2)
    finally:
        set_tracer(None)
    events = tracer.events()
    jobs = ["home.d00", "rlse.d00", "home.d01", "rlse.d01"]
    spans = [e for e in events if e["cat"] in ("job", "stage")]
    assert {e["pid"] for e in spans} == {0}
    assert {e["tid"] for e in spans} == set(jobs)
    job_spans = sorted((e for e in spans if e["cat"] == "job"),
                       key=lambda e: e["seq"])
    assert [(e["name"], e["tid"]) for e in job_spans] \
        == [(job, job) for job in jobs]
    assert all(e["pid"] == 0 for e in events)
