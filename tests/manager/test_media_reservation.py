"""Media-pool reservations: in-flight drives own their scratch media.

A long-lived scheduler stacks scratch cartridges into a job's drive
long before the job's bytes land.  These tests pin the reservation
contract: reserved media is excluded from later drive builds, refuses
to be recycled, and is released exactly at commit or explicit release.
"""

from __future__ import annotations

import random

import pytest

from repro.catalog import BackupCatalog
from repro.errors import CatalogError, TapeError
from repro.manager import MediaPool
from repro.units import MB


@pytest.fixture()
def pool():
    catalog = BackupCatalog()
    pool = MediaPool(catalog)
    pool.add_blank(4, capacity=1 * MB)
    return pool


def record_set(catalog, day=0, level=0):
    return catalog.record_set(fsid="home", subtree="/", strategy="logical",
                              level=level, day=day, date=100 + day,
                              save=False)


class TestReservationLifecycle:
    def test_reserved_media_excluded_from_next_drive(self, pool):
        pool.drive_for_job("a")
        with pytest.raises(TapeError, match="no scratch cartridges"):
            pool.drive_for_job("b")

    def test_release_drive_frees_the_magazine(self, pool):
        drive = pool.drive_for_job("a")
        assert pool.reserved_by(drive.stacker.cartridges[0].label) == "a"
        pool.release_drive(drive)
        assert all(pool.reserved_by(c.label) is None
                   for c in drive.stacker.cartridges)
        assert len(pool.drive_for_job("b").stacker.cartridges) == 4

    def test_commit_releases_reservations(self, pool):
        drive = pool.drive_for_job("a")
        drive.write(b"x" * 4096)
        backup_set = record_set(pool.catalog)
        labels = pool.commit_job(drive, backup_set)
        assert len(labels) == 1
        # Every reservation is gone — written media is now allocated,
        # untouched media is scratch and buildable again.
        assert all(pool.reserved_by(c.label) is None
                   for c in drive.stacker.cartridges)
        assert len(pool.drive_for_job("b").stacker.cartridges) == 3

    def test_partitioned_drives_reserve_disjoint_slices(self, pool):
        first, second = pool.partitioned_drives(["a", "b"])
        labels_a = {c.label for c in first.stacker.cartridges}
        labels_b = {c.label for c in second.stacker.cartridges}
        assert not (labels_a & labels_b)
        for label in labels_a:
            assert pool.reserved_by(label) == "a"
        for label in labels_b:
            assert pool.reserved_by(label) == "b"
        with pytest.raises(TapeError):
            pool.drive_for_job("c")


class TestRecycleRefusal:
    def test_recycle_of_reserved_cartridge_refused(self, pool):
        # An in-flight job holds the scratch magazine; a retired set that
        # (still) lists one of those cartridges must not recycle it out
        # from under the job.
        drive = pool.drive_for_job("inflight")
        reserved_label = drive.stacker.cartridges[0].label
        retired = record_set(pool.catalog)
        retired.cartridges = [reserved_label]
        with pytest.raises(CatalogError) as excinfo:
            pool.recycle(retired)
        message = str(excinfo.value)
        assert "reserved" in message
        assert "inflight" in message
        assert reserved_label in message

    def test_recycle_succeeds_after_release(self, pool):
        drive = pool.drive_for_job("a")
        drive.write(b"y" * 4096)
        backup_set = record_set(pool.catalog)
        pool.commit_job(drive, backup_set)
        recycled = pool.recycle(backup_set)
        assert recycled == backup_set.cartridges
        for label in recycled:
            assert pool.catalog.cartridge_record(label).status == "scratch"
            assert pool.cartridge(label).used == 0


def _scanned_free(pool):
    """The free scratch cartridges as a scan of the whole inventory finds
    them: scratch, in the pool, unwritten and unreserved, in order."""
    return [label for label, record in pool.catalog.media.items()
            if record.status == "scratch" and label in pool._cartridges
            and not pool.cartridge(label).used
            and pool.reserved_by(label) is None]


class TestFreeList:
    def test_drives_get_what_a_scan_finds(self, tmp_path):
        rng = random.Random(5)
        catalog = BackupCatalog()
        pool = MediaPool(catalog)
        pool.add_blank(12, capacity=8192)
        live, day = [], 0
        for _step in range(60):
            want = _scanned_free(pool)
            if not want:
                pool.recycle(live.pop(0))
                continue
            drive = pool.drive_for_job("j%d" % day)
            assert [c.label for c in drive.stacker.cartridges] == want
            room = 8192 * len(want)
            roll = rng.random()
            if roll < 0.2:
                pool.release_drive(drive)          # abandoned, unwritten
            elif roll < 0.3:
                drive.write(b"z" * rng.randint(1, min(9000, room)))
                for cartridge in drive.stacker.cartridges:
                    cartridge.erase()             # a failed day's cleanup
                pool.release_drive(drive)
            else:
                drive.write(b"x" * rng.randint(1, min(9000, room)))
                pool.adopt_cartridges(drive)
                live.append(record_set(catalog, day=day))
                pool.commit_job(drive, live[-1])
            day += 1
            if live and rng.random() < 0.4:
                pool.recycle(live.pop(0))
            if rng.random() < 0.1:
                pool.save(str(tmp_path / "pool.med"))
                pool = MediaPool.load(catalog, str(tmp_path / "pool.med"))
            assert pool._free == _scanned_free(pool)

    def test_a_loaded_cartridge_holding_bytes_is_not_free(self, pool,
                                                         tmp_path):
        """Bytes no commit allocated (a job cut short after its write)
        keep a scratch cartridge off the free list after a reload."""
        drive = pool.drive_for_job("cut-short")
        drive.write(b"x" * 4096)
        written = drive.stacker.cartridges[0].label
        pool.save(str(tmp_path / "pool.med"))
        loaded = MediaPool.load(pool.catalog, str(tmp_path / "pool.med"))
        assert loaded.catalog.cartridge_record(written).status == "scratch"
        assert loaded._free == _scanned_free(loaded)
        assert written not in [
            c.label for c in loaded.drive_for_job("next").stacker.cartridges]
