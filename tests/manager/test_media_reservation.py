"""Media-pool reservations: in-flight drives own their scratch media.

A long-lived scheduler stacks scratch cartridges into a job's drive
long before the job's bytes land.  These tests pin the reservation
contract: reserved media is excluded from later drive builds, refuses
to be recycled, and is released exactly at commit or explicit release.
"""

from __future__ import annotations

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
