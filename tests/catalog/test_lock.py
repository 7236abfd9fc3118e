"""The catalog commit lock: mutual exclusion across processes.

The two-writer test is the satellite's acceptance case: two processes
hammer lock-protected read-modify-write cycles on one file and the
total must show no lost update.  The rest pins the FileLock API —
re-entrancy, timeout diagnostics, and that ``BackupCatalog.save`` goes
through the lock at all.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time

import pytest

from repro.catalog import CATALOG_VERSION, BackupCatalog, FileLock
from repro.errors import CatalogError

INCREMENTS = 200


def _locked_counter_worker(path, rounds):
    """Read-modify-write ``rounds`` increments under the lock."""
    for _ in range(rounds):
        with FileLock(path + ".lock", timeout=30.0):
            with open(path) as handle:
                value = int(handle.read())
            # Widen the race window: without the lock, concurrent
            # writers routinely clobber each other here.
            time.sleep(0.0002)
            # The count only grows, so it is written over in place: no
            # truncate, which is slow where ``discard`` is mounted.
            with open(path, "r+") as handle:
                handle.write(str(value + 1))


def _hold_lock_worker(path, acquired, release):
    with FileLock(path, timeout=30.0):
        acquired.set()
        release.wait(30.0)


def _catalog_writer_worker(path, fsid, days):
    catalog = BackupCatalog.load(path)
    for day in days:
        catalog.record_set(fsid=fsid, subtree="/", strategy="logical",
                           level=0, day=day, date=100 + day, save=False)
    catalog.save()


class TestTwoWriters:
    def test_no_lost_updates_across_processes(self, tmp_path):
        path = str(tmp_path / "counter")
        with open(path, "w") as handle:
            handle.write("0")
        ctx = multiprocessing.get_context("fork")
        workers = [
            ctx.Process(target=_locked_counter_worker,
                        args=(path, INCREMENTS))
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        with open(path) as handle:
            assert int(handle.read()) == 2 * INCREMENTS

    def test_concurrent_catalog_saves_leave_valid_file(self, tmp_path):
        path = str(tmp_path / "catalog.json")
        BackupCatalog(path).save()
        ctx = multiprocessing.get_context("fork")
        workers = [
            ctx.Process(target=_catalog_writer_worker,
                        args=(path, "fs%d" % index, range(3)))
            for index in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        # Depending on interleaving one writer's snapshot wins (3 sets)
        # or they fully serialise (6) — either way the survivor must be
        # a complete, parseable catalog, never an interleaved torn write.
        with open(path) as handle:
            data = json.load(handle)
        reloaded = BackupCatalog.load(path)
        assert len(reloaded.sets) in (3, 6)
        assert data["version"] == CATALOG_VERSION


class TestAcquisition:
    def test_context_manager_round_trip(self, tmp_path):
        lock = FileLock(str(tmp_path / "x.lock"))
        assert not lock.locked
        with lock:
            assert lock.locked
            assert lock.holder_pid() == os.getpid()
        assert not lock.locked

    def test_reentrant_within_one_object(self, tmp_path):
        lock = FileLock(str(tmp_path / "x.lock"))
        with lock:
            with lock:
                assert lock.locked
            assert lock.locked  # inner exit must not release the lock
        assert not lock.locked

    def test_release_unheld_refused(self, tmp_path):
        lock = FileLock(str(tmp_path / "x.lock"))
        with pytest.raises(CatalogError):
            lock.release()

    def test_timeout_names_holder_pid(self, tmp_path):
        path = str(tmp_path / "x.lock")
        ctx = multiprocessing.get_context("fork")
        acquired = ctx.Event()
        release = ctx.Event()
        holder = ctx.Process(target=_hold_lock_worker,
                             args=(path, acquired, release))
        holder.start()
        try:
            assert acquired.wait(30.0)
            contender = FileLock(path, timeout=0.2)
            with pytest.raises(CatalogError) as excinfo:
                contender.acquire()
            assert "timed out" in str(excinfo.value)
            assert str(holder.pid) in str(excinfo.value)
        finally:
            release.set()
            holder.join(timeout=30)
        # Once the holder exits, the lock is free immediately.
        with FileLock(path, timeout=5.0):
            pass

    def test_lock_released_when_holder_dies(self, tmp_path):
        path = str(tmp_path / "x.lock")
        ctx = multiprocessing.get_context("fork")
        acquired = ctx.Event()
        release = ctx.Event()
        holder = ctx.Process(target=_hold_lock_worker,
                             args=(path, acquired, release))
        holder.start()
        assert acquired.wait(30.0)
        holder.terminate()  # dies without releasing
        holder.join(timeout=30)
        # The kernel drops a dead holder's flock: no stale lock to break.
        with FileLock(path, timeout=5.0) as lock:
            assert lock.locked


class TestStoreIntegration:
    def test_save_takes_the_lock(self, tmp_path):
        path = str(tmp_path / "catalog.json")
        catalog = BackupCatalog(path)
        with catalog._lock():
            # Held by us (same process, different object): a save from a
            # short-timeout contender must time out, proving save() goes
            # through the lock rather than around it.
            contender = BackupCatalog(path)
            contender_lock = contender._lock()
            contender_lock.timeout = 0.2
            with pytest.raises(CatalogError):
                contender_lock.acquire()
        catalog.save()
        assert os.path.exists(path)

    def test_in_memory_catalog_save_is_noop(self):
        BackupCatalog().save()  # no path, no lock, no crash
