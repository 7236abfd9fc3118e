"""The fleet scheduler's admission mechanics, in isolation.

These tests drive :class:`FleetScheduler` with hand-built jobs — no file
systems, no tapes — to pin the invariants the service relies on:
priority lanes, round-robin turns within a lane, one-job-per-tenant
batches, drive reservation, and the determinism of the event log.
"""

from __future__ import annotations

import pytest

from repro.fleet import DriveTable, FleetScheduler, Job
from repro.fleet.tenant import FleetError


def make_scheduler(drives=2):
    return FleetScheduler(DriveTable(drives))


def submit(scheduler, tenant, lane="daily", kind="dump", weight=1,
           day=0):
    job = Job("J%05d" % len(scheduler.events), tenant, kind, lane, day,
              scheduler.tick, payload={"weight": weight})
    scheduler.submit(job)
    return job


def finish_batch(scheduler, batch, **outcome):
    scheduler.advance_tick()
    for job in batch:
        scheduler.complete(job, **outcome)


class TestDriveTable:
    def test_lowest_free_index_first(self):
        table = DriveTable(3)
        assert table.reserve("a") == 0
        assert table.reserve("b") == 1
        table.release(0, "a")
        assert table.reserve("c") == 0

    def test_release_checks_holder(self):
        table = DriveTable(1)
        table.reserve("a")
        with pytest.raises(FleetError):
            table.release(0, "b")

    def test_busy_ticks_accrue_only_while_held(self):
        table = DriveTable(2)
        table.reserve("a")
        table.tick()
        table.tick()
        table.release(0, "a")
        table.tick()
        assert table.busy_ticks == [2, 0]


class TestLanes:
    def test_interactive_preempts_daily_and_background(self):
        scheduler = make_scheduler(drives=1)
        submit(scheduler, "t1", lane="background")
        submit(scheduler, "t2", lane="daily")
        submit(scheduler, "t3", lane="interactive")
        batch = scheduler.admit()
        assert [job.tenant for job in batch] == ["t3"]
        finish_batch(scheduler, batch)
        assert [job.tenant for job in scheduler.admit()] == ["t2"]

    def test_lower_lane_fills_leftover_drives(self):
        scheduler = make_scheduler(drives=2)
        submit(scheduler, "t1", lane="interactive")
        submit(scheduler, "t2", lane="background")
        batch = scheduler.admit()
        assert [(job.tenant, job.lane) for job in batch] == [
            ("t1", "interactive"), ("t2", "background")]


class TestFairness:
    def test_round_robin_rotates_across_batches(self):
        scheduler = make_scheduler(drives=1)
        for _ in range(2):
            submit(scheduler, "a")
            submit(scheduler, "b")
        order = []
        while scheduler.queue_depth():
            batch = scheduler.admit()
            order.extend(job.tenant for job in batch)
            finish_batch(scheduler, batch)
        # Strict alternation: no tenant is served twice while the other
        # still has queued work.
        assert order == ["a", "b", "a", "b"]

    def test_one_job_per_tenant_per_batch(self):
        scheduler = make_scheduler(drives=4)
        submit(scheduler, "a")
        submit(scheduler, "a")
        submit(scheduler, "b")
        batch = scheduler.admit()
        assert sorted(job.tenant for job in batch) == ["a", "b"]
        finish_batch(scheduler, batch)
        assert [job.tenant for job in scheduler.admit()] == ["a"]

    def test_batch_bounded_by_drives(self):
        scheduler = make_scheduler(drives=2)
        for name in ("a", "b", "c"):
            submit(scheduler, name)
        assert len(scheduler.admit()) == 2

    def test_one_drive_caps_batch_at_one_job(self):
        scheduler = make_scheduler(drives=1)
        for name in ("a", "b", "c"):
            submit(scheduler, name)
        assert len(scheduler.admit()) == 1

    @pytest.mark.parametrize("big_weight", [1, 2, 5])
    def test_backlogged_tenants_alternate_whatever_the_weight(
            self, big_weight):
        # One drive, two backlogged tenants: they take turns, and a
        # weight carried in the job payload changes no turn.
        scheduler = make_scheduler(drives=1)
        for _ in range(8):
            submit(scheduler, "big", weight=big_weight)
        for _ in range(8):
            submit(scheduler, "small")
        served = []
        for _ in range(9):
            batch = scheduler.admit()
            served.extend(job.tenant for job in batch)
            finish_batch(scheduler, batch)
        assert served == ["big", "small"] * 4 + ["big"]


class TestDeterminism:
    def run_sequence(self):
        scheduler = make_scheduler(drives=2)
        log = []
        submit(scheduler, "a", lane="daily")
        submit(scheduler, "b", lane="daily")
        submit(scheduler, "c", lane="background")
        submit(scheduler, "a", lane="interactive", kind="restore")
        while scheduler.queue_depth():
            batch = scheduler.admit()
            log.append([(job.job_id, job.drive) for job in batch])
            finish_batch(scheduler, batch, status="ok")
        return log, scheduler.events

    def test_identical_runs_produce_identical_logs(self):
        first_log, first_events = self.run_sequence()
        second_log, second_events = self.run_sequence()
        assert first_log == second_log
        assert first_events == second_events

    def test_event_log_records_waits_and_drives(self):
        _log, events = self.run_sequence()
        starts = [e for e in events if e["event"] == "start"]
        assert all("drive" in e and "wait_ticks" in e for e in starts)
        finishes = [e for e in events if e["event"] == "finish"]
        assert len(finishes) == 4
        assert all(e["status"] == "ok" for e in finishes)

    def test_wait_ticks_measure_queueing(self):
        scheduler = make_scheduler(drives=1)
        first = submit(scheduler, "a")
        second = submit(scheduler, "b")
        batch = scheduler.admit()
        finish_batch(scheduler, batch)
        batch = scheduler.admit()
        finish_batch(scheduler, batch)
        assert first.wait_ticks == 0
        assert second.wait_ticks == 1

    def test_utilization_fraction(self):
        scheduler = make_scheduler(drives=2)
        submit(scheduler, "a")
        batch = scheduler.admit()
        finish_batch(scheduler, batch)
        assert scheduler.utilization() == [1.0, 0.0]


class TestValidation:
    def test_unknown_lane_refused(self):
        with pytest.raises(FleetError):
            Job("J1", "t", "dump", "express", 0, 0)

    def test_unknown_kind_refused(self):
        with pytest.raises(FleetError):
            Job("J1", "t", "defrag", "daily", 0, 0)

    def test_complete_requires_running(self):
        scheduler = make_scheduler()
        job = submit(scheduler, "a")
        with pytest.raises(FleetError):
            scheduler.complete(job)
