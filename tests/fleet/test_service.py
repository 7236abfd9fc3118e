"""The fleet service end to end: determinism, persistence, ad-hoc jobs.

A module-scoped helper initialises a small 3-tenant, 2-drive fleet and
runs it four simulated days twice — once serial, once with ``jobs=2`` —
so the determinism tests can compare the two roots byte for byte.
"""

from __future__ import annotations

import filecmp
import json
import os

import pytest

from repro.fleet import (
    FleetService,
    FleetSpec,
    TenantSpec,
    load_state,
    set_paused,
    submit_job,
)
from repro.fleet.tenant import FleetError

DAYS = 4

COMPARED_FILES = [
    "events.jsonl",
    "state.json",
    "tenants/acme/catalog.json",
    "tenants/bolt/catalog.json",
    "tenants/corp/catalog.json",
    "tenants/acme/catalog.json.journal",
    "tenants/bolt/catalog.json.journal",
    "tenants/corp/catalog.json.journal",
    "tenants/acme/media.bin",
    "tenants/bolt/media.bin",
    "tenants/corp/media.bin",
    "tenants/acme/volume.bin",
    "tenants/bolt/volume.bin",
    "tenants/corp/volume.bin",
]


def make_spec():
    return FleetSpec(
        tenants=[
            TenantSpec("acme", lane="daily", strategy="logical",
                       schedule="gfs:4x2", retention="redundancy 2",
                       data_bytes=400_000, seed=11, cartridges=8,
                       cartridge_capacity=2_000_000, blocks_per_disk=900),
            TenantSpec("bolt", lane="daily", strategy="image",
                       schedule="hanoi:3", retention="redundancy 2",
                       data_bytes=350_000, seed=22, cartridges=8,
                       cartridge_capacity=2_000_000, blocks_per_disk=900),
            TenantSpec("corp", lane="background", strategy="logical",
                       schedule="gfs:4x2", retention="window 10 days",
                       data_bytes=300_000, seed=33, cartridges=8,
                       cartridge_capacity=2_000_000, blocks_per_disk=900),
        ],
        drives=2, seed=424242)


def run_fleet(root, jobs):
    FleetService.init_fleet(str(root), make_spec())
    service = FleetService(str(root), jobs=jobs)
    totals = service.run_days(DAYS)
    return service, totals


@pytest.fixture(scope="module")
def fleet_pair(tmp_path_factory):
    serial_root = tmp_path_factory.mktemp("fleet_serial")
    parallel_root = tmp_path_factory.mktemp("fleet_parallel")
    serial = run_fleet(serial_root, jobs=1)
    parallel = run_fleet(parallel_root, jobs=2)
    return (serial_root, serial), (parallel_root, parallel)


class TestDeterminism:
    def test_serial_and_parallel_totals_match(self, fleet_pair):
        (_, (_, serial_totals)), (_, (_, parallel_totals)) = fleet_pair
        assert serial_totals == parallel_totals
        assert serial_totals["jobs"] == 3 * DAYS

    @pytest.mark.parametrize("rel", COMPARED_FILES)
    def test_artifact_byte_identical(self, fleet_pair, rel):
        (serial_root, _), (parallel_root, _) = fleet_pair
        assert filecmp.cmp(os.path.join(str(serial_root), rel),
                           os.path.join(str(parallel_root), rel),
                           shallow=False), "%s differs" % rel

    def test_event_log_is_wellformed(self, fleet_pair):
        (serial_root, _), _ = fleet_pair
        with open(os.path.join(str(serial_root), "events.jsonl")) as handle:
            events = [json.loads(line) for line in handle]
        assert events, "event log is empty"
        kinds = {event["event"] for event in events}
        assert kinds == {"submit", "start", "affinity", "finish"}
        starts = {e["job"] for e in events if e["event"] == "start"}
        finishes = {e["job"] for e in events if e["event"] == "finish"}
        assert starts == finishes
        ticks = [event["tick"] for event in events]
        assert ticks == sorted(ticks)

    def test_drive_contention_shows_in_waits(self, fleet_pair):
        # 3 tenants, 2 drives: every day one dump waits a tick.
        (serial_root, (service, _)), _ = fleet_pair
        waits = service.scheduler._completed_waits
        assert any(wait > 0 for wait in waits)
        assert service.scheduler.utilization()[0] == 1.0


class TestPersistence:
    def test_catalogs_accumulate_across_service_instances(self, tmp_path):
        root = str(tmp_path / "fleet")
        FleetService.init_fleet(root, make_spec())
        FleetService(root).run_days(2)
        # A brand-new service instance resumes from day 2, same tick.
        service = FleetService(root)
        assert service.state["day"] == 2
        service.run_days(1)
        state = load_state(root)
        assert state["day"] == 3
        tenant = service.tenants["acme"]
        days = sorted(s.day for s in tenant.catalog.sets.values())
        assert days == [0, 1, 2]

    def test_reinit_refused(self, tmp_path):
        root = str(tmp_path / "fleet")
        FleetService.init_fleet(root, make_spec())
        with pytest.raises(FleetError):
            FleetService.init_fleet(root, make_spec())


class TestAdHocJobs:
    @pytest.fixture()
    def fresh_root(self, tmp_path):
        root = str(tmp_path / "fleet")
        FleetService.init_fleet(root, make_spec())
        FleetService(root).run_days(1)
        return root

    def test_submitted_dump_runs_next_day(self, fresh_root):
        submit_job(fresh_root, "acme", kind="dump", lane="interactive")
        service = FleetService(fresh_root)
        totals = service.run_days(1)
        assert totals["jobs"] == 4  # 3 scheduled + 1 ad-hoc
        recent = load_state(fresh_root)["recent"]
        interactive = [r for r in recent if r["lane"] == "interactive"]
        assert len(interactive) == 1
        assert interactive[0]["tenant"] == "acme"
        # Interactive admission preempts the daily lane.
        assert interactive[0]["wait_ticks"] == 0

    def test_submitted_restore_replays_chain(self, fresh_root):
        submit_job(fresh_root, "bolt", kind="restore", lane="interactive")
        FleetService(fresh_root).run_days(1)
        recent = load_state(fresh_root)["recent"]
        restores = [r for r in recent if r["kind"] == "restore"]
        assert len(restores) == 1
        outcome = restores[0]["outcome"]
        assert outcome["status"] == "ok"
        assert outcome["sets"] >= 1
        assert outcome["nodes"] > 1

    def test_submit_unknown_tenant_refused(self, fresh_root):
        with pytest.raises(FleetError):
            submit_job(fresh_root, "nobody")

    def test_paused_tenant_skips_scheduled_dump(self, fresh_root):
        set_paused(fresh_root, "corp", True)
        FleetService(fresh_root).run_days(1)
        recent = load_state(fresh_root)["recent"]
        day1 = [r for r in recent if r["day"] == 1]
        assert sorted(r["tenant"] for r in day1) == ["acme", "bolt"]
        set_paused(fresh_root, "corp", False)
        FleetService(fresh_root).run_days(1)
        recent = load_state(fresh_root)["recent"]
        day2 = [r for r in recent if r["day"] == 2]
        assert sorted(r["tenant"] for r in day2) == ["acme", "bolt", "corp"]


class TestRetention:
    def test_prune_retires_old_chains(self, tmp_path):
        root = str(tmp_path / "fleet")
        spec = FleetSpec(
            tenants=[TenantSpec("solo", lane="daily", strategy="logical",
                                schedule="gfs:2x2", retention="redundancy 1",
                                data_bytes=300_000, seed=5, cartridges=10,
                                cartridge_capacity=2_000_000,
                                blocks_per_disk=900)],
            drives=1, seed=77)
        FleetService.init_fleet(root, spec)
        totals = FleetService(root).run_days(6)
        assert totals["retired"] > 0
        service = FleetService(root)
        live = [s for s in service.tenants["solo"].catalog.sets.values()
                if s.status == "ok"]
        assert live  # the newest chain always survives
