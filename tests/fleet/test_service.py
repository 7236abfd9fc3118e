"""The fleet service end to end: determinism, persistence, ad-hoc jobs.

A module-scoped helper initialises a small 3-tenant, 2-drive fleet and
runs it four simulated days in two separate roots, so the determinism
tests can compare the two roots byte for byte; a 4-tenant fleet run
whole and run with a restart halfway shows what a restart costs.
"""

from __future__ import annotations

import filecmp
import gc
import json
import os
import shutil
import weakref

import pytest

from repro.cli import main

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


def run_fleet(root):
    FleetService.init_fleet(str(root), make_spec())
    service = FleetService(str(root))
    totals = service.run_days(DAYS)
    return service, totals


@pytest.fixture(scope="module")
def fleet_pair(tmp_path_factory):
    roots = [tmp_path_factory.mktemp("fleet_%s" % name)
             for name in ("one", "two")]
    return [(root, run_fleet(root)) for root in roots]


class TestDeterminism:
    def test_totals_match_across_roots(self, fleet_pair):
        (_, (_, one_totals)), (_, (_, two_totals)) = fleet_pair
        assert one_totals == two_totals
        assert one_totals["jobs"] == 3 * DAYS

    @pytest.mark.parametrize("rel", COMPARED_FILES)
    def test_artifact_byte_identical(self, fleet_pair, rel):
        # Nothing about the root (its path, the process state an earlier
        # service left behind) reaches a fleet artifact.
        (one_root, _), (two_root, _) = fleet_pair
        assert filecmp.cmp(os.path.join(str(one_root), rel),
                           os.path.join(str(two_root), rel),
                           shallow=False), "%s differs" % rel

    def test_event_log_is_wellformed(self, fleet_pair):
        (serial_root, _), _ = fleet_pair
        with open(os.path.join(str(serial_root), "events.jsonl")) as handle:
            events = [json.loads(line) for line in handle]
        assert events, "event log is empty"
        kinds = {event["event"] for event in events}
        assert kinds == {"submit", "start", "finish"}
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

    def test_a_spec_with_a_quantum_runs_the_same_days(self, tmp_path):
        # Fleet specs written before admission became plain round-robin
        # carry "quantum"; it is read past and changes nothing.
        roots = [tmp_path / "plain", tmp_path / "quantum"]
        for root in roots:
            FleetService.init_fleet(str(root), make_spec())
        spec_path = FleetService.spec_path(str(roots[1]))
        with open(spec_path) as handle:
            data = json.load(handle)
        data["quantum"] = 3
        with open(spec_path, "w") as handle:
            json.dump(data, handle)
        for root in roots:
            FleetService(str(root)).run_days(2)
        for rel in COMPARED_FILES:
            assert (roots[0] / rel).read_bytes() \
                == (roots[1] / rel).read_bytes(), rel

    def test_reinit_refused(self, tmp_path):
        root = str(tmp_path / "fleet")
        FleetService.init_fleet(root, make_spec())
        with pytest.raises(FleetError):
            FleetService.init_fleet(root, make_spec())

    def test_more_than_one_job_refused(self, tmp_path):
        root = str(tmp_path / "fleet")
        FleetService.init_fleet(root, make_spec())
        with pytest.raises(FleetError, match="jobs must be 1"):
            FleetService(root, jobs=2)

    def test_a_dropped_service_frees_its_tenants(self, tmp_path):
        root = str(tmp_path / "fleet")
        FleetService.init_fleet(root, make_spec())
        service = FleetService(root)
        service.run_days(2)
        mounted = weakref.ref(service.tenants["acme"].volume.fs)
        del service
        gc.collect()
        assert mounted() is None


    def test_a_failed_run_saves_the_days_it_completed(self, tmp_path,
                                                      capsys):
        # Three cartridges carry three days; the fourth finds no scratch
        # media.  The run saves the three days it completed, then fails:
        # its root is, file for file, the root of a three-day run, and a
        # rerun fails the same way without moving it.
        from repro.catalog.store import BackupCatalog
        from repro.manager.media import MediaPool

        spec = FleetSpec(tenants=[
            TenantSpec("solo", lane="daily", strategy="logical",
                       schedule="gfs:4x2", retention="redundancy 2",
                       data_bytes=300_000, seed=5, cartridges=3,
                       cartridge_capacity=2_000_000, blocks_per_disk=900)],
            drives=1, seed=7)
        failed, whole = str(tmp_path / "failed"), str(tmp_path / "whole")
        for root in (failed, whole):
            FleetService.init_fleet(root, spec)
        assert main(["fleet", "run", failed, "--days", "5"]) == 2
        assert "no scratch cartridges" in capsys.readouterr().err
        FleetService(whole).run_days(3)
        files = ["events.jsonl", "state.json"] + [
            "tenants/solo/" + name for name in (
                "catalog.json", "catalog.json.journal", "media.bin",
                "volume.bin")]
        for rel in files:
            assert filecmp.cmp(os.path.join(failed, rel),
                               os.path.join(whole, rel), shallow=False), rel
        assert load_state(failed)["day"] == 3
        tenant_root = FleetService.tenant_root(failed, "solo")
        catalog = BackupCatalog.load(os.path.join(tenant_root,
                                                  "catalog.json"))
        pool = MediaPool.load(catalog, os.path.join(tenant_root,
                                                    "media.bin"))
        sets = sorted(catalog.sets.values(), key=lambda s: s.day)
        assert [s.day for s in sets] == [0, 1, 2]
        assert all(pool.cartridge(label).used
                   for s in sets for label in s.cartridges)
        before = {rel: open(os.path.join(failed, rel), "rb").read()
                  for rel in files}
        assert main(["fleet", "run", failed, "--days", "1"]) == 2
        for rel, data in before.items():
            assert open(os.path.join(failed, rel), "rb").read() == data, rel

    def test_a_failing_tenant_day_leaves_the_root_untouched(
            self, tmp_path, monkeypatch):
        # A batch stages every dump, runs them all, then commits: when a
        # tenant-day raises, its own error reaches the caller after one
        # attempt and no file of the root changes.
        from repro.errors import TapeError
        from repro.fleet import service as service_module

        root = tmp_path / "fleet"
        FleetService.init_fleet(str(root), make_spec())
        FleetService(str(root)).run_days(2)
        before = {rel: (root / rel).read_bytes() for rel in COMPARED_FILES}
        real_day = service_module.run_tenant_day_resident
        attempts = []

        def bolt_runs_dry(volume, drive, job_name, *args):
            attempts.append(job_name)
            if job_name.startswith("bolt."):
                raise TapeError("stacker magazine exhausted")
            return real_day(volume, drive, job_name, *args)

        monkeypatch.setattr(service_module, "run_tenant_day_resident",
                            bolt_runs_dry)
        with pytest.raises(TapeError, match="stacker magazine exhausted"):
            FleetService(str(root)).run_days(1)
        assert attempts == ["acme.J00006", "bolt.J00007"]
        for rel, data in before.items():
            assert (root / rel).read_bytes() == data, rel


class TestStateFile:
    """``tests/fleet/data/v1.state.json`` is a state file written by the
    version that pinned tenants to worker lanes (it has an ``affinity``
    map); the spec below is the one it was written under."""

    DATA = os.path.join(os.path.dirname(__file__), "data", "v1.state.json")

    @pytest.fixture()
    def v1_root(self, tmp_path):
        root = str(tmp_path / "fleet")
        FleetService.init_fleet(root, make_spec())
        shutil.copyfile(self.DATA, FleetService.state_path(root))
        return root

    def test_affinity_is_read_past(self, v1_root):
        with open(self.DATA) as handle:
            written = json.load(handle)
        assert "affinity" in written
        service = FleetService(v1_root)
        assert service.scheduler.tick == written["tick"]
        assert service.state["day"] == written["day"] == 2
        service._save_state()
        assert load_state(v1_root) == written
        assert FleetService(v1_root).run_days(1)["jobs"] == 3

    def test_another_version_is_one_error_line(self, v1_root, capsys):
        path = FleetService.state_path(v1_root)
        with open(path) as handle:
            state = json.load(handle)
        state["version"] = 2
        with open(path, "w") as handle:
            json.dump(state, handle)
        assert main(["fleet", "status", v1_root]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("repro-backup: error: ")
        assert "version 2" in err


class TestCommandLine:
    @pytest.mark.parametrize("argv", [
        ["fleet", "run", "root", "--jobs", "2"],
        ["run-campaign", "cat.json", "--pool", "pool.med",
         "--volume", "home=logical", "--jobs", "2"],
    ])
    def test_jobs_is_not_an_option(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


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

    @pytest.mark.parametrize("bad", [
        {"lane": "bogus"},
        {"tenant": "nobody"},
        {"tenant": ["acme"]},
        {"tenant": "acme", "kind": "defrag"},
        {"tenant": "acme", "lane": "bogus"},
        {"tenant": "acme", "kind": "restore", "day": -1},
        {"tenant": "acme", "kind": "restore", "day": "2"},
    ], ids=["no-tenant", "unknown-tenant", "list-tenant", "unknown-kind",
            "unknown-lane", "negative-day", "string-day"])
    def test_a_bad_pending_entry_keeps_the_queue(self, fresh_root, capsys,
                                                 bad):
        # The valid job queued beside a bad one is not lost: the day is
        # refused before the queue on disk is touched.
        submit_job(fresh_root, "acme", kind="dump", lane="interactive")
        path = FleetService.state_path(fresh_root)
        with open(path) as handle:
            state = json.load(handle)
        state["pending"].append(bad)
        with open(path, "w") as handle:
            json.dump(state, handle)
        with open(path, "rb") as handle:
            written = handle.read()
        assert main(["fleet", "run", fresh_root]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        with open(path, "rb") as handle:
            assert handle.read() == written

    def test_a_failed_day_puts_the_jobs_it_claimed_back(self, fresh_root,
                                                        monkeypatch):
        from repro.errors import TapeError
        from repro.fleet import service as service_module

        def runs_dry(*args):
            raise TapeError("stacker magazine exhausted")

        submit_job(fresh_root, "acme", kind="dump", lane="interactive")
        queued = load_state(fresh_root)["pending"]
        monkeypatch.setattr(service_module, "run_tenant_day_resident",
                            runs_dry)
        with pytest.raises(TapeError):
            FleetService(fresh_root).run_days(2)
        assert load_state(fresh_root)["pending"] == queued
        assert load_state(fresh_root)["day"] == 1

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


# ---------------------------------------------------------------------------
# What a restart costs
# ---------------------------------------------------------------------------

LOGICAL = ("alfa", "gila")
IMAGE = ("beta", "dune")

RESTART_FILES = ["events.jsonl", "state.json"] + [
    "tenants/%s/%s" % (name, rel)
    for name in ("alfa", "beta", "gila", "dune")
    for rel in ("catalog.json", "catalog.json.journal", "media.bin",
                "volume.bin")]


def make_restart_spec():
    names = ["alfa", "beta", "gila", "dune"]
    strategies = ["logical", "image", "logical", "image"]
    return FleetSpec(
        tenants=[
            TenantSpec(name, lane="daily", strategy=strategy,
                       schedule="gfs:4x2", retention="redundancy 2",
                       data_bytes=200_000 + 25_000 * index,
                       seed=50 + index, cartridges=8,
                       cartridge_capacity=2_000_000, blocks_per_disk=900)
            for index, (name, strategy) in enumerate(zip(names, strategies))
        ],
        drives=2, seed=171717)


@pytest.fixture(scope="module")
def restart_roots(tmp_path_factory):
    """The same days run whole, and as two service runs (a cold mount of
    every volume halfway)."""
    warm = str(tmp_path_factory.mktemp("warm"))
    FleetService.init_fleet(warm, make_restart_spec())
    FleetService(warm).run_days(DAYS)
    cold = str(tmp_path_factory.mktemp("cold"))
    FleetService.init_fleet(cold, make_restart_spec())
    FleetService(cold).run_days(DAYS // 2)
    FleetService(cold).run_days(DAYS - DAYS // 2)
    return warm, cold


def _json_lines(root, rel):
    with open(os.path.join(root, rel)) as handle:
        return [json.loads(line) for line in handle]


def _leaf_diffs(one, other, path=()):
    """``(path, one's leaf, other's leaf)`` wherever two JSON values differ."""
    if isinstance(one, dict) and isinstance(other, dict) \
            and one.keys() == other.keys():
        return [diff for key in one
                for diff in _leaf_diffs(one[key], other[key], path + (key,))]
    if isinstance(one, list) and isinstance(other, list) \
            and len(one) == len(other):
        return [diff for index, pair in enumerate(zip(one, other))
                for diff in _leaf_diffs(*pair, path + (index,))]
    return [] if one == other else [(path, one, other)]


def test_a_restart_costs_each_logical_tenant_one_cold_dump(restart_roots):
    """A restart shows in exactly one number per logical tenant — its
    first dump afterwards reads metadata the uninterrupted run still had
    cached — and in nothing an image tenant owns, because an image dump
    reads blocks by number, below the cache."""
    warm, cold = restart_roots
    for rel in RESTART_FILES:
        if rel.startswith(tuple("tenants/%s/" % name for name in IMAGE)) \
                or rel.endswith(("media.bin", "catalog.json", "volume.bin")):
            assert filecmp.cmp(os.path.join(warm, rel),
                               os.path.join(cold, rel), shallow=False), rel
    # The event log: one number per logical tenant, strictly larger.
    events = _json_lines(cold, "events.jsonl")
    moved = {}
    for path, before, after in _leaf_diffs(
            _json_lines(warm, "events.jsonl"), events):
        event = events[path[0]]
        assert path[1:] == ("sim_seconds",) and after > before
        assert (event["event"], event["kind"], event["day"]) == (
            "finish", "dump", DAYS // 2)  # the first day after it
        moved[event["tenant"]] = (before, after)
    assert sorted(moved) == sorted(LOGICAL)
    # The same seconds, and nothing else, in the journal and the state.
    for name in LOGICAL:
        rel = "tenants/%s/catalog.json.journal" % name
        (path, before, after), = _leaf_diffs(_json_lines(warm, rel),
                                             _json_lines(cold, rel))
        assert path[-1] == "end_time"
        assert after - before == pytest.approx(
            moved[name][1] - moved[name][0], abs=1e-6)
    recent = _leaf_diffs(load_state(warm), load_state(cold))
    assert all(path[0] == "recent" and path[2:] == ("outcome", "sim_seconds")
               for path, _, _ in recent)
    assert sorted((before, after) for _, before, after in recent) \
        == sorted(moved.values())
