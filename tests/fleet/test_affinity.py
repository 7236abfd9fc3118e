"""Sticky tenant affinity and the worker-resident cache: determinism.

Four runs of the same 4-tenant, 2-drive fleet: parallel and serial with a
live mid-run cache invalidation, and parallel and serial restarted
halfway (fresh service, residents gone, epochs back to zero, every
volume mounted cold from its ``volume.bin``).  ``--jobs`` never shows in
any artifact, tenant volumes included; a restart shows in exactly one
number per logical tenant — its first dump afterwards reads metadata the
uninterrupted run still had cached — and in nothing an image tenant
owns, because an image dump reads blocks by number, below the cache.
Affinity itself must be deterministic, persisted, and sticky across days.
"""

from __future__ import annotations

import filecmp
import json
import os

import pytest

from repro.fleet import FleetService, FleetSpec, TenantSpec, load_state

DAYS = 4
INVALIDATED = "beta"
LOGICAL = ("alfa", "gila")
IMAGE = ("beta", "dune")

COMPARED_FILES = [
    "events.jsonl",
    "state.json",
    "tenants/alfa/catalog.json",
    "tenants/beta/catalog.json",
    "tenants/gila/catalog.json",
    "tenants/dune/catalog.json",
    "tenants/alfa/catalog.json.journal",
    "tenants/beta/catalog.json.journal",
    "tenants/gila/catalog.json.journal",
    "tenants/dune/catalog.json.journal",
    "tenants/alfa/media.bin",
    "tenants/beta/media.bin",
    "tenants/gila/media.bin",
    "tenants/dune/media.bin",
    "tenants/alfa/volume.bin",
    "tenants/beta/volume.bin",
    "tenants/gila/volume.bin",
    "tenants/dune/volume.bin",
]

#: variant -> (the --jobs 2 root, the --jobs 1 root it must equal).
PAIRS = {"serial": ("parallel", "serial"), "cold": ("cold", "cold_serial")}


def make_spec():
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


def run_with_midrun_invalidation(root, jobs):
    """Half the days, a live epoch bump, the other half, then finalize.

    ``run_day`` keeps the pool (and therefore the worker-resident
    volumes) alive across the invalidation, so the parallel run really
    exercises sync-home + epoch bump + reship; ``run_days(0)`` is the
    shutdown path — residents pulled home, state saved.
    """
    FleetService.init_fleet(str(root), make_spec())
    service = FleetService(str(root), jobs=jobs)
    for _ in range(DAYS // 2):
        service.run_day()
    service.invalidate_tenant(INVALIDATED)
    for _ in range(DAYS // 2):
        service.run_day()
    service.run_days(0)
    return service


def run_with_cold_restart(root, jobs):
    """Same days, but a full service restart (a cold mount) halfway."""
    FleetService.init_fleet(str(root), make_spec())
    FleetService(str(root), jobs=jobs).run_days(DAYS // 2)
    service = FleetService(str(root), jobs=jobs)
    service.run_days(DAYS - DAYS // 2)
    return service


@pytest.fixture(scope="module")
def fleet_runs(tmp_path_factory):
    roots = {name: tmp_path_factory.mktemp("aff_" + name)
             for name in ("parallel", "serial", "cold", "cold_serial")}
    services = {
        "parallel": run_with_midrun_invalidation(roots["parallel"], jobs=2),
        "serial": run_with_midrun_invalidation(roots["serial"], jobs=1),
        "cold": run_with_cold_restart(roots["cold"], jobs=2),
        "cold_serial": run_with_cold_restart(roots["cold_serial"], jobs=1),
    }
    return roots, services


def _same(roots, one, other, rel):
    return filecmp.cmp(os.path.join(str(roots[one]), rel),
                       os.path.join(str(roots[other]), rel), shallow=False)


def _json_lines(root, rel):
    with open(os.path.join(str(root), rel)) as handle:
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


class TestDeterminism:
    @pytest.mark.parametrize("variant", sorted(PAIRS))
    @pytest.mark.parametrize("rel", COMPARED_FILES)
    def test_byte_identical_to_parallel(self, fleet_runs, variant, rel):
        roots, _ = fleet_runs
        assert _same(roots, *PAIRS[variant], rel), \
            "%s differs (%s)" % (rel, variant)

    def test_a_restart_costs_each_logical_tenant_one_cold_dump(self,
                                                               fleet_runs):
        roots, _ = fleet_runs
        warm, cold = roots["parallel"], roots["cold"]
        for rel in COMPARED_FILES:
            if rel.startswith(tuple("tenants/%s/" % name for name in IMAGE)) \
                    or rel.endswith(("media.bin", "catalog.json",
                                     "volume.bin")):
                assert _same(roots, "parallel", "cold", rel), rel
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
        recent = _leaf_diffs(load_state(str(warm)), load_state(str(cold)))
        assert all(path[0] == "recent" and path[2:] == ("outcome",
                                                        "sim_seconds")
                   for path, _, _ in recent)
        assert sorted((before, after) for _, before, after in recent) \
            == sorted(moved.values())

    def test_epoch_bumped_by_invalidation(self, fleet_runs):
        _, services = fleet_runs
        for variant in ("parallel", "serial"):
            service = services[variant]
            assert service.tenants[INVALIDATED].epoch == 1
            others = [t.epoch for name, t in service.tenants.items()
                      if name != INVALIDATED]
            assert others == [0, 0, 0]


class TestStickiness:
    def test_affinity_covers_all_tenants_and_lanes(self, fleet_runs):
        roots, services = fleet_runs
        affinity = services["parallel"].scheduler.affinity
        assert sorted(affinity) == ["alfa", "beta", "dune", "gila"]
        # Two drive lanes, four tenants: both lanes carry two tenants.
        lanes = sorted(affinity.values())
        assert lanes == [0, 0, 1, 1]
        assert load_state(str(roots["parallel"]))["affinity"] == affinity

    def test_affinity_identical_across_variants(self, fleet_runs):
        _, services = fleet_runs
        reference = services["parallel"].scheduler.affinity
        assert services["serial"].scheduler.affinity == reference
        assert services["cold"].scheduler.affinity == reference
        assert services["cold_serial"].scheduler.affinity == reference

    def test_assignment_happens_once_then_sticks(self, fleet_runs):
        roots, _ = fleet_runs
        with open(os.path.join(str(roots["parallel"]),
                               "events.jsonl")) as handle:
            events = [json.loads(line) for line in handle]
        affinity_events = [e for e in events if e["event"] == "affinity"]
        # One assignment per tenant, all on day 0 — the mid-run epoch
        # bump invalidates the *cache*, never the placement.
        assert len(affinity_events) == 4
        assert {e["day"] for e in affinity_events} == {0}
        # Dumps keep running on the assigned lane every day after.
        finishes = [e for e in events
                    if e["event"] == "finish" and e["kind"] == "dump"]
        assert len(finishes) == 4 * DAYS
