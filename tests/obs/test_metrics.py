"""Metrics registry invariants under seeded-random workloads.

Rather than hand-picked examples, these tests drive the instruments with
reproducible pseudo-random operation sequences and assert the structural
invariants the rest of the plane relies on: counters never decrease,
histogram buckets always sum to the observation count, and snapshots
are plain JSON in a deterministic order.
"""

from __future__ import annotations

import random

import pytest

from repro.obs.metrics import REGISTRY, Histogram, MetricsRegistry

SEEDS = [0, 7, 991, 424242]


def random_workload(registry, rng, steps=400):
    """Apply a reproducible mix of operations; returns expected sums."""
    counter_sums = {}
    observations = {}
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.4:
            name = "c%d" % rng.randrange(4)
            amount = rng.choice([1, 1, 2, 0.5, 100])
            registry.counter(name).inc(amount)
            counter_sums[name] = counter_sums.get(name, 0.0) + amount
        elif roll < 0.6:
            name = "g%d" % rng.randrange(2)
            registry.gauge(name).set(rng.randrange(1000))
        else:
            name = "h%d" % rng.randrange(3)
            value = rng.uniform(-2.0, 300.0)
            registry.histogram(name, (1, 4, 16, 64, 256)).observe(value)
            observations.setdefault(name, []).append(value)
    return counter_sums, observations


@pytest.mark.parametrize("seed", SEEDS)
def test_counters_match_running_sums(seed):
    registry = MetricsRegistry(enabled=True)
    counter_sums, _ = random_workload(registry, random.Random(seed))
    snap = registry.snapshot()
    for name, expected in counter_sums.items():
        assert snap["counters"][name] == pytest.approx(expected)


def test_counter_rejects_decrease():
    registry = MetricsRegistry(enabled=True)
    registry.counter("c").inc(3)
    with pytest.raises(ValueError):
        registry.counter("c").inc(-1)
    assert registry.counter("c").value == 3


@pytest.mark.parametrize("seed", SEEDS)
def test_histogram_buckets_sum_to_count(seed):
    registry = MetricsRegistry(enabled=True)
    _, observations = random_workload(registry, random.Random(seed))
    snap = registry.snapshot()
    for name, values in observations.items():
        data = snap["histograms"][name]
        assert sum(data["counts"]) == data["count"] == len(values)
        assert data["total"] == pytest.approx(sum(values))
        # Recompute bucket placement independently.
        expected = [0] * (len(data["bounds"]) + 1)
        for value in values:
            index = 0
            for bound in data["bounds"]:
                if value <= bound:
                    break
                index += 1
            expected[index] += 1
        assert data["counts"] == expected


def test_histogram_declaration_rules():
    registry = MetricsRegistry(enabled=True)
    with pytest.raises(ValueError):
        registry.histogram("missing")  # no bounds on first use
    with pytest.raises(ValueError):
        Histogram("bad", ())  # empty bounds
    with pytest.raises(ValueError):
        Histogram("bad", (4, 1))  # unsorted bounds
    registry.histogram("h", (1, 2))
    with pytest.raises(ValueError):
        registry.histogram("h", (1, 3))  # conflicting re-declaration
    assert registry.histogram("h") is registry.histogram("h", (1, 2))


@pytest.mark.parametrize("seed", SEEDS)
def test_snapshot_round_trips_exactly(seed):
    registry = MetricsRegistry(enabled=True)
    random_workload(registry, random.Random(seed))
    snap = registry.snapshot()
    # Snapshots are plain JSON types with deterministic key order.
    import json
    assert json.loads(json.dumps(snap)) == snap
    assert list(snap["counters"]) == sorted(snap["counters"])
    assert list(snap["histograms"]) == sorted(snap["histograms"])


def test_reset_clears_instruments_but_not_enabled():
    registry = MetricsRegistry(enabled=True)
    registry.counter("c").inc()
    registry.reset()
    assert registry.snapshot() == {"counters": {}, "gauges": {},
                                   "histograms": {}}
    assert registry.enabled


def test_to_text_is_deterministic_and_complete():
    registry = MetricsRegistry(enabled=True)
    registry.counter("tape.writes").inc(3)
    registry.gauge("sim.events_scheduled").set(42)
    hist = registry.histogram("disk.read_run_blocks", (1, 4))
    hist.observe(2)
    hist.observe(9)
    text = registry.to_text()
    assert text == registry.to_text()
    assert "counter   tape.writes" in text
    assert "gauge     sim.events_scheduled" in text
    assert "histogram disk.read_run_blocks" in text
    assert "(-inf, 1]" in text and "(4, +inf)" in text


def test_volume_counters_see_every_block_of_a_campaign_day(monkeypatch):
    """``volume.read_blocks``/``volume.write_blocks`` count the traffic
    the recorders see — single blocks included, whichever name issued
    them — over a whole day: aging, snapshots, one logical and one image
    incremental."""
    from repro.catalog import BackupCatalog
    from repro.manager import GFS, CampaignDriver, MediaPool
    from repro.storage.device import IoRecorder
    from repro.units import MB
    from repro.workload import WorkloadGenerator
    from tests.conftest import make_fs

    recorders = []
    plain_init = IoRecorder.__init__

    def listed_init(self):
        plain_init(self)
        recorders.append(self)

    # The engines swap private recorders in around their data phases.
    monkeypatch.setattr(IoRecorder, "__init__", listed_init)
    catalog = BackupCatalog()
    pool = MediaPool(catalog)
    pool.add_blank(20, capacity=2 * MB)
    driver = CampaignDriver(catalog, pool, keep_daily_snapshots=True, seed=7)
    for index, (name, strategy) in enumerate(
            [("home", "logical"), ("rlse", "image")]):
        fs = make_fs(name=name, blocks_per_disk=600)
        tree = WorkloadGenerator(seed=20 + index).populate(fs, MB // 2)
        fs.consistency_point()
        fs.volume.recorder = IoRecorder()
        driver.add_volume(fs, tree, strategy, GFS(4, 2))
    driver.run_day()
    before = (sum(r.total_read_blocks for r in recorders),
              sum(r.total_written_blocks for r in recorders))
    REGISTRY.enabled = True
    driver.run_day()
    counters = REGISTRY.snapshot()["counters"]
    read = sum(r.total_read_blocks for r in recorders) - before[0]
    written = sum(r.total_written_blocks for r in recorders) - before[1]
    assert read and written
    assert counters["volume.read_blocks"] == read
    assert counters["volume.write_blocks"] == written
