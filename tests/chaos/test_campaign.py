"""Chaos campaigns converge to the fault-free oracle, byte for byte.

The property under test is the tentpole claim: a multi-day GFS campaign
with seeded random faults injected — and recovered — at arbitrary
volume-days finishes with catalog, media pool, and volume images
byte-identical to an oracle campaign of the same workload seeds that
never faulted.  ``CampaignMachine``
(``tests/properties/test_campaign_props.py``) holds the same claim over
drawn fault kinds, prunes, restarts and catalog faults; these fixed-seed
runs pin one rate-driven plan end to end.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.backup.logical.restore import LogicalRestore
from repro.backup.physical.image import read_image_header
from repro.backup.physical.restore import ImageRestore
from repro.catalog import BackupCatalog
from repro.catalog.journal import journal_path
from repro.chaos import (
    ChaosPlan,
    campaign_state_digests,
    compare_digests,
    drive_engine_with_kill,
)
from repro.chaos.verify import volume_digest
from repro.manager import restore_point_in_time
from repro.raid.volume import RaidVolume

from tests.conftest import make_fs

from tests.chaos.conftest import run_chaos_campaign

DAYS = 6
CHAOS_SEED = 7


@pytest.fixture(scope="module")
def oracle(tmp_path_factory):
    plan = ChaosPlan(CHAOS_SEED, rate=1.0, enabled=False)
    return run_chaos_campaign(
        str(tmp_path_factory.mktemp("oracle")), plan, days=DAYS)


@pytest.fixture(scope="module")
def chaos(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("chaos"))
    plan = ChaosPlan(CHAOS_SEED, rate=1.0)
    return run_chaos_campaign(root, plan, days=DAYS,
                              events_path=os.path.join(root, "chaos.jsonl"))


class TestOracleConvergence:
    def test_faults_were_actually_injected(self, chaos):
        hits = [e for e in chaos.events if e["outcome"] == "hit"]
        assert len(hits) >= 3
        # Both volumes took faults, and more than one kind fired.
        assert len({e["fsid"] for e in hits}) == 2
        assert len({e["kind"] for e in hits}) >= 2

    def test_recovered_state_matches_oracle_byte_for_byte(self, oracle,
                                                          chaos):
        assert compare_digests(oracle.digests(), chaos.digests()) == []

    def test_catalog_file_identical(self, oracle, chaos):
        for name in (oracle.catalog_path, journal_path(oracle.catalog_path)):
            with open(name, "rb") as left, open(os.path.join(
                    chaos.root, os.path.basename(name)), "rb") as right:
                assert left.read() == right.read()
        # Days after the first are journal lines, not image rewrites.
        with open(journal_path(oracle.catalog_path)) as handle:
            assert len(handle.readlines()) == DAYS - 1

    def test_catalogs_differing_in_one_journal_line_mismatch(self, tmp_path):
        digests = []
        for name, date in (("left", 200), ("right", 201)):
            path = str(tmp_path / name / "catalog.json")
            os.makedirs(os.path.dirname(path))
            catalog = BackupCatalog(path)
            catalog.record_set("home", "/", "logical", 0, 0, 100)
            catalog.record_set("home", "/", "logical", 1, 1, date)
            digests.append(campaign_state_digests(
                path, str(tmp_path / name / "pool.med"), {}))
        # The images (day 0) are the same bytes; only day 1 differs.
        assert digests[0]["catalog"] == digests[1]["catalog"]
        assert [key for key, _l, _r in compare_digests(*digests)] \
            == ["journal"]


class TestOracleIsThePlainCampaign:
    def test_disabled_plan_matches_plain_driver(self, oracle,
                                                tmp_path_factory):
        plain = run_chaos_campaign(
            str(tmp_path_factory.mktemp("plain")), None, days=DAYS)
        assert compare_digests(plain.digests(), oracle.digests()) == []
        assert oracle.events == []


class TestEventStream:
    def test_sequence_numbers_are_gapless(self, chaos):
        assert [e["seq"] for e in chaos.events] == list(
            range(1, len(chaos.events) + 1))

    def test_every_event_names_a_planned_fault(self, chaos):
        plan = ChaosPlan(CHAOS_SEED, rate=1.0)
        planned = {f.fault_id: f for f in plan.faults_for_campaign(DAYS, 2)}
        for event in chaos.events:
            fault = planned[event["fault_id"]]
            assert event["kind"] == fault.kind
            assert event["params"] == fault.params
            assert event["outcome"] in ("hit", "miss")
        # Every planned fault produced exactly one event.
        assert len(chaos.events) == len(planned)

    def test_events_jsonl_matches_memory(self, chaos):
        with open(os.path.join(chaos.root, "chaos.jsonl")) as handle:
            lines = [json.loads(line) for line in handle]
        # Round-trip the in-memory events too: JSON has no tuples.
        assert lines == json.loads(json.dumps(chaos.events))


class TestRestoreDrill:
    """A filer that dies mid-restore recovers by restoring again: the
    tapes are read-only, so the chain replays from the start onto a
    fresh target and the half-written one is discarded."""

    @pytest.mark.parametrize("fsid", ["home", "rlse"])
    def test_aborted_restore_retries_to_identical_volume(self, chaos, fsid):
        catalog = chaos.driver.catalog
        pool = chaos.driver.pool
        first = catalog.chain_for(fsid).sets[0]
        drive = pool.drive_for_restore(first)
        if first.strategy == "logical":
            engine = LogicalRestore(make_fs(name="aborted"), drive).run()
        else:
            volume = RaidVolume(read_image_header(
                pool.drive_for_restore(first)).geometry)
            engine = ImageRestore(volume, drive).run()
        aborted = drive_engine_with_kill(engine, 3)
        assert aborted.killed and aborted.result is None
        assert aborted.tape_ops_seen >= 3
        fs, _ = restore_point_in_time(catalog, pool, fsid)
        # The retry must land exactly what an uninterrupted restore does.
        straight, _ = restore_point_in_time(catalog, pool, fsid)
        assert volume_digest(fs.volume) == volume_digest(straight.volume)
