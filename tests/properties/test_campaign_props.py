"""The campaign plane as one state machine.

Campaign days, the catalog journal, the media pool, chaos recovery and
point-in-time restore, driven through their public code.  A chaos
campaign runs in lockstep with a fault-free twin of the same seeds: the
twin takes every rule but the faults, and after a faulted day the two
must persist byte-identical state — the verdict ``run-campaign --chaos``
gives.  Every committed day freezes each volume's oracle as a
``clone_volume()``; a point-in-time restore must match it.
"""

import json
import os
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import manager
from repro.backup import ImageRestore, LogicalRestore, verify_trees
from repro.backup.physical.image import read_image_header
from repro.catalog import BackupCatalog
from repro.catalog.journal import journal_path
from repro.chaos import (
    ChaosCampaignDriver,
    ChaosPlan,
    FaultSpec,
    campaign_state_digests,
    compare_digests,
    drive_engine_with_kill,
)
from repro.chaos.plan import (
    KIND_CORRUPT,
    KIND_CRASH,
    KIND_DISK_FAIL,
    KIND_EJECT,
    KIND_KILL,
    KIND_TORN_CP,
)
from repro.chaos.verify import file_digest
from repro.errors import CatalogError, NoSpaceError, TapeError
from repro.manager import GFS, CampaignDriver, MediaPool, restore_point_in_time
from repro.raid.volume import RaidVolume
from repro.storage.persist import save_volume
from repro.units import KB, MB
from repro.wafl.consts import BLOCK_SIZE
from repro.wafl.fsck import fsck
from repro.workload import WorkloadGenerator

from tests.conftest import make_fs

VOLUMES = (("home", "logical"), ("rlse", "image"))
TAPE = MB
NO_FAULTS = ChaosPlan(0, enabled=False)
#: Above any Linux ``pid_max``: no live process has it.
DEAD_PID = 2 ** 30
#: A commit the crash tore: any prefix of it, newline never written.
TORN_LINE = b'{"op":"batch","records":[{"key":"home|/","op":"policy",' \
            b'"text":"redundancy 9"}]}'

_fraction = st.floats(0, 1, exclude_max=True)
#: Each kind's parameters, over the ranges ``ChaosPlan`` draws from.
FAULT_PARAMS = {
    KIND_KILL: st.fixed_dictionaries({"after_tape_ops": st.integers(1, 48)}),
    KIND_CORRUPT: st.fixed_dictionaries({
        "after_tape_ops": st.integers(2, 49),
        "cartridge_back": st.integers(0, 2),
        "offset_frac": _fraction, "xor": st.integers(1, 255)}),
    KIND_EJECT: st.fixed_dictionaries({"after_tape_ops": st.integers(2, 49)}),
    KIND_DISK_FAIL: st.lists(
        st.tuples(_fraction, _fraction, _fraction), min_size=1, max_size=4,
    ).map(lambda draws: {"nblocks": len(draws), "draws": draws}),
    KIND_CRASH: st.just({}),
    KIND_TORN_CP: st.fixed_dictionaries({"fuse_blocks": st.integers(1, 32)}),
}


class OneFault:
    """A plan that strikes one volume-day, asked as a ``ChaosPlan`` is."""

    def __init__(self, spec):
        self.spec = spec

    def fault_for(self, day, volume_index):
        spec = self.spec
        if (day, volume_index) == (spec.day, spec.volume_index):
            return spec
        return None


def catalog_state(catalog):
    """Everything a catalog knows, comparable across a load."""
    return ({set_id: s.to_dict() for set_id, s in catalog.sets.items()},
            {label: c.to_dict() for label, c in catalog.media.items()},
            catalog.policies, catalog.next_set, catalog.next_cartridge,
            [catalog.dumpdates.history(fsid, "/") for fsid, _ in VOLUMES])


def journal_lines(path):
    if not os.path.exists(path):
        return 0
    with open(path, "rb") as handle:
        return handle.read().count(b"\n")


def fill(fs, prefix):
    """Write files until not one more block fits; returns their paths."""
    paths = []
    size = fs.statfs()["free_blocks"] * BLOCK_SIZE
    while size >= BLOCK_SIZE:
        path = "%s%d" % (prefix, len(paths))
        try:
            fs.create(path, bytes([len(paths) + 1]) * size)
        except NoSpaceError:
            size //= 2
        if fs.exists(path):  # a refused write may leave the name
            paths.append(path)
    return paths


class Campaign:
    """One campaign on disk: two NVRAM volumes, a catalog with a path and
    a bounded pool."""

    def __init__(self, root, seed, nbytes, tapes, plan=None):
        os.makedirs(root)
        self.root = root
        self.catalog_path = os.path.join(root, "cat.json")
        self.pool_path = os.path.join(root, "pool.med")
        self.events_path = os.path.join(root, "events.jsonl")
        catalog = BackupCatalog(self.catalog_path)
        pool = MediaPool(catalog)
        pool.add_blank(tapes, capacity=TAPE)
        catalog.commit_dirty()
        if plan is None:
            self.driver = CampaignDriver(catalog, pool, seed=seed)
        else:
            self.driver = ChaosCampaignDriver(
                catalog, pool, plan, events_path=self.events_path, seed=seed)
        for index, (name, strategy) in enumerate(VOLUMES):
            fs = make_fs(name=name, blocks_per_disk=600, nvram=True)
            tree = WorkloadGenerator(seed=seed + index).populate(fs, nbytes)
            fs.consistency_point()
            self.driver.add_volume(fs, tree, strategy, GFS(2, 2))

    @property
    def catalog(self):
        return self.driver.catalog

    @property
    def pool(self):
        return self.driver.pool

    def run_day(self):
        """One day; ``None``, or the type of the error it raised.  A day
        that raises commits nothing and holds nothing; one that commits
        is one journal line (or a compaction)."""
        driver = self.driver
        journal = journal_path(self.catalog_path)

        def held():
            return (catalog_state(driver.catalog), driver.day,
                    file_digest(self.catalog_path), file_digest(journal),
                    [{record.name for record in volume.fs.snapshots()}
                     for volume in driver.volumes])

        before, lines = held(), journal_lines(journal)
        try:
            driver.run_day()
        except (TapeError, NoSpaceError) as error:
            assert held() == before
            return type(error)
        assert journal_lines(journal) in (lines + 1, 0)
        return None

    def restart(self):
        """Save the pool, load catalog and pool back, go on with those."""
        self.pool.save(self.pool_path)
        catalog = BackupCatalog.load(self.catalog_path)
        self.driver.catalog = catalog
        self.driver.pool = MediaPool.load(catalog, self.pool_path)

    def digests(self):
        self.pool.save(self.pool_path)
        paths = {}
        for volume in self.driver.volumes:
            paths[volume.fsid] = os.path.join(self.root, volume.fsid + ".vol")
            save_volume(volume.fs.volume, paths[volume.fsid])
        return campaign_state_digests(self.catalog_path, self.pool_path,
                                      paths)


class CampaignMachine(RuleBasedStateMachine):
    """Recovery is an idempotent redo, correct from any interrupted state:
    faults, failed days, restarts and catalog crashes interleave with
    days, prunes and restores, and the campaign stays consistent on disk
    and equal to the fault-free twin."""

    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="campaign-props-")
        self.oracles = {}  # (fsid, day) -> clone frozen at its commit
        # An interrupted compaction leaves folded upserts in the chaos
        # journal: from then on the catalogs are equal, their files not.
        self.catalog_files_apart = False
        self.dry_runs = 0
        self.checked = {}  # fsid -> (fs, cp_count) fsck last found clean

    @initialize(seed=st.integers(0, 2 ** 16),
                nbytes=st.integers(256 * KB, MB), tapes=st.integers(12, 24))
    def build(self, seed, nbytes, tapes):
        self.chaos = Campaign(os.path.join(self.root, "chaos"), seed,
                              nbytes, tapes, plan=NO_FAULTS)
        self.twin = Campaign(os.path.join(self.root, "twin"), seed,
                             nbytes, tapes)
        self.sides = (self.chaos, self.twin)

    def _day(self, plan=NO_FAULTS):
        self.chaos.driver.plan = plan
        outcome = self.chaos.run_day()
        self.chaos.driver.plan = NO_FAULTS
        assert self.twin.run_day() == outcome
        if outcome is None:
            day = self.chaos.driver.day - 1
            for volume in self.chaos.driver.volumes:
                self.oracles[volume.fsid, day] = volume.fs.clone_volume()
        return outcome

    # -- days --------------------------------------------------------------

    @rule()
    def run_day(self):
        self._day()

    @rule(data=st.data(), kind=st.sampled_from(sorted(FAULT_PARAMS)),
          index=st.integers(0, len(VOLUMES) - 1))
    def faulted_day(self, data, kind, index):
        params = data.draw(FAULT_PARAMS[kind], label="params")
        day = self.chaos.driver.day
        spec = FaultSpec("F.d%d.v%d" % (day, index), day, index, kind,
                         params)
        seen = len(self.chaos.driver.events)
        if self._day(OneFault(spec)) is None:
            [event] = self.chaos.driver.events[seen:]
            assert (event["fault_id"], event["kind"], event["params"]) \
                == (spec.fault_id, kind, spec.params)
            assert event["outcome"] in ("hit", "miss")
        chaos, twin = self.chaos.digests(), self.twin.digests()
        if self.catalog_files_apart:
            for digests in (chaos, twin):
                del digests["catalog"], digests["journal"]
        assert compare_digests(twin, chaos) == []

    @rule(blanks=st.integers(6, 12))
    def pool_dry(self, blanks):
        while self._day() is None:
            pass
        for side in self.sides:
            side.pool.add_blank(blanks, capacity=TAPE)
            side.catalog.commit_dirty()

    @rule(index=st.integers(0, len(VOLUMES) - 1))
    def volume_dry(self, index):
        """Fill one volume, run a day on it, delete what fits."""
        self.dry_runs += 1
        volumes = [side.driver.volumes[index] for side in self.sides]
        fillers = [fill(volume.fs, "/dry%d." % self.dry_runs)
                   for volume in volumes]
        self._day()
        for volume, paths in zip(volumes, fillers):
            for path in paths:
                try:
                    volume.fs.unlink(path)
                except NoSpaceError:
                    pass  # a full volume may refuse even a delete
            volume.fs.consistency_point()

    # -- the catalog -------------------------------------------------------

    @rule(policy=st.sampled_from(["redundancy 1", "redundancy 2",
                                  "window 0", "window 3"]))
    def prune(self, policy):
        for side in self.sides:
            for fsid, _strategy in VOLUMES:
                side.catalog.set_policy(fsid, "/", policy, save=False)
            manager.prune(side.catalog, side.pool)

    @rule()
    def restart(self):
        for side in self.sides:
            side.restart()

    @precondition(lambda self: os.path.exists(
        journal_path(self.chaos.catalog_path)))
    @rule(cut=st.integers(1, len(TORN_LINE)))
    def torn_journal_tail(self, cut):
        """A crash tore the last append; the load that follows must drop
        it from the file as well as from memory."""
        before = catalog_state(self.chaos.catalog)
        with open(journal_path(self.chaos.catalog_path), "ab") as handle:
            handle.write(TORN_LINE[:cut])
        self.restart()
        assert catalog_state(self.chaos.catalog) == before

    @rule()
    def crash_mid_compaction(self):
        """The compacted image is in place, the journal not yet emptied:
        its upserts replay over the image they are folded into."""
        path = journal_path(self.chaos.catalog_path)
        folded = b""
        if os.path.exists(path):
            with open(path, "rb") as handle:
                folded = handle.read()
        for side in self.sides:
            side.catalog.save()
        if folded:
            with open(path, "r+b") as handle:
                handle.write(folded)
            self.catalog_files_apart = True
        self.restart()

    @rule()
    def stale_lock(self):
        with open(self.chaos.catalog_path + ".lock", "w") as handle:
            handle.write("%d\n" % DEAD_PID)

    # -- restores ----------------------------------------------------------

    @precondition(lambda self: self.oracles)
    @rule(data=st.data(), kill=st.none() | st.integers(1, 40))
    def restore_pit(self, data, kill):
        """Restore a committed day — after a restore killed mid-chain, if
        ``kill`` — and match the oracle frozen when the day committed;
        a pruned day is refused."""
        fsid, day = data.draw(st.sampled_from(sorted(self.oracles)),
                              label="volume, day")
        catalog, pool = self.chaos.catalog, self.chaos.pool
        [target] = [s for s in catalog.sets_for(fsid) if s.day == day]
        if not all(s.ok for s in catalog.chain_members(target.set_id)):
            with pytest.raises(CatalogError, match="pruned"):
                restore_point_in_time(catalog, pool, fsid, day=day)
            return
        if kill is not None:
            first = catalog.chain_for(fsid, target_day=day).sets[0]
            drive = pool.drive_for_restore(first)
            if target.strategy == "logical":
                engine = LogicalRestore(make_fs(name="aborted"), drive).run()
            else:
                volume = RaidVolume(read_image_header(
                    pool.drive_for_restore(first)).geometry)
                engine = ImageRestore(volume, drive).run()
            drive_engine_with_kill(engine, kill)
        fs, plan = restore_point_in_time(catalog, pool, fsid, day=day)
        assert plan.target.set_id == target.set_id
        assert verify_trees(self.oracles[fsid, day], fs) == []
        report = fsck(fs, check_parity=True)
        assert report.clean, report.errors

    # -- invariants --------------------------------------------------------

    @invariant()
    def catalog_on_disk_is_the_one_in_memory(self):
        state = catalog_state(self.chaos.catalog)
        assert catalog_state(self.twin.catalog) == state
        for side in self.sides:
            assert catalog_state(BackupCatalog.load(side.catalog_path)) \
                == catalog_state(side.catalog)

    @invariant()
    def volumes_are_consistent(self):
        """fsck reads a clone: warming the live buffer cache would time
        the chaos campaign's next dump apart from the twin's."""
        for volume in self.chaos.driver.volumes:
            fs = volume.fs
            assert fs.at_consistency_point()
            if self.checked.get(volume.fsid) != (fs, fs.fsinfo.cp_count):
                report = fsck(fs.clone_volume(), check_parity=True)
                assert report.clean, report.errors
                self.checked[volume.fsid] = (fs, fs.fsinfo.cp_count)

    @invariant()
    def every_cartridge_has_at_most_one_set(self):
        for side in self.sides:
            catalog, pool = side.catalog, side.pool
            owners = {}
            for backup_set in catalog.sets.values():
                if backup_set.ok:
                    assert backup_set.cartridges
                    for label in backup_set.cartridges:
                        assert owners.setdefault(label, backup_set.set_id) \
                            == backup_set.set_id
            for label, record in catalog.media.items():
                cartridge = pool.cartridge(label)
                assert pool.reserved_by(label) is None
                if record.status == "scratch":
                    assert cartridge.used == 0 and label not in owners
                else:
                    assert owners.get(label) == record.set_id
                    assert cartridge.used == record.used

    @invariant()
    def chaos_events_are_sequenced_and_persisted(self):
        events = self.chaos.driver.events
        assert [event["seq"] for event in events] \
            == list(range(1, len(events) + 1))
        lines = []
        if os.path.exists(self.chaos.events_path):
            with open(self.chaos.events_path) as handle:
                lines = [json.loads(line) for line in handle]
        assert lines == json.loads(json.dumps(events))

    def teardown(self):
        # A failing example's traceback keeps this machine alive while
        # hypothesis shrinks: let go of the volumes and their clones.
        self.oracles.clear()
        self.__dict__.pop("sides", None)
        self.__dict__.pop("chaos", None)
        self.__dict__.pop("twin", None)
        shutil.rmtree(self.root, ignore_errors=True)


TestCampaignMachine = CampaignMachine.TestCase
TestCampaignMachine.settings = settings(
    max_examples=6, stateful_step_count=16, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
