"""Every fault class recovers one volume-day to oracle-identical state.

Each test runs the same volume-day twice on independently built but
identical filesystems and tape drives — once fault-free (the oracle),
once with a pinned :class:`FaultSpec` — via the very
:func:`run_volume_day` every campaign runs, then asserts the
recovered side is byte-identical: every cartridge's bytes, the volume's
on-disk blocks, the filesystem digest, and the timing payload.
"""

from __future__ import annotations

import pytest

from repro.backup import DumpDates
from repro.chaos import FaultSpec, VolumeDayFault
from repro.chaos.inject import inject_disk_faults
from repro.chaos.plan import (
    KIND_CORRUPT,
    KIND_CRASH,
    KIND_DISK_FAIL,
    KIND_EJECT,
    KIND_KILL,
    KIND_TORN_CP,
)
from repro.chaos.verify import file_digest, filesystem_digest, volume_digest
from repro.manager import CampaignVolume, run_volume_day
from repro.storage.persist import save_volume
from repro.units import MB
from repro.workload import WorkloadGenerator
from repro.workload.mutate import MutationConfig

from tests.conftest import make_drive, make_fs

TAPE_CAPACITY = 96 * 1024  # small cartridges: every dump spans several


#: ``mutate`` choices: a normal day of churn, no aging at all, or an
#: aging pass that touches nothing (it still takes the day's CP).
MUTATIONS = {
    True: MutationConfig(seed=99),
    False: None,
    "idle": MutationConfig(0.0, 0.0, 0.0, 0.0, seed=99),
}


def run_day(fault=None, nvram=True, mutate=True):
    """One volume's day-1 level-0 dump, optionally under ``fault``."""
    fs = make_fs(name="vol", nvram=nvram)
    generator = WorkloadGenerator(seed=5)
    tree = generator.populate(fs, MB)
    fs.consistency_point()
    drive = make_drive(name="t", tapes=24, capacity=TAPE_CAPACITY)
    mutation = MUTATIONS[mutate]
    dump = {"level": 0, "subtree": "/", "dumpdates": DumpDates(),
            "snapshot_name": None, "base_snapshot": None}
    volume = CampaignVolume(fs, tree, "logical", schedule=None)
    payload, events = run_volume_day(
        volume, drive, "vol.d01", dump, mutation,
        fault=None if fault is None else VolumeDayFault(fault))
    return volume.fs, drive, payload, events


def fault_of(kind, **params):
    return FaultSpec("F.test.%s" % kind, 1, 0, kind, params)


def cartridge_bytes(drive):
    return [cart.read_at(0, cart.used) for cart in drive.stacker.cartridges]


def assert_identical(oracle, chaos):
    """Byte-identity across every durable artifact of the day."""
    ofs, odrive, opayload, _ = oracle
    cfs, cdrive, cpayload, _ = chaos
    assert cartridge_bytes(cdrive) == cartridge_bytes(odrive)
    assert cdrive.stacker.next_slot == odrive.stacker.next_slot
    assert volume_digest(cfs.volume) == volume_digest(ofs.volume)
    assert filesystem_digest(cfs) == filesystem_digest(ofs)
    assert cpayload == opayload


@pytest.fixture(scope="module")
def oracle():
    return run_day(fault=None)


class TestTapeFaults:
    def test_kill_resume_append(self, oracle):
        chaos = run_day(fault_of(KIND_KILL, after_tape_ops=10))
        _, _, _, events = chaos
        assert [e["outcome"] for e in events] == ["hit"]
        assert events[0]["recovery"]["mechanism"] == "resume_append"
        assert_identical(oracle, chaos)

    def test_kill_partial_last_cartridge(self, oracle):
        # Kill deep enough into the stream that the cartridge loaded at
        # abort time is partially written — the resume must preserve its
        # prefix and append the identical remainder.
        chaos = run_day(fault_of(KIND_KILL, after_tape_ops=20))
        _, _, _, events = chaos
        assert events[0]["outcome"] == "hit"
        details = events[0]["recovery"]["details"]
        assert details["trusted_slots"] >= 2
        # The abort-time cartridge was only partially written: the
        # verified prefix is not a whole number of full cartridges.
        assert details["verified_bytes"] % TAPE_CAPACITY != 0
        assert_identical(oracle, chaos)

    def test_corrupt_rewind_rewrite(self, oracle):
        chaos = run_day(fault_of(KIND_CORRUPT, after_tape_ops=20,
                                 cartridge_back=1, offset_frac=0.5,
                                 xor=0x5A))
        _, _, _, events = chaos
        assert [e["outcome"] for e in events] == ["hit"]
        details = events[0]["recovery"]["details"]
        assert events[0]["recovery"]["mechanism"] == "rewind_rewrite"
        assert details["xor"] == 0x5A
        # The flipped byte was actually detected before the rewrite.
        assert details["mismatch_detected"] == details["cartridge"]
        assert_identical(oracle, chaos)

    def test_eject_reload_rewrite(self, oracle):
        chaos = run_day(fault_of(KIND_EJECT, after_tape_ops=20))
        _, _, _, events = chaos
        assert [e["outcome"] for e in events] == ["hit"]
        assert events[0]["recovery"]["mechanism"] == "reload_rewrite"
        assert events[0]["recovery"]["details"]["bytes_lost"] > 0
        assert_identical(oracle, chaos)

    def test_kill_beyond_stream_is_a_miss(self, oracle):
        chaos = run_day(fault_of(KIND_KILL, after_tape_ops=10 ** 6))
        _, _, _, events = chaos
        assert [e["outcome"] for e in events] == ["miss"]
        assert_identical(oracle, chaos)


class TestDiskFaults:
    def test_raid_reconstruct_and_repair(self, oracle):
        chaos = run_day(fault_of(
            KIND_DISK_FAIL, nblocks=3,
            draws=[(0.1, 0.2, 0.3), (0.9, 0.5, 0.7), (0.4, 0.9, 0.05)]))
        _, _, _, events = chaos
        assert [e["outcome"] for e in events] == ["hit"]
        recovery = events[0]["recovery"]
        assert recovery["mechanism"] == "raid_reconstruct"
        assert recovery["details"]["repaired"] == 3
        # Byte-identity of tape AND volume proves both halves: the dump
        # read reconstructed data, and the repair rewrote the bad blocks
        # with exactly the reconstructed contents.
        assert_identical(oracle, chaos)

    def test_a_stripe_loses_at_most_one_block(self):
        # Two disks drawn on one stripe of one group: parity rebuilds
        # one, so the second draw is dropped (the third repeats the first).
        volume = make_fs(name="vol").volume
        injected = inject_disk_faults(
            volume, [(0.0, 0.0, 0.0), (0.0, 0.9, 0.0), (0.0, 0.0, 0.0)])
        assert [(i["group"], i["disk"], i["stripe"]) for i in injected] \
            == [(0, 0, 0), (0, 0, 0)]
        assert volume.repair_bad_blocks() == 1


class TestSavedVolumeFiles:
    """Byte identity where it is consumed: campaigns compare the *files*
    ``save_volume`` writes (``campaign_state_digests``), so a recovered
    volume has to save to the oracle's bytes whatever its disks went
    through on the way — and a real difference has to show."""

    @pytest.mark.parametrize("kind,params", [
        (KIND_DISK_FAIL, {"nblocks": 3, "draws": [
            (0.1, 0.2, 0.3), (0.9, 0.5, 0.7), (0.4, 0.9, 0.05)]}),
        (KIND_CORRUPT, {"after_tape_ops": 20, "cartridge_back": 1,
                        "offset_frac": 0.5, "xor": 0x5A}),
    ])
    def test_recovered_volume_saves_to_the_oracles_file(
            self, oracle, tmp_path, kind, params):
        fs, _, _, events = run_day(fault_of(kind, **params))
        assert [e["outcome"] for e in events] == ["hit"]
        oracle_path = str(tmp_path / "oracle.vol")
        chaos_path = str(tmp_path / "chaos.vol")
        save_volume(oracle[0].volume, oracle_path)
        save_volume(fs.volume, chaos_path)
        assert file_digest(chaos_path) == file_digest(oracle_path)
        # Not vacuous: one zeroed block is a different file.
        volume = fs.volume
        zeros = bytes(volume.block_size)
        block = next(b for b in range(volume.nblocks)
                     if volume.read_block(b) != zeros)
        volume.write_block(block, zeros)
        save_volume(volume, chaos_path)
        assert file_digest(chaos_path) != file_digest(oracle_path)


class TestCrashFaults:
    def test_crash_nvram_replay(self, oracle):
        chaos = run_day(fault_of(KIND_CRASH))
        fs, _, _, events = chaos
        assert [e["outcome"] for e in events] == ["hit"]
        recovery = events[0]["recovery"]
        assert recovery["mechanism"] == "nvram_replay"
        assert recovery["details"]["replayed_ops"] > 0
        assert fs.nvram is not None and len(fs.nvram) == 0
        assert_identical(oracle, chaos)

    def test_torn_cp_recovers(self, oracle):
        chaos = run_day(fault_of(KIND_TORN_CP, fuse_blocks=8))
        _, _, _, events = chaos
        assert [e["outcome"] for e in events] == ["hit"]
        assert "torn_write" in events[0]["recovery"]["details"]
        assert_identical(oracle, chaos)

    def test_crash_without_nvram_is_a_miss(self):
        oracle_off = run_day(fault=None, nvram=False)
        chaos = run_day(fault_of(KIND_CRASH), nvram=False)
        _, _, _, events = chaos
        assert [e["outcome"] for e in events] == ["miss"]
        assert events[0]["reason"] == "no_nvram"
        assert_identical(oracle_off, chaos)

    @pytest.mark.parametrize("mutate", [False, "idle"])
    @pytest.mark.parametrize("kind,params", [
        (KIND_CRASH, {}), (KIND_TORN_CP, {"fuse_blocks": 8})])
    def test_crash_on_an_idle_day_is_a_miss(self, kind, params, mutate):
        # Nothing reached NVRAM, so there is nothing to replay: recovery
        # would skip the consistency point the oracle's aging takes.
        oracle_idle = run_day(fault=None, mutate=mutate)
        chaos = run_day(fault_of(kind, **params), mutate=mutate)
        _, _, _, events = chaos
        assert [e["outcome"] for e in events] == ["miss"]
        assert events[0]["reason"] == "empty_nvram_log"
        assert_identical(oracle_idle, chaos)
