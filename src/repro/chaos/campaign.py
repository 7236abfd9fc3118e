"""Chaos campaigns: the campaign driver with a fault plan attached.

A chaos campaign is a plain campaign whose volume-days carry a hook.
:class:`VolumeDayFault` wraps one planned :class:`FaultSpec` as the two
steps :func:`~repro.manager.campaign.run_volume_day` hands over on a
faulted day — aging (maybe a crash and NVRAM recovery) and draining the
dump (maybe a tape fault and its replay, or disk failures and RAID
repair).  A day the plan leaves alone gets no hook and is exactly the
plain day, so the fault-free **oracle** is simply the same campaign with
the plan disabled, and the two campaigns' persisted state can be
compared byte for byte.

:class:`ChaosCampaignDriver` adds only "which fault for (day, volume)"
before the day and "sequence, trace, meter, persist the events" after
it.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.errors import PowerLossError
from repro.catalog.records import STRATEGY_LOGICAL
from repro.chaos.inject import (
    corrupt_written_cartridge,
    drive_engine_with_kill,
    eject_current_cartridge,
    inject_disk_faults,
)
from repro.chaos.plan import (
    KIND_CORRUPT,
    KIND_CRASH,
    KIND_DISK_FAIL,
    KIND_EJECT,
    KIND_TORN_CP,
    TAPE_FAULTS,
    ChaosPlan,
    FaultSpec,
)
from repro.chaos.recover import (
    RecoveryReport,
    recover_crash,
    replay_dump,
)
from repro.manager.campaign import CampaignDriver
from repro.obs.metrics import REGISTRY
from repro.obs.trace import get_tracer
from repro.workload.mutate import apply_mutations


class VolumeDayFault:
    """At most one fault injected into, and recovered within, a volume-day.

    A fault that cannot strike (a kill threshold beyond the dump's
    tape-op count, a torn-CP fuse the CP never burned down, a crash with
    no NVRAM or nothing logged in it) is recorded as a **miss** and the
    day proceeds normally — misses are part of the deterministic event
    stream, not errors.

    Recovery is time-neutral: a replayed dump's op stream stands in for
    the faulted attempt's in the day's ``TimedRun``, so payload timings
    match the oracle's and the cost of recovery shows up only in the
    chaos events/metrics.
    """

    def __init__(self, spec: FaultSpec):
        self.spec = spec
        self.events: List[Dict] = []

    def _record(self, fs, outcome: str,
                recovery: Optional[RecoveryReport] = None, **extra) -> None:
        spec = self.spec
        event = {
            "day": spec.day,
            "volume_index": spec.volume_index,
            "fsid": fs.volume.name,
            "fault_id": spec.fault_id,
            "kind": spec.kind,
            "params": dict(spec.params),
            "outcome": outcome,
        }
        if recovery is not None:
            event["recovery"] = recovery.to_dict()
        event.update(extra)
        self.events.append(event)

    def age(self, fs, tree, mutation):
        """The day's aging, under power loss for the crash kinds.

        Returns the live file system — the recovered mount after a hit.
        """
        spec = self.spec
        crash = spec.kind in (KIND_CRASH, KIND_TORN_CP)
        if crash and fs.nvram is None:
            self._record(fs, "miss", reason="no_nvram")
            crash = False
        if mutation is not None:
            # The crash window: the day's ops reach NVRAM but no CP.
            apply_mutations(fs, tree, mutation, checkpoint=not crash)
        if not crash:
            return fs
        volume, nvram = fs.volume, fs.nvram
        if len(nvram) == 0:
            # An idle day logged nothing to replay; recovery would skip
            # the consistency point the oracle's aging always takes.
            self._record(fs, "miss", reason="empty_nvram_log")
            if mutation is not None:
                fs.consistency_point()
            return fs
        torn = None
        if spec.kind == KIND_TORN_CP:
            volume.arm_write_fuse(spec.params["fuse_blocks"])
            try:
                fs.consistency_point()
            except PowerLossError as exc:
                torn = str(exc)
            finally:
                volume.disarm_write_fuse()
            if torn is None:
                # The CP finished before the fuse burned down: missed.
                self._record(fs, "miss", reason="cp_outlived_fuse")
                return fs
        fs.crash()
        fs, report = recover_crash(volume, nvram, kind=spec.kind)
        if torn is not None:
            report.details["torn_write"] = torn
        self._record(fs, "hit", recovery=report)
        return fs

    def drain(self, engine, fs, drive, strategy: str, dump: Dict):
        """Drain the day's dump ``engine``, possibly dying mid-stream.

        Returns the ``(ops, result)`` the day is timed with: the
        engine's own, or the replay's after a tape fault.
        """
        spec, volume = self.spec, fs.volume
        tape = spec.kind in TAPE_FAULTS
        injected = None
        if spec.kind == KIND_DISK_FAIL:
            # Media errors strike before the dump reads through them.
            injected = inject_disk_faults(volume, spec.params["draws"])
        snapshots_before = {record.name for record in fs.fsinfo.snapshots}
        attempt = drive_engine_with_kill(
            engine, spec.params["after_tape_ops"] if tape else None,
            checkpoint_volume=volume)
        ops, data = attempt.ops, attempt.result
        if tape and not attempt.killed:
            self._record(fs, "miss", reason="dump_only_has_%d_tape_ops"
                         % attempt.tape_ops_seen)
        elif tape:
            damage = None
            if spec.kind == KIND_CORRUPT:
                damage = corrupt_written_cartridge(
                    drive, spec.params["cartridge_back"],
                    spec.params["offset_frac"], spec.params["xor"])
            elif spec.kind == KIND_EJECT:
                damage = eject_current_cartridge(drive)
            replayed, report = replay_dump(
                fs, drive, spec.kind, attempt.cache_checkpoint,
                snapshots_before, strategy, damage=damage, **dump)
            ops, data = replayed.ops, replayed.result
            self._record(fs, "hit", recovery=report)
        if spec.kind == KIND_DISK_FAIL:
            # RAID repair after the dump streamed through the bad blocks.
            repaired = volume.repair_bad_blocks()
            self._record(fs, "hit", recovery=RecoveryReport(
                KIND_DISK_FAIL, "raid_reconstruct",
                {"injected": injected, "repaired": repaired}))
        return ops, data


class ChaosCampaignDriver(CampaignDriver):
    """A campaign driver that injects (and survives) planned faults.

    Volume-days commit in declaration order, so two campaigns of the same
    seed are byte-identical — including the fault event stream, which
    the driver assigns global sequence numbers and appends to
    ``events_path`` as JSON lines.
    """

    def __init__(self, catalog, pool, plan: ChaosPlan,
                 events_path: Optional[str] = None, **kwargs):
        super().__init__(catalog, pool, **kwargs)
        self.plan = plan
        self.events_path = events_path
        self.events: List[Dict] = []
        self._event_seq = 0

    def run_day(self) -> Dict[str, object]:
        faults = []
        for index in range(len(self.volumes)):
            spec = self.plan.fault_for(self.day, index)
            faults.append(None if spec is None else VolumeDayFault(spec))
        results, events = self._run_day(faults)
        self._observe_chaos_events(events)
        return results

    def _observe_chaos_events(self, events: List[Dict]) -> None:
        """Sequence, trace, meter, and persist one volume-day's events."""
        tracer = get_tracer()
        lines = []
        for event in events:
            self._event_seq += 1
            event["seq"] = self._event_seq
            self.events.append(event)
            hit = event["outcome"] == "hit"
            if tracer.enabled:
                tracer.instant(
                    "chaos.%s.%s" % (event["kind"], event["outcome"]),
                    cat="chaos", tid=event["fsid"],
                    args={"fault_id": event["fault_id"],
                          "day": event["day"],
                          "recovery": event.get("recovery", {}).get(
                              "mechanism", "")})
            if REGISTRY.enabled:
                REGISTRY.counter("chaos.faults_planned").inc()
                if hit:
                    REGISTRY.counter("chaos.faults_injected").inc()
                    REGISTRY.counter(
                        "chaos.faults.%s" % event["kind"]).inc()
                    REGISTRY.counter("chaos.recoveries").inc()
                else:
                    REGISTRY.counter("chaos.faults_missed").inc()
            lines.append(json.dumps(event, sort_keys=True))
        if lines and self.events_path:
            with open(self.events_path, "a") as handle:
                for line in lines:
                    handle.write(line + "\n")


def restore_drill(
    catalog,
    pool,
    fsid: str,
    subtree: str = "/",
    day: Optional[int] = None,
    strategy: Optional[str] = None,
    kill_after_tape_ops: int = 3,
    geometry=None,
    costs=None,
    name: Optional[str] = None,
):
    """Crash a restore mid-chain, then restore again from scratch.

    Restores are idempotent replays of read-only tapes, so the recovery
    mechanism for a filer that dies mid-restore is simply a fresh
    restore: the partially written target volume is discarded, the
    drives rewind, and the chain replays from the start.  Returns
    ``(fs, plan, report)`` — ``fs`` holds the completed retry; callers
    verify it against an uninterrupted oracle restore.
    """
    from repro.backup.logical.restore import LogicalRestore
    from repro.backup.physical.image import ImageHeader
    from repro.backup.physical.restore import ImageRestore
    from repro.manager.campaign import restore_point_in_time
    from repro.raid.layout import make_geometry
    from repro.raid.volume import RaidVolume
    from repro.wafl.filesystem import WaflFilesystem

    plan = catalog.chain_for(fsid, subtree=subtree, target_day=day,
                             strategy=strategy)
    scratch_name = (name or "restore.%s" % fsid) + ".aborted"
    if plan.strategy == STRATEGY_LOGICAL:
        scratch_volume = RaidVolume(geometry or make_geometry(2, 4, 2500),
                                    name=scratch_name)
        scratch_fs = WaflFilesystem.format(scratch_volume)
        engine = LogicalRestore(
            scratch_fs, pool.drive_for_restore(plan.sets[0]), costs=costs,
        ).run()
    else:
        probe = pool.drive_for_restore(plan.sets[0])
        probe.rewind()
        header = ImageHeader.unpack_from_stream(probe.read)
        scratch_volume = RaidVolume(header.geometry, name=scratch_name)
        engine = ImageRestore(
            scratch_volume, pool.drive_for_restore(plan.sets[0]),
            costs=costs,
        ).run()
    aborted = drive_engine_with_kill(engine, kill_after_tape_ops)
    fs, plan = restore_point_in_time(
        catalog, pool, fsid, subtree=subtree, day=day, strategy=strategy,
        geometry=geometry, costs=costs, name=name)
    report = RecoveryReport("restore_crash", "restart_restore", {
        "aborted_after_tape_ops": aborted.tape_ops_seen,
        "aborted_completed": aborted.result is not None,
        "chain_sets": len(plan.sets),
    })
    return fs, plan, report


__all__ = [
    "ChaosCampaignDriver",
    "VolumeDayFault",
    "restore_drill",
]
