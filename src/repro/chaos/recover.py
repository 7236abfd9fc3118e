"""Recovery mechanisms, each verified against a fault-free oracle.

Two families:

* :func:`recover_crash` — the paper's boot path after power loss: mount
  the last consistency point (redundant fsinfo, no fsck) and replay the
  NVRAM tail.  A consistency point is taken only when the replay applied
  something; a crash whose CP had already reached disk replays nothing,
  and a redundant CP here would push ``cp_count`` past the oracle's.

* :func:`replay_dump` — tape-fault recovery.  A dump that died
  mid-stream left its working snapshot alive and its dumpdates entry
  unrecorded, so the *same* dump can be rerun against the same snapshot.
  The rerun goes to a blank replica drive; the stream it produces is
  verified byte-for-byte against whatever survived on the real media
  (the trusted prefix), then installed onto the real cartridges.  The
  replica's op stream — identical to the one the oracle's dump emits —
  is what the day's ``TimedRun`` executes, so recovery is time-neutral:
  the campaign's recorded timings match the oracle and the *cost* of
  recovery surfaces only in the chaos metrics and trace.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import ChaosFault
from repro.backup.jobs import build_dump_engine
from repro.chaos.inject import DumpAbort, drive_engine_with_kill
from repro.chaos.plan import KIND_CORRUPT, KIND_EJECT, KIND_KILL
from repro.storage.tape import TapeCartridge, TapeDrive, TapeStacker


class RecoveryReport:
    """What one recovery did, for the chaos event stream."""

    def __init__(self, kind: str, mechanism: str,
                 details: Optional[Dict] = None):
        #: The fault kind this recovery answered.
        self.kind = kind
        #: Which mechanism ran ("nvram_replay", "resume_append", ...).
        self.mechanism = mechanism
        self.details = dict(details or {})

    def to_dict(self) -> Dict:
        return {"kind": self.kind, "mechanism": self.mechanism,
                "details": dict(self.details)}

    def __repr__(self) -> str:
        return "<RecoveryReport %s via %s %r>" % (
            self.kind, self.mechanism, self.details)


def recover_crash(volume, nvram, kind: str = "crash"):
    """Boot a crashed filer: mount the last CP, replay the NVRAM tail.

    Returns ``(fs, report)``.  The replay skips ops whose CP epoch shows
    they were already persisted (the torn-CP case where the new fsinfo
    reached disk before power died); when *every* pending op is skipped
    the log is simply discarded — taking a CP for a replay that applied
    nothing would advance ``cp_count`` past a never-crashed filer's.
    """
    from repro.wafl.filesystem import WaflFilesystem

    pending = len(nvram) if nvram is not None else 0
    fs = WaflFilesystem.mount(volume, nvram=nvram)
    skipped = fs.counters["nvram_ops_skipped"]
    replayed = pending - skipped
    if replayed > 0:
        fs.consistency_point()
    elif nvram is not None:
        nvram.clear()
    report = RecoveryReport(kind, "nvram_replay", {
        "pending_ops": pending,
        "replayed_ops": replayed,
        "skipped_ops": skipped,
        "fsinfo_repairs": fs.fsinfo_repairs,
        "cp_count": fs.fsinfo.cp_count,
    })
    return fs, report


MECHANISMS = {
    KIND_KILL: "resume_append",
    KIND_CORRUPT: "rewind_rewrite",
    KIND_EJECT: "reload_rewrite",
}


def build_replica_drive(drive) -> TapeDrive:
    """A blank drive mirroring the real one's magazine shape.

    Same cartridge count, capacities, and labels, all empty — the rerun
    dump writes here so the real media's surviving prefix stays intact
    for verification.
    """
    cartridges = [
        TapeCartridge(capacity=cartridge.capacity, label=cartridge.label)
        for cartridge in drive.stacker.cartridges
    ]
    stacker = TapeStacker(cartridges, name=drive.stacker.name)
    return TapeDrive(stacker, name=drive.name)


def _verify_prefix(drive, replica, fault_kind: str,
                   damage: Optional[Dict]) -> Dict:
    """Check the surviving real media against the replica stream.

    The trusted prefix depends on the fault: a killed dump's media is
    intact up to the abort point; a corrupted cartridge bounds trust at
    its own start (and must actually mismatch — the damage is supposed
    to be detectable); an ejected cartridge is gone, so trust ends at the
    previous one.
    """
    real_slots = drive.stacker.next_slot
    if fault_kind == KIND_CORRUPT:
        trusted_slots = damage["slot"]
        partial_last = False
    elif fault_kind == KIND_EJECT:
        trusted_slots = max(0, real_slots - 1)
        partial_last = False
    else:  # kill: everything written survived
        trusted_slots = real_slots
        partial_last = True
    verified = 0
    for slot in range(trusted_slots):
        real = drive.stacker.cartridges[slot]
        want = replica.stacker.cartridges[slot]
        whole = not (partial_last and slot == trusted_slots - 1)
        if not want.starts_with(real) or (whole and real.used != want.used):
            raise ChaosFault(
                "surviving %scartridge %r diverges from replay"
                % ("" if whole else "partial ", real.label))
        verified += real.used
    detected = None
    if fault_kind == KIND_CORRUPT:
        slot = damage["slot"]
        real = drive.stacker.cartridges[slot]
        if replica.stacker.cartridges[slot].starts_with(real):
            raise ChaosFault(
                "corrupted cartridge %r reads back clean" % (real.label,))
        detected = real.label
    return {"trusted_slots": trusted_slots, "verified_bytes": verified,
            "mismatch_detected": detected}


def _install_replica(drive, replica) -> None:
    """Adopt the verified replay onto the real cartridges and drive."""
    stacker = drive.stacker
    for slot in range(replica.stacker.next_slot):
        stacker.cartridges[slot].adopt(replica.stacker.cartridges[slot])
    stacker.next_slot = replica.stacker.next_slot
    drive.bytes_written = replica.bytes_written
    drive.media_changes = replica.media_changes
    drive.loaded = (stacker.cartridges[stacker.next_slot - 1]
                    if stacker.next_slot else None)


def replay_dump(
    fs,
    drive,
    fault_kind: str,
    cache_checkpoint,
    snapshots_before,
    strategy: str,
    level: int,
    subtree: str,
    dumpdates,
    snapshot_name: Optional[str],
    base_snapshot: Optional[str],
    damage: Optional[Dict] = None,
) -> Tuple[DumpAbort, RecoveryReport]:
    """Rerun a faulted dump against its surviving snapshot.

    ``cache_checkpoint`` is the buffer-cache clone taken right after the
    faulted attempt's snapshot-creation stage; restoring it puts the
    cache in exactly the state the oracle's dump read from, so the
    rerun's hit pattern — and therefore its op stream — matches the
    oracle's byte for byte.  ``snapshots_before`` is the set of snapshot
    names that existed before the faulted attempt; the one it created is
    the difference.

    Returns ``(replayed, report)`` where ``replayed.ops`` and
    ``replayed.result`` stand in for the faulted attempt's in the day's
    ``TimedRun``.
    """
    if cache_checkpoint is not None:
        fs.volume.cache = cache_checkpoint
    created = [record.name for record in fs.fsinfo.snapshots
               if record.name not in snapshots_before]
    if len(created) != 1:
        raise ChaosFault(
            "cannot identify the faulted dump's snapshot (candidates: %r)"
            % (created,))
    replica = build_replica_drive(drive)
    engine = build_dump_engine(
        fs, replica, strategy, level=level, subtree=subtree,
        dumpdates=dumpdates, snapshot_name=snapshot_name,
        base_snapshot=base_snapshot, reuse_snapshot=created[0],
    )
    replayed = drive_engine_with_kill(engine, None)
    if replayed.result is None:
        raise ChaosFault("dump replay did not complete")
    verification = _verify_prefix(drive, replica, fault_kind, damage)
    _install_replica(drive, replica)
    report = RecoveryReport(fault_kind, MECHANISMS[fault_kind], {
        "snapshot": created[0],
        "replayed_tape_ops": replayed.tape_ops_seen,
        "bytes_rewritten": replica.bytes_written,
        "cartridges": replica.stacker.next_slot,
        **verification,
        **(damage or {}),
    })
    return replayed, report


__all__ = [
    "MECHANISMS",
    "RecoveryReport",
    "build_replica_drive",
    "recover_crash",
    "replay_dump",
]
