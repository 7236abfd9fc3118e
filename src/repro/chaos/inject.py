"""Firing faults: abort dumps mid-stream, damage media, fail disks.

All three tape faults share one mechanism: the dump engine is driven op
by op and closed at the Nth :class:`~repro.perf.ops.TapeWriteOp`, which
models the dump process dying with an unknown amount of data already on
tape.  What distinguishes the kinds is what happens to that data —
nothing (``kill``), a flipped byte in a written cartridge (``corrupt``),
or a cartridge wiped outright (``eject``).  Aborting *mid-dump* is what
keeps recovery verifiable: the dump's working snapshot is still alive
and its dumpdates entry unrecorded, so a rerun can adopt the snapshot
and replay the byte-identical stream.

Disk faults are simpler — :meth:`RaidVolume.fail_block` before the dump;
RAID reconstruction makes every read land identical bytes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import ChaosFault
from repro.perf.ops import PhaseEnd, TapeReadOp, TapeWriteOp

#: Both engines name their snapshot-creation stage identically.
SNAP_CREATE_STAGE = "Creating snapshot"


class DumpAbort:
    """What was left behind when a dump attempt died mid-stream."""

    def __init__(self, ops: List, result, killed: bool,
                 tape_ops_seen: int, cache_checkpoint=None):
        #: Every op the engine yielded before (and including) the abort.
        self.ops = ops
        #: The engine's return value — ``None`` when killed mid-stream.
        self.result = result
        #: Whether the kill threshold was actually reached.
        self.killed = killed
        #: How many TapeWriteOps the engine yielded in total.
        self.tape_ops_seen = tape_ops_seen
        #: Buffer-cache clone taken at the end of the snapshot-creation
        #: stage (when requested) — the state a replay must read from.
        self.cache_checkpoint = cache_checkpoint


def drive_engine_with_kill(engine, kill_after_tape_ops: Optional[int],
                           checkpoint_volume=None) -> DumpAbort:
    """Drain a dump engine, closing it at the Nth tape-write op.

    Returns a :class:`DumpAbort`.  When ``kill_after_tape_ops`` is None
    or exceeds the stream's tape-op count, the engine runs to completion
    and ``killed`` is False — the planned fault *missed* (small dumps
    may simply not have that many tape ops), which callers record as a
    miss rather than an error.

    ``checkpoint_volume`` asks for a clone of that volume's buffer cache
    the moment the snapshot-creation stage ends — i.e. after the dump's
    consistency point but before any data reads.  That is the cache
    state a post-fault replay must start from to reproduce the original
    attempt's hit pattern (and therefore its exact op stream).

    Closing the generator raises ``GeneratorExit`` inside it at the
    yield point, so engine ``finally`` blocks (e.g. restoring the
    volume's cached-read mode) run exactly as a dying process's kernel
    cleanup would.
    """
    ops: List = []
    tape_ops = 0
    result = None
    killed = False
    cache_checkpoint = None
    try:
        while True:
            op = next(engine)
            ops.append(op)
            if (cache_checkpoint is None and checkpoint_volume is not None
                    and isinstance(op, PhaseEnd)
                    and op.stage == SNAP_CREATE_STAGE
                    and checkpoint_volume.cache is not None):
                cache_checkpoint = checkpoint_volume.cache.clone()
            if isinstance(op, (TapeWriteOp, TapeReadOp)):
                tape_ops += 1
                if (kill_after_tape_ops is not None
                        and tape_ops >= kill_after_tape_ops):
                    engine.close()
                    killed = True
                    break
    except StopIteration as done:
        result = done.value
    return DumpAbort(ops, result, killed, tape_ops, cache_checkpoint)


def corrupt_written_cartridge(drive, cartridge_back: int,
                              offset_frac: float, xor: int) -> Dict:
    """Flip one byte in a cartridge the aborted dump already wrote.

    ``cartridge_back`` counts back from the cartridge loaded at abort
    time (0 = the current one); the byte offset is ``offset_frac`` of
    that cartridge's used bytes.  Returns a description of the damage
    for the fault event.  The stacker must have at least one written
    cartridge.
    """
    stacker = drive.stacker
    last = stacker.next_slot - 1
    if last < 0:
        raise ChaosFault("no written cartridge to corrupt")
    slot = max(0, last - cartridge_back)
    cartridge = stacker.cartridges[slot]
    if cartridge.used == 0:
        raise ChaosFault("cartridge %r has no data to corrupt"
                         % (cartridge.label,))
    offset = min(cartridge.used - 1, int(offset_frac * cartridge.used))
    cartridge.overwrite(
        offset, bytes([cartridge.read_at(offset, 1)[0] ^ xor]))
    return {"cartridge": cartridge.label, "slot": slot,
            "offset": offset, "xor": xor}


def eject_current_cartridge(drive) -> Dict:
    """Lose the cartridge the aborted dump was writing.

    Models an operator yanking (or a stacker mangling) the loaded
    cartridge: its contents are erased, so only the fully written
    cartridges before it survive.  Returns a description for the fault
    event.
    """
    stacker = drive.stacker
    last = stacker.next_slot - 1
    if last < 0:
        raise ChaosFault("no loaded cartridge to eject")
    cartridge = stacker.cartridges[last]
    lost = cartridge.used
    cartridge.erase()
    return {"cartridge": cartridge.label, "slot": last,
            "bytes_lost": lost}


def inject_disk_faults(volume, draws: List[Tuple[float, float, float]]) -> List[Dict]:
    """Fail blocks drawn as (group, disk, stripe) fractions of geometry.

    Parity disks are excluded — the point is data blocks reading back
    correct through reconstruction.  A stripe loses at most one block: a
    draw that lands on a stripe another disk of its group already lost
    is dropped, since one parity disk cannot rebuild two.  Returns one
    description per failed block (duplicates collapse naturally: failing
    a bad block again is a no-op).
    """
    injected = []
    failed = {}  # (group, stripe) -> the disk that lost it
    for group_frac, disk_frac, stripe_frac in draws:
        group_index = min(len(volume.groups) - 1,
                          int(group_frac * len(volume.groups)))
        group = volume.groups[group_index]
        ndata = len(group.data_disks)
        disk_index = min(ndata - 1, int(disk_frac * ndata))
        stripes = group.geometry.blocks_per_disk
        stripe = min(stripes - 1, int(stripe_frac * stripes))
        if failed.setdefault((group_index, stripe), disk_index) != disk_index:
            continue
        group.data_disks[disk_index].fail_block(stripe)
        injected.append({"group": group_index, "disk": disk_index,
                         "stripe": stripe})
    return injected


__all__ = [
    "DumpAbort",
    "corrupt_written_cartridge",
    "drive_engine_with_kill",
    "eject_current_cartridge",
    "inject_disk_faults",
]
