"""The injection plan: which fault strikes which volume-day, decided by seed.

Determinism is the whole design: every decision — whether a fault fires,
which kind, and every parameter (which tape-write op to die on, which
cartridge to corrupt, which disk stripe to fail) — is a pure function of
``(chaos_seed, day, volume_index)``.  Nothing reads the wall clock, the
OS, or any per-process state, so the same seed produces the same plan
under any hash seed, on any machine, and in a rerun next year.  A plan
is never stored: ``(seed, rate, kinds)`` rebuilds it.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List, Optional

from repro.errors import ReproError

#: One fault class per recovery mechanism the paper claims.
KIND_KILL = "kill"            # dump dies mid-stream -> resume/replay append
KIND_CORRUPT = "corrupt"      # written cartridge byte flips -> rewind+rewrite
KIND_EJECT = "eject"          # cartridge ejected/lost mid-dump -> reload+rewrite
KIND_DISK_FAIL = "disk_fail"  # disk media error -> RAID reconstruct + repair
KIND_CRASH = "crash"          # filer power loss after aging -> NVRAM replay
KIND_TORN_CP = "torn_cp"      # power loss tears a consistency point mid-write

FAULT_KINDS = (KIND_KILL, KIND_CORRUPT, KIND_EJECT, KIND_DISK_FAIL,
               KIND_CRASH, KIND_TORN_CP)

#: The kinds that abort a dump at a tape-write op and recover by replay.
TAPE_FAULTS = (KIND_KILL, KIND_CORRUPT, KIND_EJECT)


class FaultSpec:
    """One planned fault: where it strikes and with what parameters."""

    def __init__(self, fault_id: str, day: int, volume_index: int,
                 kind: str, params: Optional[Dict] = None):
        if kind not in FAULT_KINDS:
            raise ReproError("unknown fault kind %r" % (kind,))
        self.fault_id = fault_id
        self.day = day
        self.volume_index = volume_index
        self.kind = kind
        self.params = dict(params or {})

    def to_dict(self) -> Dict:
        return {
            "fault_id": self.fault_id,
            "day": self.day,
            "volume_index": self.volume_index,
            "kind": self.kind,
            "params": dict(self.params),
        }

    def __repr__(self) -> str:
        return "<FaultSpec %s d%d v%d %s %r>" % (
            self.fault_id, self.day, self.volume_index, self.kind,
            self.params)


def _decision_rng(seed: int, day: int, volume_index: int) -> random.Random:
    """The per-(day, volume) decision stream.

    Each cell of the campaign grid gets its own generator, keyed only by
    the plan seed and the cell coordinates, so adding a volume or a day
    never perturbs the faults planned for any other cell.
    """
    return random.Random((seed * 1_000_003 + day * 10_007
                          + volume_index * 101) & 0xFFFFFFFF)


class ChaosPlan:
    """The full fault schedule for one campaign.

    ``rate`` is the per-(day, volume) probability that a fault is
    planned; ``kinds`` restricts the classes drawn.  ``enabled=False``
    builds a plan that never fires — the oracle run uses it so both runs
    execute the identical code path, fault branches and all.
    """

    def __init__(self, seed: int, rate: float = 0.5,
                 kinds=FAULT_KINDS, enabled: bool = True):
        if not 0.0 <= rate <= 1.0:
            raise ReproError("chaos rate must be in [0, 1]")
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ReproError("unknown fault kind %r" % (kind,))
        if not kinds:
            raise ReproError("chaos plan needs at least one fault kind")
        self.seed = seed
        self.rate = rate
        self.kinds = tuple(kinds)
        self.enabled = enabled

    def fault_for(self, day: int, volume_index: int) -> Optional[FaultSpec]:
        """The planned fault for one volume-day, or None.

        Day 0 is exempt: the first day populates and takes the level-0
        fulls every later chain hangs off, and the paper's operational
        story starts from an established backup regime.
        """
        if not self.enabled or day < 1:
            return None
        rng = _decision_rng(self.seed, day, volume_index)
        if rng.random() >= self.rate:
            return None
        kind = self.kinds[rng.randrange(len(self.kinds))]
        params: Dict = {}
        if kind == KIND_KILL:
            # Die on the Nth tape-write op.  Small dumps may have fewer
            # tape ops, in which case the fault misses (recorded as such).
            params["after_tape_ops"] = 1 + rng.randrange(48)
        elif kind == KIND_CORRUPT:
            params["after_tape_ops"] = 2 + rng.randrange(48)
            # Which written cartridge gets the flipped byte, counted back
            # from the one loaded at abort time; the byte offset is drawn
            # as a fraction of that cartridge's used bytes.
            params["cartridge_back"] = rng.randrange(3)
            params["offset_frac"] = rng.random()
            params["xor"] = 1 + rng.randrange(255)
        elif kind == KIND_EJECT:
            params["after_tape_ops"] = 2 + rng.randrange(48)
        elif kind == KIND_DISK_FAIL:
            # Stripe/disk indices are drawn as fractions and resolved
            # against the actual geometry at injection time.
            params["nblocks"] = 1 + rng.randrange(4)
            params["draws"] = [
                (rng.random(), rng.random(), rng.random())
                for _ in range(params["nblocks"])
            ]
        elif kind == KIND_TORN_CP:
            params["fuse_blocks"] = 1 + rng.randrange(32)
        # KIND_CRASH needs no parameters: the power fails right after the
        # day's aging, before the consistency point.
        fault_id = "F.s%d.d%d.v%d" % (self.seed, day, volume_index)
        return FaultSpec(fault_id, day, volume_index, kind, params)

    def faults_for_campaign(self, days: int,
                            volumes: int) -> List[FaultSpec]:
        """Every planned fault for a ``days`` x ``volumes`` campaign."""
        out = []
        for day in range(days):
            for index in range(volumes):
                fault = self.fault_for(day, index)
                if fault is not None:
                    out.append(fault)
        return out

    def to_json(self, days: int, volumes: int) -> str:
        """The materialized schedule as canonical JSON (a digest input)."""
        document = {
            "chaos_plan": 1,
            "seed": self.seed,
            "rate": self.rate,
            "kinds": list(self.kinds),
            "enabled": self.enabled,
            "faults": [f.to_dict()
                       for f in self.faults_for_campaign(days, volumes)],
        }
        return json.dumps(document, sort_keys=True, separators=(",", ":"))


__all__ = [
    "FAULT_KINDS",
    "KIND_CORRUPT",
    "KIND_CRASH",
    "KIND_DISK_FAIL",
    "KIND_EJECT",
    "KIND_KILL",
    "KIND_TORN_CP",
    "TAPE_FAULTS",
    "ChaosPlan",
    "FaultSpec",
]
