"""The chaos plane: deterministic fault injection with oracle verification.

The paper's operational claims — dumps restart after tape trouble, disk
blocks fail under RAID without data loss, a crashed filer recovers by
NVRAM replay — are exercised here as one scenario family.  A seeded
:class:`~repro.chaos.plan.ChaosPlan` decides, purely as a function of
``(seed, day, volume)``, which fault (if any) strikes each volume-day of
a campaign; :mod:`repro.chaos.inject` fires the fault,
:mod:`repro.chaos.recover` runs the matching recovery mechanism, and
:mod:`repro.chaos.verify` proves the recovered campaign byte-identical
to a fault-free oracle run of the same seeds.
"""

from repro.chaos.plan import (
    FAULT_KINDS,
    TAPE_FAULTS,
    ChaosPlan,
    FaultSpec,
)
from repro.chaos.inject import DumpAbort, drive_engine_with_kill
from repro.chaos.recover import RecoveryReport, recover_crash, replay_dump
from repro.chaos.verify import (
    campaign_state_digests,
    compare_digests,
    volume_digest,
)
from repro.chaos.campaign import (
    ChaosCampaignDriver,
    VolumeDayFault,
)

__all__ = [
    "ChaosCampaignDriver",
    "ChaosPlan",
    "DumpAbort",
    "FAULT_KINDS",
    "FaultSpec",
    "RecoveryReport",
    "TAPE_FAULTS",
    "VolumeDayFault",
    "campaign_state_digests",
    "compare_digests",
    "drive_engine_with_kill",
    "recover_crash",
    "replay_dump",
    "volume_digest",
]
