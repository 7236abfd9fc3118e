"""The media pool: real cartridges behind the catalog's inventory.

The catalog tracks every cartridge's label, capacity, and status
(scratch or allocated-to-a-set); the pool holds the actual
:class:`~repro.storage.tape.TapeCartridge` objects and hands out drives:

* :meth:`drive_for_job` — a drive fed by every scratch cartridge, so a
  dump can spill across media without running dry;
* :meth:`commit_job` — after the dump, the cartridges that actually
  received data are allocated to the new backup set (in write order —
  the restore's load order) and the untouched ones silently return;
* :meth:`drive_for_restore` — a drive loaded with exactly a set's
  cartridges;
* :meth:`recycle` — a pruned set's cartridges are erased and go back to
  scratch.

One cartridge belongs to at most one backup set, which is what makes
recycling a chain safe: no surviving set shares its media.

Jobs that are staged together must never share media, so the scratch
cartridges stacked into an in-flight job's drive are *reserved*: a
reserved cartridge is excluded from every later drive build and refuses
to be recycled until the job commits or releases it.  A campaign day
splits the free scratch media between its volumes up front
(:meth:`partitioned_drives`); the fleet service, which holds unwritten
scratch media across arbitrary interleavings with prune and ad-hoc
submissions, reserves per job (``drive_for_job(reserve=True)``).
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import CatalogError, TapeError
from repro.catalog.records import MEDIA_ALLOCATED, MEDIA_SCRATCH, BackupSet
from repro.storage.persist import load_media, save_media
from repro.storage.tape import TapeCartridge, TapeDrive, TapeStacker
from repro.units import GB


class MediaPool:
    """Cartridge objects plus allocation against a catalog's inventory."""

    def __init__(self, catalog):
        self.catalog = catalog
        self._cartridges: Dict[str, TapeCartridge] = {}
        # label -> job name holding the reservation (in-flight drives).
        self._reserved: Dict[str, str] = {}

    # -- inventory ---------------------------------------------------------

    def add_blank(self, count: int, capacity: int = 35 * GB) -> List[str]:
        """Register ``count`` blank cartridges; returns their labels."""
        labels = []
        for _ in range(count):
            record = self.catalog.register_cartridge(capacity)
            self._cartridges[record.label] = TapeCartridge(
                capacity=capacity, label=record.label
            )
            labels.append(record.label)
        return labels

    def cartridge(self, label: str) -> TapeCartridge:
        try:
            return self._cartridges[label]
        except KeyError:
            raise CatalogError("cartridge %r is not in the pool" % label)

    def scratch_labels(self) -> List[str]:
        return [c.label for c in self.catalog.media.values()
                if c.status == MEDIA_SCRATCH and c.label in self._cartridges]

    # -- job lifecycle -----------------------------------------------------

    def drive_for_job(self, name: str, reserve: bool = False) -> TapeDrive:
        """A drive stacked with every free scratch cartridge, write order
        fixed.

        A scratch cartridge another in-flight job has already written
        (``used > 0``, not yet committed) or reserved is excluded —
        concurrent same-day jobs must never share media.  With
        ``reserve=True`` the stacked cartridges are reserved under
        ``name`` until :meth:`commit_job` or :meth:`release_drive`.
        """
        cartridges = [self._cartridges[label]
                      for label in self.scratch_labels()
                      if not self._cartridges[label].used
                      and label not in self._reserved]
        if not cartridges:
            raise TapeError("media pool has no scratch cartridges")
        if reserve:
            for cartridge in cartridges:
                self._reserved[cartridge.label] = name
        return TapeDrive(TapeStacker(cartridges, name=name))

    def partitioned_drives(self, names: List[str]) -> List[TapeDrive]:
        """One drive per name over a *disjoint* round-robin split of the
        free scratch media.

        A campaign day's volumes are independent filers on separate
        drives, so they must never share media: each drive here owns its
        slice outright, and which cartridges a volume's day writes does
        not depend on how much its neighbours wrote.
        """
        free = [self._cartridges[label]
                for label in self.scratch_labels()
                if not self._cartridges[label].used
                and label not in self._reserved]
        if len(free) < len(names):
            raise TapeError(
                "media pool has %d free scratch cartridges for %d"
                " parallel jobs" % (len(free), len(names))
            )
        stacks: List[List[TapeCartridge]] = [[] for _ in names]
        for index, cartridge in enumerate(free):
            stacks[index % len(names)].append(cartridge)
        for name, stack in zip(names, stacks):
            for cartridge in stack:
                self._reserved[cartridge.label] = name
        return [TapeDrive(TapeStacker(stack, name=name))
                for name, stack in zip(names, stacks)]

    def adopt_cartridges(self, drive: TapeDrive) -> None:
        """Point the pool at the cartridges the job's drive holds, so
        :meth:`commit_job` and later restores see the written bytes; a
        cartridge the pool never issued is refused."""
        for cartridge in drive.stacker.cartridges:
            if cartridge.label not in self._cartridges:
                raise CatalogError(
                    "cartridge %r is not in the pool" % cartridge.label
                )
            self._cartridges[cartridge.label] = cartridge

    def commit_job(self, drive: TapeDrive, backup_set: BackupSet) -> List[str]:
        """Allocate the cartridges the job wrote to ``backup_set``.

        The drive loads its magazine sequentially, so the cartridges it
        wrote are exactly the loaded prefix (``next_slot``); other used
        cartridges in the magazine belong to concurrent jobs.  Any
        reservation the drive held on its magazine is released.
        """
        self.release_drive(drive)
        written = drive.stacker.cartridges[:drive.stacker.next_slot]
        labels = []
        for cartridge in written:
            if not cartridge.used:
                continue
            record = self.catalog.cartridge_record(cartridge.label)
            if record.status != MEDIA_SCRATCH:
                raise CatalogError(
                    "job wrote on non-scratch cartridge %r" % cartridge.label
                )
            record.status = MEDIA_ALLOCATED
            record.set_id = backup_set.set_id
            record.used = cartridge.used
            self.catalog.touch_media(cartridge.label)
            labels.append(cartridge.label)
        backup_set.cartridges = labels
        self.catalog.touch_set(backup_set.set_id)
        return labels

    def release_drive(self, drive: TapeDrive) -> None:
        """Drop every reservation held on the drive's magazine (for a
        job that was abandoned before :meth:`commit_job`)."""
        for cartridge in drive.stacker.cartridges:
            self._reserved.pop(cartridge.label, None)

    def reserved_by(self, label: str):
        """The job name holding ``label``'s reservation, or ``None``."""
        return self._reserved.get(label)

    def drive_for_restore(self, backup_set: BackupSet) -> TapeDrive:
        """A rewound drive holding exactly the set's cartridges, in order."""
        if not backup_set.cartridges:
            raise CatalogError(
                "backup set %s has no cartridges recorded" % backup_set.set_id
            )
        cartridges = [self.cartridge(label)
                      for label in backup_set.cartridges]
        return TapeDrive(TapeStacker(cartridges,
                                     name="restore." + backup_set.set_id))

    def recycle(self, backup_set: BackupSet) -> List[str]:
        """Erase a retired set's cartridges and return them to scratch.

        Refused outright if any cartridge is reserved by an in-flight
        job — erasing it here would hand the same scratch cartridge to
        two jobs once the reservation holder commits.
        """
        for label in backup_set.cartridges:
            holder = self._reserved.get(label)
            if holder is not None:
                raise CatalogError(
                    "cannot recycle set %s: cartridge %r is reserved by"
                    " in-flight job %r" % (backup_set.set_id, label, holder)
                )
        recycled = []
        for label in backup_set.cartridges:
            record = self.catalog.cartridge_record(label)
            if record.set_id != backup_set.set_id:
                raise CatalogError(
                    "cartridge %r is allocated to %s, not %s"
                    % (label, record.set_id, backup_set.set_id)
                )
            self.cartridge(label).erase()
            record.status = MEDIA_SCRATCH
            record.set_id = None
            record.used = 0
            self.catalog.touch_media(label)
            recycled.append(label)
        return recycled

    # -- persistence -------------------------------------------------------

    def save(self, path: str) -> int:
        """Write every cartridge's bytes; statuses live in the catalog.

        The file is replaced atomically: a worker killed mid-save leaves
        the previous pool, not a torn one.
        """
        ordered = [self._cartridges[label]
                   for label in sorted(self._cartridges)]
        return save_media(ordered, path)

    @classmethod
    def load(cls, catalog, path: str) -> "MediaPool":
        pool = cls(catalog)
        for cartridge in load_media(path):
            if cartridge.label not in catalog.media:
                raise CatalogError(
                    "media file has cartridge %r the catalog does not know"
                    % cartridge.label
                )
            pool._cartridges[cartridge.label] = cartridge
        return pool


__all__ = ["MediaPool"]
