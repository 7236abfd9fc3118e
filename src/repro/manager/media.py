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
(:meth:`partitioned_drives`); a fleet job takes them all
(:meth:`drive_for_job`).  The free list is kept at its transitions
(registration, load, release, commit, recycle), in inventory order, so
building a drive reads no other cartridge.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

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
        # In-flight drives: stacker -> (job name, the labels it holds,
        # in magazine order).  A held cartridge is reserved.
        self._holds: Dict[TapeStacker, Tuple[str, List[str]]] = {}
        # The free scratch cartridges — scratch, unwritten, unreserved —
        # in the catalog's inventory order (``_rank``): what the next
        # drive is stacked with.
        self._free: List[str] = []
        self._rank: Dict[str, int] = {}

    # -- inventory ---------------------------------------------------------

    def add_blank(self, count: int, capacity: int = 35 * GB) -> List[str]:
        """Register ``count`` blank cartridges; returns their labels."""
        labels = []
        for _ in range(count):
            record = self.catalog.register_cartridge(capacity)
            self._cartridges[record.label] = TapeCartridge(
                capacity=capacity, label=record.label
            )
            # The newest in the inventory: last in its order.
            self._rank[record.label] = len(self.catalog.media) - 1
            self._free.append(record.label)
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

    def _make_free(self, labels: List[str]) -> None:
        """Return ``labels`` to the free list, in inventory order."""
        if labels:
            self._free = sorted(self._free + labels,
                                key=self._rank.__getitem__)

    def _reserve(self, name: str, labels: List[str]) -> TapeDrive:
        """A drive over the cartridges ``labels``, held under ``name``."""
        stacker = TapeStacker([self._cartridges[label] for label in labels],
                              name=name)
        self._holds[stacker] = (name, labels)
        return TapeDrive(stacker)

    def drive_for_job(self, name: str) -> TapeDrive:
        """A drive stacked with every free scratch cartridge, write order
        fixed, each reserved under ``name``."""
        if not self._free:
            raise TapeError("media pool has no scratch cartridges")
        free, self._free = self._free, []
        return self._reserve(name, free)

    def partitioned_drives(self, names: List[str]) -> List[TapeDrive]:
        """One drive per name over a *disjoint* round-robin split of the
        free scratch media.

        A campaign day's volumes are independent filers on separate
        drives, so they must never share media: each drive here owns its
        slice outright, and which cartridges a volume's day writes does
        not depend on how much its neighbours wrote.
        """
        if len(self._free) < len(names):
            raise TapeError(
                "media pool has %d free scratch cartridges for %d"
                " parallel jobs" % (len(self._free), len(names))
            )
        free, self._free = self._free, []
        return [self._reserve(name, free[index::len(names)])
                for index, name in enumerate(names)]

    def adopt_cartridges(self, drive: TapeDrive) -> None:
        """Point the pool at the cartridges the job's drive loaded — the
        only ones a job can write — so :meth:`commit_job` and later
        restores see the written bytes; a cartridge the pool never issued
        is refused."""
        stacker = drive.stacker
        for cartridge in stacker.cartridges[:stacker.next_slot]:
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
        """Drop the reservations the drive's magazine holds (for a job
        that was abandoned before :meth:`commit_job`).  What is still
        scratch and unwritten is free again: of the loaded prefix
        (``next_slot``) the cartridges the job left blank, and every
        cartridge after it, which the job never touched."""
        stacker = drive.stacker
        _name, labels = self._holds.pop(stacker, (None, []))
        loaded = stacker.next_slot
        self._make_free([
            label for label in labels[:loaded]
            if not self._cartridges[label].used
            and self.catalog.media[label].status == MEDIA_SCRATCH
        ] + labels[loaded:])

    def reserved_by(self, label: str):
        """The job name holding ``label``'s reservation, or ``None``."""
        for name, labels in self._holds.values():
            if label in labels:
                return name
        return None

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
            holder = self.reserved_by(label)
            if holder is not None:
                raise CatalogError(
                    "cannot recycle set %s: cartridge %r is reserved by"
                    " in-flight job %r" % (backup_set.set_id, label, holder)
                )
        recycled = []
        try:
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
        finally:
            self._make_free(recycled)
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
        # A cartridge loaded from disk may hold bytes no commit has
        # allocated yet: it is not free.
        pool._rank = {label: rank
                      for rank, label in enumerate(catalog.media)}
        pool._make_free([
            label for label, record in catalog.media.items()
            if record.status == MEDIA_SCRATCH and label in pool._cartridges
            and not pool._cartridges[label].used])
        return pool


__all__ = ["MediaPool"]
