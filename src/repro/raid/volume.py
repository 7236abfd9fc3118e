"""The flat block address space a WAFL volume lives on.

:class:`RaidVolume` concatenates the data address spaces of its RAID-4
groups.  It is the *only* interface the physical (image) backup path uses:
image dump reads raw volume blocks here, and image restore writes them
back, never touching file-system structures.  The logical path reaches the
same object, but only through :class:`~repro.wafl.filesystem.WaflFilesystem`.

An attached :class:`~repro.storage.device.IoRecorder` observes every
block-level access, which is how the performance layer learns the physical
addresses (and therefore the seek behaviour) of whatever ran.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import PowerLossError, RaidError
from repro.obs.metrics import REGISTRY
from repro.raid.group import RaidGroup
from repro.raid.layout import BlockLocation, VolumeGeometry, locate
from repro.storage.device import IoRecorder


class RaidVolume:
    """A flat data-block address space over one or more RAID-4 groups."""

    def __init__(self, geometry: VolumeGeometry, name: str = ""):
        if not geometry.groups:
            raise RaidError("volume needs at least one RAID group")
        self.geometry = geometry
        self.name = name
        self.groups: List[RaidGroup] = [
            RaidGroup(group, geometry.block_size, name="%s.g%d" % (name, i))
            for i, group in enumerate(geometry.groups)
        ]
        self._group_base: List[int] = []
        base = 0
        for group in geometry.groups:
            self._group_base.append(base)
            base += group.data_blocks
        self.nblocks = base  # read by every run's range check
        self.recorder: Optional[IoRecorder] = None
        # Optional block buffer cache (see repro.wafl.buffercache): hits
        # produce no recorder events, modelling RAM-resident metadata.
        self.cache = None
        # When True, reads bypass the cache entirely (image dump's
        # "bypass the file system" path still records every block).
        self.uncached_reads = False
        # Chaos write fuse: None when disarmed (the normal state); an
        # armed fuse counts down block writes and tears the write that
        # crosses zero (see :meth:`arm_write_fuse`).
        self._write_fuse: Optional[int] = None

    # -- geometry ---------------------------------------------------------

    @property
    def block_size(self) -> int:
        return self.geometry.block_size

    @property
    def size_bytes(self) -> int:
        return self.geometry.size_bytes

    def locate(self, volume_block: int) -> BlockLocation:
        return locate(self.geometry, volume_block)

    def compatible_with(self, other_geometry: VolumeGeometry) -> bool:
        """Whether a physical image of ``other_geometry`` can land here."""
        return self.geometry == other_geometry

    # -- data plane ---------------------------------------------------------

    def read_block(self, volume_block: int) -> bytes:
        return self.read_run(volume_block, 1)

    def write_block(self, volume_block: int, data: bytes) -> None:
        if len(data) != self.block_size:
            raise RaidError(
                "write of %d bytes to %d-byte block" % (len(data), self.block_size)
            )
        self.write_run(volume_block, data, 0, 1)

    def _piece(self, block: int):
        """The ``(group, group_block)`` of one volume block.  A block
        outside the volume maps outside the group, whose range check
        raises."""
        index = bisect_right(self._group_base, block) - 1
        return self.groups[index], block - self._group_base[index]

    def _pieces(self, start_block: int, nblocks: int):
        """Decompose a volume run into (group index, group_block, count)
        pieces."""
        if not 0 <= start_block <= self.nblocks - nblocks:
            raise RaidError(
                "run [%d, %d) out of range on %r"
                % (start_block, start_block + nblocks, self.name)
            )
        block, end = start_block, start_block + nblocks
        while block < end:
            index = bisect_right(self._group_base, block) - 1
            group_block = block - self._group_base[index]
            count = min(end - block,
                        self.groups[index].data_blocks - group_block)
            yield index, group_block, count
            block += count

    def freeze(self, runs: Iterable[Tuple[int, int]]) -> List[Set[int]]:
        """Freeze the chunks a dump's tape may share: split the volume
        ``runs`` ``(start, count)`` — the dump's whole plan — per group,
        and each group's store freezes every chunk they take at least
        half the data blocks of (:meth:`StripeStore.freeze`).  The
        result, one set of chunk indices per group, is :meth:`read_run`'s
        ``keep`` for every read of the plan."""
        pieces: List[list] = [[] for _group in self.groups]
        for start, count in runs:
            for index, group_block, piece in self._pieces(start, count):
                pieces[index].append((group_block, piece))
        return [group.store.freeze(group_runs)
                for group, group_runs in zip(self.groups, pieces)]

    def read_run(self, start_block: int, nblocks: int,
                 out: Optional[list] = None,
                 keep: Sequence[Set[int]] = ()) -> Optional[bytes]:
        """Read ``nblocks`` contiguous volume blocks as one access.

        The bytes come from the groups' stripe stores in one copy: each
        RAID group appends one buffer per chunk span and the run is their
        join — or, with ``out``, the buffers are appended to it (views of
        the live store) for the caller to join once with other runs,
        before anything writes, and nothing is returned.  ``keep``, with
        ``out``, is what :meth:`freeze` returned for the caller's plan (a
        dump's tape): a chunk it froze that no write has copied since
        comes back as a read-only view, which stays valid through any
        later write (:meth:`StripeStore.spans`).  The cache only decides
        whether the *device* is involved.
        A fully resident run is the bare gather — no member ``reads``, no
        fault lookup or reconstruction, no recorder event, so no I/O
        time — which is exact because a media fault marks a block
        unreadable and leaves its stored bytes alone.  A run with any
        cold block is read (and recorded) whole, as a real chained read
        is.  Nine reads in ten are one block (DESIGN.md, "One block
        path"): that size, joined, skips the list.
        """
        if nblocks <= 0:
            raise RaidError("zero-length run read")
        cache = None if self.uncached_reads else self.cache
        if cache is None or not cache.get_run(start_block, nblocks):
            return self._read_device(start_block, nblocks, out, cache, keep)
        return self._gather(start_block, nblocks, out, False, keep)

    def touch_run(self, start_block: int, nblocks: int) -> None:
        """:meth:`read_run` without the gather, for a reader that already
        holds the bytes: a resident run is the same cache hit, a cold one
        the same device read, cache fill, recorder event and counts."""
        if nblocks <= 0:
            raise RaidError("zero-length run read")
        cache = None if self.uncached_reads else self.cache
        if cache is None or not cache.get_run(start_block, nblocks):
            self._read_device(start_block, nblocks, [], cache)

    def _gather(self, start_block: int, nblocks: int, out: Optional[list],
                device: bool, keep: Sequence[Set[int]] = ()
                ) -> Optional[bytes]:
        """The run's buffers, from the groups' devices (counted and
        fault-checked) or, for a cache hit, from their stores; each group
        gets its own set of ``keep``."""
        if out is None and nblocks == 1:
            group, group_block = self._piece(start_block)
            return group.read_block(group_block, device)
        buffers = [] if out is None else out
        for index, group_block, count in self._pieces(start_block, nblocks):
            self.groups[index].read_run(group_block, count, buffers, device,
                                        keep[index] if keep else frozenset())
        return None if out is not None else b"".join(buffers)

    def _read_device(self, start_block: int, nblocks: int,
                     out: Optional[list], cache,
                     keep: Sequence[Set[int]] = ()) -> Optional[bytes]:
        """The miss path of a run read: the device read, then the cache
        fill, the recorder event and the counts."""
        result = self._gather(start_block, nblocks, out, True, keep)
        if cache is not None:
            cache.put_run(start_block, nblocks)
        if self.recorder is not None:
            self.recorder.on_read(start_block, nblocks)
        if REGISTRY.enabled:
            REGISTRY.counter("volume.read_runs").inc()
            REGISTRY.counter("volume.read_blocks").inc(nblocks)
            REGISTRY.histogram("disk.read_run_blocks",
                               (1, 4, 16, 64, 256)).observe(nblocks)
        return result

    def write_run(self, start_block: int, data, offset: int = 0,
                  nblocks: Optional[int] = None) -> None:
        """Write ``nblocks`` contiguous volume blocks from ``data[offset:]``
        (by default, all of ``data``) as one access.  A single block — most
        writes are — is the group's read-modify-write and nothing else.
        The groups read ``data`` in place: the stripe store is the one
        copy a written block makes."""
        bs = self.block_size
        if nblocks is None:
            if (len(data) - offset) % bs:
                raise RaidError("run write is not block aligned")
            nblocks = (len(data) - offset) // bs
        if self._write_fuse is not None:
            self._fuse_spend(
                start_block, memoryview(data)[offset : offset + nblocks * bs],
                nblocks)
        if nblocks == 1:
            group, group_block = self._piece(start_block)
            group.write_block(group_block, data, offset)
        else:
            done = 0
            for index, group_block, count in self._pieces(start_block, nblocks):
                self.groups[index].write_run(group_block, data,
                                             offset + done * bs, count)
                done += count
        if self.cache is not None:
            self.cache.put_run(start_block, nblocks)
        if self.recorder is not None:
            self.recorder.on_write(start_block, nblocks)
        if REGISTRY.enabled:
            REGISTRY.counter("volume.write_runs").inc()
            REGISTRY.counter("volume.write_blocks").inc(nblocks)

    # -- chaos fault surface --------------------------------------------------

    def arm_write_fuse(self, nblocks: int) -> None:
        """Arm the torn-write fuse: the ``nblocks``-th block write from now
        tears halfway through (first half new bytes, second half old) and
        raises :class:`PowerLossError`; later writes raise immediately —
        the power is off until :meth:`disarm_write_fuse`.
        """
        if nblocks < 1:
            raise RaidError("write fuse needs a positive countdown")
        self._write_fuse = nblocks

    def disarm_write_fuse(self) -> None:
        self._write_fuse = None

    def _fuse_spend(self, start_block: int, data, nblocks: int) -> None:
        fuse = self._write_fuse
        if fuse <= 0:
            raise PowerLossError(
                "power is off: write to block %d of %r dropped"
                % (start_block, self.name))
        if nblocks < fuse:
            self._write_fuse = fuse - nblocks
            return
        # This request crosses the fuse: the first fuse-1 blocks land
        # whole, the fuse-th block tears mid-transfer, the rest is lost.
        bs = self.block_size
        view = memoryview(data)
        whole = fuse - 1
        torn_index = start_block + whole
        self._write_fuse = None
        try:
            if whole:
                self.write_run(start_block, bytes(view[: whole * bs]))
            old = self.read_run(torn_index, 1)
            new = view[whole * bs : (whole + 1) * bs]
            torn = bytes(new[: bs // 2]) + bytes(old[bs // 2 :])
            self.write_block(torn_index, torn)
        finally:
            self._write_fuse = 0
        raise PowerLossError(
            "torn write at block %d of %r" % (torn_index, self.name))

    def bad_blocks(self) -> List[Tuple[int, int, int]]:
        """Every injected media error as (group, disk_index, stripe)."""
        return [(gi, disk_index, stripe)
                for gi, group in enumerate(self.groups)
                for disk_index, stripe in group.bad_blocks()]

    def repair_bad_blocks(self) -> int:
        """Reconstruct-and-rewrite every injected media error in place.

        Data-disk faults recover through parity (:meth:`RaidGroup.repair_block`);
        parity-disk faults recover by recomputing parity from the data
        members.  Returns the number of blocks repaired; contents are
        bit-identical to the pre-fault state, so a repaired volume matches
        a never-faulted one.
        """
        repaired = 0
        for group in self.groups:
            for disk_index, stripe in group.bad_blocks():
                if disk_index < 0:
                    group.repair_parity(stripe)
                else:
                    group.repair_block(disk_index, stripe)
                repaired += 1
        return repaired

    # -- maintenance ---------------------------------------------------------

    def verify_parity(self) -> bool:
        return all(group.verify_parity() for group in self.groups)

    def clone_empty(self) -> "RaidVolume":
        """A fresh volume of identical geometry (disaster-recovery target)."""
        return RaidVolume(self.geometry, name=self.name + "+new")

    def clone(self) -> "RaidVolume":
        """A copy-on-write copy of this volume.

        Groups (and their stores) are cloned chunk-sharing; the buffer
        cache's residency set is copied, which preserves hit/miss state
        exactly.
        No recorder is attached — the caller wires its own observation,
        exactly as after a fresh build.
        """
        other = RaidVolume.__new__(RaidVolume)
        other.geometry = self.geometry
        other.name = self.name
        other.groups = [group.clone() for group in self.groups]
        other._group_base = list(self._group_base)
        other.nblocks = self.nblocks
        other.recorder = None
        other.cache = self.cache.clone() if self.cache is not None else None
        other.uncached_reads = self.uncached_reads
        other._write_fuse = None
        return other


__all__ = ["RaidVolume"]
