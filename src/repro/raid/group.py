"""One RAID-4 group: striped data disks plus a dedicated parity disk.

The group lives in one stripe-major :class:`StripeStore`: a run of group
blocks inside a chunk is one slice, and parity is one XOR-reduce across a
stripe range's data columns — full stripes take it from the new data,
partial stripes read-modify-write it (new parity = old parity XOR old data
XOR new data).  A read that hits an injected media error is reconstructed
from the surviving stripe members, the property the backup experiments
rely on when they stream through a degraded group.  ``data_disks`` and
``parity_disk`` are the store's columns (:meth:`VirtualDisk.member`).
"""

from __future__ import annotations

from typing import AbstractSet, List

import numpy as np

from repro.errors import RaidError
from repro.raid.layout import GroupGeometry
from repro.storage.disk import StripeStore, VirtualDisk


def run_nbytes(data) -> int:
    """The length of a run a write takes: a buffer, or a list of buffers
    whose join is the run."""
    return sum(map(len, data)) if isinstance(data, list) else len(data)


def split_run(data, offset: int, nbytes: int, unit: int, skew: int = 0):
    """Yield ``(buffer, offset, nbytes)`` triples that cover ``nbytes`` of
    the run ``data`` from ``offset`` in order, each ending on a boundary:
    ``skew`` bytes into the run, every ``unit`` bytes after that, or the
    run's end.  A plain buffer is its own one triple.  Of a list of
    buffers, the boundaries inside one piece cut nothing — the piece is
    read in place — and only a unit that two or more pieces share is
    joined, as it is reached, so at most one join is alive."""
    if not isinstance(data, list):
        yield data, offset, nbytes
        return

    def floor(at):                  # the last boundary at or before ``at``
        if at >= nbytes:
            return nbytes
        return 0 if at < skew else at - (at - skew) % unit

    done, parts, held, stop = 0, [], 0, 0
    for piece in data:
        size = len(piece)
        if offset >= size:
            offset -= size
            continue
        at, offset = offset, 0
        if parts:                   # the unit the pieces before began
            take = min(stop - done - held, size - at)
            parts.append(memoryview(piece)[at : at + take])
            held += take
            at += take
            if done + held < stop:
                continue
            yield b"".join(parts), 0, held
            done, parts, held = stop, [], 0
        cut = floor(done + size - at)
        if cut > done:
            yield piece, at, cut - done
            at += cut - done
            done = cut
        if done == nbytes:
            return
        if at < size:               # a unit that runs on into the next piece
            stop = min(nbytes, skew if done < skew else done + unit)
            parts, held = [memoryview(piece)[at:]], size - at
    raise RaidError("%d-byte write past the end of its buffers"
                    % (nbytes - done))


def _fold(rows) -> np.ndarray:
    """The XOR of a stripe's ``rows`` (one row is itself)."""
    return rows[0] if len(rows) == 1 else np.bitwise_xor.reduce(rows, axis=0)


class RaidGroup:
    """A RAID-4 group over one :class:`StripeStore`."""

    def __init__(self, geometry: GroupGeometry, block_size: int, name: str = ""):
        if geometry.ndata_disks < 1:
            raise RaidError("RAID-4 group needs at least one data disk")
        self.geometry = geometry
        self.block_size = block_size
        self.name = name
        self.reconstructed_reads = 0
        self.data_blocks = geometry.data_blocks
        nd = geometry.ndata_disks
        self._attach(StripeStore(geometry.blocks_per_disk, nd, block_size, True),
                     ["%s.d%d" % (name, i) for i in range(nd)] + ["%s.parity" % name])

    def _attach(self, store: StripeStore, names: List[str]) -> None:
        nd = self.geometry.ndata_disks
        self.store = store
        self.data_disks: List[VirtualDisk] = [
            VirtualDisk.member(store, i, names[i]) for i in range(nd)]
        self.parity_disk = VirtualDisk.member(store, nd, names[nd])

    def _check_run(self, group_block: int, nblocks: int, what: str) -> None:
        if nblocks <= 0:
            raise RaidError("zero-length run %s on %r" % (what, self.name))
        if not 0 <= group_block <= self.data_blocks - nblocks:
            raise RaidError("group run [%d, %d) out of range on %r"
                            % (group_block, group_block + nblocks, self.name))

    def _double_failure(self, stripe: int) -> RaidError:
        return RaidError("double failure in stripe %d of %r" % (stripe, self.name))

    # -- reads ---------------------------------------------------------------

    def read_block(self, group_block: int, device: bool = True) -> bytes:
        """One group block: a ``device`` read (counted, fault-checked,
        reconstructed from the stripe if unreadable), or — a buffer-cache
        hit — the same bytes straight from the store."""
        store = self.store
        if not device:
            return store.block(group_block)
        if not 0 <= group_block < self.data_blocks:
            raise RaidError("group block %d out of range on %r" % (group_block, self.name))
        nd = self.geometry.ndata_disks
        if store._bad and group_block in store._bad:
            return self._reconstruct(group_block % nd, group_block // nd)
        store.reads[group_block % nd] += 1
        return store.block(group_block)

    def read_run(self, group_block: int, nblocks: int, out: list,
                 device: bool = True,
                 keep: AbstractSet[int] = frozenset()) -> None:
        """Append a run of group blocks to ``out``, one buffer per chunk
        span (:meth:`StripeStore.spans`: views of the live store, to be
        joined before anything writes, save read-only views of the
        chunks in ``keep`` that :meth:`StripeStore.freeze` froze).

        A ``device`` read counts each block on its member; a run holding
        an unreadable block is read block by block, reconstructing, as
        the scalar path does, into fresh bytes.  A buffer-cache hit is
        the bare spans.
        """
        self._check_run(group_block, nblocks, "read")
        store = self.store
        if device:
            end = group_block + nblocks
            if store._bad and any(group_block <= cell < end for cell in store._bad):
                out += [self.read_block(block) for block in range(group_block, end)]
                return
            store.count(store.reads, group_block, nblocks)
        store.spans(group_block, nblocks, out, keep)

    def _reconstruct(self, failed_disk: int, stripe: int) -> bytes:
        """Rebuild one block from the surviving stripe members + parity."""
        self.reconstructed_reads += 1
        store, nd = self.store, self.geometry.ndata_disks
        cells = [stripe * nd + i for i in range(nd) if i != failed_disk]
        if any(cell in store._bad for cell in cells + [store.nblocks + stripe]):
            raise self._double_failure(stripe)
        store.reads[nd] += 1
        for cell in cells:
            store.reads[cell % nd] += 1
        where = store.stripe(stripe)
        if where is None:
            return store._zero
        data, parity = where
        acc = _fold(data)
        acc ^= data[failed_disk]
        acc ^= parity
        return acc.tobytes()

    # -- writes --------------------------------------------------------------

    def _rows(self, data, offset: int, nblocks: int) -> np.ndarray:
        if isinstance(data, list):
            nbytes = nblocks * self.block_size
            ((data, offset, _n),) = split_run(data, offset, nbytes, nbytes)
        try:
            return np.frombuffer(data, np.uint8, nblocks * self.block_size,
                                 offset).reshape(nblocks, self.block_size)
        except ValueError:
            raise RaidError("%d-block write past the end of its buffer on %r"
                            % (nblocks, self.name))

    def write_block(self, group_block: int, data, offset: int = 0) -> None:
        """Read-modify-write one group block from ``data[offset:]`` (a
        buffer, or a list of buffers whose join is the run)."""
        self._check_run(group_block, 1, "write")
        self._write_partial(group_block, self._rows(data, offset, 1))

    def write_run(self, group_block: int, data, offset: int, nblocks: int) -> None:
        """Write a run of group blocks from ``data[offset:]`` — a buffer,
        or a list of buffers whose join is the run — in one pass over its
        stripes (:func:`split_run` cuts a list at stripe boundaries: each
        piece is read in place, only a stripe two pieces share is
        joined).  A run its buffers are too short for raises before
        anything moves."""
        self._check_run(group_block, nblocks, "write")
        if not isinstance(data, list):
            self._write_rows(group_block, [self._rows(data, offset, nblocks)])
            return
        nd, bs = self.geometry.ndata_disks, self.block_size
        if run_nbytes(data) < offset + nblocks * bs:
            raise RaidError("%d-block write past the end of its buffers on %r"
                            % (nblocks, self.name))
        self._write_rows(group_block, [
            self._rows(buffer, at, nbytes // bs)
            for buffer, at, nbytes in split_run(data, offset, nblocks * bs,
                                                nd * bs, -group_block % nd * bs)])

    def _write_rows(self, group_block: int, parts: List[np.ndarray]) -> None:
        """Write the rows ``parts`` hold, joined in order, from
        ``group_block``: whole stripes take parity straight from the new
        data, with no reads; the partial stripes at the edges
        read-modify-write.  The edges lie in the first and the last part,
        and every seam between parts is a stripe boundary."""
        nd = self.geometry.ndata_disks
        end = group_block + sum(map(len, parts))
        first = min(end, -(-group_block // nd) * nd)
        last = max(first, end - end % nd)
        if group_block < first:
            self._write_partial(group_block, parts[0][: first - group_block])
            parts[0] = parts[0][first - group_block :]
        if last < end:
            tail = parts[-1][len(parts[-1]) - (end - last) :]
            parts[-1] = parts[-1][: len(parts[-1]) - (end - last)]
        if first < last:
            self._write_full(first // nd, parts)
        if last < end:
            self._write_partial(last, tail)

    def _write_full(self, stripe: int, parts: List[np.ndarray]) -> None:
        """Whole stripes from ``stripe`` on, from the rows ``parts`` hold
        (each a whole number of stripes): data copied in, parity one
        XOR-reduce, a chunk span of a part at a time."""
        store, nd = self.store, self.geometry.ndata_disks
        start, end = stripe, stripe + sum(map(len, parts)) // nd
        store.unmark(range(start * nd, end * nd))
        store.unmark(range(store.nblocks + start, store.nblocks + end))
        for column in range(nd + 1):
            store.writes[column] += end - start
        for part in parts:
            part = part.reshape(-1, nd, self.block_size)
            at = 0
            while at < len(part):
                ci, row = divmod(stripe, store.chunk_stripes)
                take = min(len(part) - at, store.chunk_stripes - row)
                piece = part[at : at + take]
                if ci in store._chunks or piece.any():
                    data, parity = store.rows(store.writable(ci))
                    data[row : row + take] = piece
                    np.bitwise_xor.reduce(piece, axis=1,
                                          out=parity[row : row + take])
                stripe += take
                at += take

    def _write_partial(self, group_block: int, new: np.ndarray) -> None:
        """Read-modify-write ``len(new)`` columns of one stripe from
        ``group_block``.  Over an unreadable written column or parity the
        stripe is reconstruct-written — parity from the untouched columns
        and the new data, clearing the marks; an unreadable untouched
        column too is a double failure, raised before anything moves."""
        store, nd = self.store, self.geometry.ndata_disks
        stripe, first = divmod(group_block, nd)
        written = range(group_block, group_block + len(new))
        parity_cell = store.nblocks + stripe
        rmw = not store._bad or not (parity_cell in store._bad or any(
            cell in store._bad for cell in written))
        if rmw:
            read = written
            store.reads[nd] += 1
        else:
            read = [cell for cell in range(stripe * nd, stripe * nd + nd)
                    if cell not in written]
            if any(cell in store._bad for cell in read):
                raise self._double_failure(stripe)
            store.unmark(written)
            store.unmark(range(parity_cell, parity_cell + 1))
        for cell in read:
            store.reads[cell % nd] += 1
        for cell in written:
            store.writes[cell % nd] += 1
        store.writes[nd] += 1
        if stripe // store.chunk_stripes not in store._chunks and not new.any():
            return  # zeros over zeros: data and parity stay zero
        data, parity = store.stripe(stripe, write=True)
        old = data[first : first + len(new)]
        if rmw:
            parity ^= _fold(old)
            parity ^= _fold(new)
        old[...] = new
        if not rmw:
            parity[...] = _fold(data)

    # -- maintenance ---------------------------------------------------------

    def clone(self) -> "RaidGroup":
        """A copy-on-write copy: the store is cloned chunk-sharing, so the
        group costs nothing until written."""
        other = RaidGroup.__new__(RaidGroup)
        other.__dict__.update(self.__dict__)
        other._attach(self.store.clone(),
                      [disk.name for disk in self.data_disks + [self.parity_disk]])
        return other

    def verify_parity(self) -> bool:
        """Check every stripe's parity, one XOR-reduce a chunk (a chunk
        never materialized is all zeros).  A stripe with an unreadable
        member is skipped: it cannot be independently cross-checked."""
        store = self.store
        bad = {store.stripe_of(cell) for cell in store._bad}
        for ci in list(store._chunks):
            wrong = store.parity_errors(ci)
            if wrong and not bad.issuperset(wrong):
                return False
        return True

    def scrub(self) -> int:
        """Recompute parity for every stripe; returns stripes repaired.  A
        stripe with an unreadable data member is skipped (its parity is
        what reconstructs it); an unreadable parity block is rewritten,
        which clears its mark."""
        store = self.store
        stale = {cell - store.nblocks for cell in store._bad if cell >= store.nblocks}
        for ci in list(store._chunks):
            stale.update(store.parity_errors(ci))
        stale -= {store.stripe_of(cell) for cell in store._bad if cell < store.nblocks}
        for stripe in sorted(stale):
            self.repair_parity(stripe)
        return len(stale)

    def rebuild_disk(self, disk_index: int) -> "VirtualDisk":
        """Reconstruct a failed data disk onto a fresh spare, every stripe
        from the surviving members plus parity; the spare replaces the
        failed disk in the group and is returned.  Any other unreadable
        block is a double failure, raised before anything is rebuilt."""
        nd, store = self.geometry.ndata_disks, self.store
        if not 0 <= disk_index < nd:
            raise RaidError("no data disk %d in %r" % (disk_index, self.name))
        column = range(disk_index, store.nblocks, nd)
        others = [cell for cell in store._bad if cell not in column]
        if others:
            raise self._double_failure(store.stripe_of(min(others)))
        for ci in list(store._chunks):
            data, parity = store.rows(store.writable(ci))
            lost = data[:, disk_index]
            lost ^= np.bitwise_xor.reduce(data, axis=1)
            lost ^= parity
        store.unmark(column)
        self.reconstructed_reads += store.nstripes
        store.reads[disk_index], store.writes[disk_index] = 0, store.nstripes
        self.data_disks[disk_index] = VirtualDisk.member(
            store, disk_index, "%s.d%d+rebuilt" % (self.name, disk_index))
        return self.data_disks[disk_index]

    def repair_block(self, disk_index: int, stripe: int) -> bytes:
        """Reconstruct one bad stripe member and write it back in place,
        which clears its mark: the group returns to clean, bit-identical
        to the pre-fault state.  Returns the recovered block."""
        if not 0 <= disk_index < self.geometry.ndata_disks:
            raise RaidError("no data disk %d in %r" % (disk_index, self.name))
        data = self._reconstruct(disk_index, stripe)
        self.data_disks[disk_index].write_block(stripe, data)
        return data

    def repair_parity(self, stripe: int) -> None:
        """Recompute one stripe's parity from its data members and write
        it in place, which clears a fault mark on the parity member."""
        store, nd = self.store, self.geometry.ndata_disks
        if any(stripe * nd + i in store._bad for i in range(nd)):
            raise self._double_failure(stripe)
        store.count(store.reads, stripe * nd, nd)
        where = store.stripe(stripe)
        self.parity_disk.write_block(
            stripe, store._zero if where is None else _fold(where[0]).tobytes())

    def bad_blocks(self) -> List:
        """Every injected media error: (disk_index, stripe) pairs, sorted
        (parity disk reported as disk_index -1, last)."""
        store, nd = self.store, self.geometry.ndata_disks
        cells = sorted(store._bad)
        return sorted((cell % nd, cell // nd) for cell in cells if cell < store.nblocks) + [
            (-1, cell - store.nblocks) for cell in cells if cell >= store.nblocks]


__all__ = ["RaidGroup", "run_nbytes", "split_run"]
