"""The 32-bit-per-block allocation map.

The paper: "WAFL's free block data structure contains 32 bits per block
... The live file system as well as each snapshot is allocated a bit plane
...; a block is free only when it is not marked as belonging to either the
live file system or any snapshot."

This module keeps that structure as ``uint32`` words (bit 0 = active
plane, bits 1..31 = snapshot planes) in fixed-size slabs, plus a
free-extent index that gives the write-anywhere allocator contiguous runs
efficiently.  The same bit planes drive incremental image dump: the set of
blocks to dump is the plane difference ``B − A`` (Table 1).
"""

from __future__ import annotations

import bisect
import heapq
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.errors import FilesystemError, NoSpaceError
from repro.wafl.consts import (
    ACTIVE_PLANE,
    BLOCKMAP_ENTRIES_PER_BLOCK,
    MAX_SNAPSHOT_PLANES,
)


# Words per slab: the unit the map holds, shares with a clone and copies
# on a write (a quarter megabyte of uint32), and the size of every
# whole-map kernel's temporaries however large the volume is.  A slab is a
# whole number of map fblocks, so no fblock straddles two slabs.
_SLAB_WORDS = 64 * BLOCKMAP_ENTRIES_PER_BLOCK

# What an absent slab reads as: one shared, read-only slab of zeros, as
# words and as bytes (the serialized run's zero pieces).
_ZERO_SLAB = np.zeros(_SLAB_WORDS, dtype="<u4")
_ZERO_SLAB.flags.writeable = False
_ZEROS = _ZERO_SLAB.view(np.uint8).data

_ACTIVE = np.uint32(1 << ACTIVE_PLANE)

# One-element slab masks: no block of the slab selected / every block.
_NOWHERE = np.zeros(1, dtype=bool)
_EVERYWHERE = np.ones(1, dtype=bool)


def runs_from_blocks(blocks: np.ndarray) -> List[Tuple[int, int]]:
    """Run-length encode a sorted block-number array into (start, count).

    The same edge-diff technique :meth:`BlockMap._rebuild_extents` uses:
    one ``np.diff`` finds every run boundary, so a batch of N blocks costs
    O(N) numpy work instead of N Python-level iterations.
    """
    values = np.asarray(blocks, dtype=np.int64)
    if values.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(values) != 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [values.size - 1]))
    return [(int(values[s]), int(e - s + 1)) for s, e in zip(starts, ends)]


def _by_slab(blocks: np.ndarray):
    """``(slab index, lo, hi)`` for each slab a sorted block array
    touches: ``blocks[lo:hi]`` are the blocks in that slab."""
    first = int(blocks[0]) // _SLAB_WORDS
    if first == int(blocks[-1]) // _SLAB_WORDS:
        return [(first, 0, blocks.size)]
    index = blocks // _SLAB_WORDS
    cuts = (np.flatnonzero(index[1:] != index[:-1]) + 1).tolist()
    return list(zip(index[[0] + cuts].tolist(), [0] + cuts,
                    cuts + [blocks.size]))


class BlockMap:
    """32 bit planes over the volume's data blocks plus a free-extent index.

    The words live in slabs of ``_SLAB_WORDS``, held in a dict the way
    the stripe store holds chunks: a slab is materialized on its first
    non-zero write and an absent slab is all zero, so a map costs the
    slabs that hold an allocated block, not four bytes per volume block.
    A clone shares every slab copy-on-write (:meth:`clone`).
    """

    def __init__(self, nblocks: int, reserved: int = 0):
        if nblocks <= reserved:
            raise FilesystemError("volume too small for its reserved area")
        self.nblocks = nblocks
        self.reserved = reserved
        # Slab index -> its words ("<u4", the on-disk word format, so a
        # run serializes as it lies; the last slab is only as long as the
        # map).  Indices shared with a clone are copied private before
        # either side writes them.
        self._slab_words: Dict[int, np.ndarray] = {}
        self._shared: Set[int] = set()
        # Free extents: sorted starts plus start -> length.  A fresh map
        # is one extent — written down, not scanned for.
        self._starts: List[int] = [reserved]
        self._lengths: Dict[int, int] = {reserved: nblocks - reserved}
        self.dirty_fblocks: Set[int] = set()
        # Min-heap mirror of dirty_fblocks (lazy deletion) so a
        # consistency point drains the set in ascending order without a
        # repeated O(n) min() scan — at paper scale the map has tens of
        # thousands of fblocks and that scan was quadratic.
        self._dirty_heap: List[int] = []
        # Blocks whose bits are clear but which the previous on-disk tree
        # still references: unavailable until the next consistency point
        # commits (see free_active / commit_deferred_reuse).
        self.reuse_excluded: Set[int] = set()
        self._free_count = nblocks - reserved
        self._active_count = 0
        # A consistency point must always be able to rewrite the dirty
        # meta-data, so ordinary allocations stop short of this floor.
        self.cp_reserve = min(
            max(64, 2 * self.n_fblocks() + 64),
            max(1, (nblocks - reserved) // 8),
        )

    # -- dirty-fblock tracking ----------------------------------------------

    def _dirty_add_many(self, fbns) -> None:
        """Add fblock numbers to the dirty set, mirroring them in the heap."""
        dirty = self.dirty_fblocks
        heap = self._dirty_heap
        push = heapq.heappush
        for fb in fbns:
            fb = int(fb)
            if fb not in dirty:
                dirty.add(fb)
                push(heap, fb)

    def mark_all_dirty(self) -> None:
        """Every fblock is dirty: ``format`` writes the whole map file out
        once, so it is fully allocated from then on.  Nothing else calls
        this — a snapshot operation dirties only the fblocks it changes
        (:meth:`_dirty_where`)."""
        n = self.n_fblocks()
        self.dirty_fblocks = set(range(n))
        self._dirty_heap = list(range(n))  # a sorted list is a heap

    def pop_dirty_run(self) -> Optional[Tuple[int, int]]:
        """Remove and return the lowest maximal run of consecutive dirty
        fblocks as ``(start, count)`` — None when clean.

        The start is ``min(dirty_fblocks)`` — including for fblocks
        dirtied between calls — via the heap mirror, whose stale entries
        (the run's direct discards below) are skipped lazily.  If the set
        was mutated directly (bypassing :meth:`_dirty_add_many`) the heap
        is rebuilt, so the ascending drain order is preserved regardless.
        The consistency point writes each run as extents.
        """
        dirty = self.dirty_fblocks
        heap = self._dirty_heap
        while True:
            if not heap:
                if not dirty:
                    return None
                heap[:] = dirty
                heapq.heapify(heap)
            start = heapq.heappop(heap)
            if start in dirty:
                break
        dirty.discard(start)
        stop = start + 1
        while stop in dirty:
            dirty.discard(stop)
            stop += 1
        return start, stop - start

    # -- slabs ----------------------------------------------------------------

    def _writable(self, index: int) -> np.ndarray:
        """Slab ``index``, materialized and private to this map: the one
        way to a slab's words for writing."""
        slab = self._slab_words.get(index)
        if slab is None:
            slab = self._slab_words[index] = np.zeros(
                min(_SLAB_WORDS, self.nblocks - index * _SLAB_WORDS),
                dtype="<u4")
        elif index in self._shared:
            slab = self._slab_words[index] = slab.copy()
            self._shared.discard(index)
        return slab

    def _slabs(self):
        """``(first block, words)`` per fixed-size slab of the whole map,
        an absent slab as a view of the read-only zero slab, so the
        whole-map kernels' temporaries are slab-sized whatever the volume
        size."""
        held = self._slab_words
        for lo in range(0, self.nblocks, _SLAB_WORDS):
            words = held.get(lo // _SLAB_WORDS)
            yield lo, (_ZERO_SLAB[: self.nblocks - lo] if words is None
                       else words)

    def held_slabs(self):
        """``(first block, read-only words)`` per materialized slab, in
        block order; every word outside them is zero."""
        for index in sorted(self._slab_words):
            words = self._slab_words[index].view()
            words.flags.writeable = False
            yield index * _SLAB_WORDS, words

    def words_at(self, blocks) -> np.ndarray:
        """The words of ``blocks`` (in-range block numbers, any order), in
        that order: one gather per slab they touch."""
        blocks = np.asarray(blocks, dtype=np.int64)
        order = np.argsort(blocks, kind="stable")
        out = np.empty(blocks.size, dtype="<u4")
        out[order] = self._gather(blocks[order])
        return out

    def _gather(self, blocks: np.ndarray, groups=None) -> np.ndarray:
        """The words of the sorted ``blocks`` (split by slab as
        ``groups``, :func:`_by_slab`, when the caller has them)."""
        out = np.zeros(blocks.size, dtype="<u4")
        if blocks.size:
            for index, lo, hi in groups or _by_slab(blocks):
                words = self._slab_words.get(index)
                if words is not None:
                    out[lo:hi] = words[blocks[lo:hi] - index * _SLAB_WORDS]
        return out

    # -- extent index -------------------------------------------------------

    def _runs_where(self, select) -> List[Tuple[int, int]]:
        """The maximal ``(start, count)`` block runs on which
        ``select(first block, words view)`` — a boolean mask per slab, or
        one element standing for the whole slab — holds: an edge diff per
        slab, the inside/outside state carried across each slab edge."""
        edges = [np.empty(0, dtype=np.int64)]  # run starts and ends, ascending
        inside = False
        for lo, words in self._slabs():
            mask = select(lo, words)
            if mask[0] != inside:
                edges.append([lo])
            edges.append(np.flatnonzero(mask[1:] != mask[:-1]) + (lo + 1))
            inside = mask[-1]
        if inside:
            edges.append([self.nblocks])
        bounds = np.concatenate(edges)
        return list(zip(bounds[0::2].tolist(),
                        (bounds[1::2] - bounds[0::2]).tolist()))

    def _rebuild_extents(self) -> None:
        """Recompute the free-extent index from the bit planes (all-used
        and all-free slabs cost one ``count_nonzero`` each)."""
        excluded = np.fromiter(self.reuse_excluded, dtype=np.int64,
                               count=len(self.reuse_excluded))
        excluded.sort()
        reserved = self.reserved

        def free(lo, words):
            hi = lo + words.size
            used = np.count_nonzero(words)
            first, last = np.searchsorted(excluded, (lo, hi))
            if used == words.size or hi <= reserved:
                return _NOWHERE
            if not used and first == last and lo >= reserved:
                return _EVERYWHERE
            mask = words == 0
            mask[: max(reserved - lo, 0)] = False
            mask[excluded[first:last] - lo] = False
            return mask

        self._lengths = dict(self._runs_where(free))
        self._starts = list(self._lengths)
        self._free_count = sum(self._lengths.values())

    def _extent_remove_range(self, start: int, count: int) -> None:
        """Carve ``[start, start+count)`` out of the free extent containing it."""
        index = bisect.bisect_right(self._starts, start) - 1
        if index < 0:
            raise FilesystemError("allocating a block that is not free")
        ext_start = self._starts[index]
        ext_len = self._lengths[ext_start]
        if start + count > ext_start + ext_len:
            raise FilesystemError("allocation crosses a used region")
        # Remove the extent and re-add surviving head/tail pieces.
        del self._starts[index]
        del self._lengths[ext_start]
        head = start - ext_start
        tail = (ext_start + ext_len) - (start + count)
        if head:
            bisect.insort(self._starts, ext_start)
            self._lengths[ext_start] = head
        if tail:
            tail_start = start + count
            bisect.insort(self._starts, tail_start)
            self._lengths[tail_start] = tail
        self._free_count -= count

    def _extent_add(self, start: int, count: int = 1) -> None:
        """Return ``[start, start+count)`` to the free index, merging neighbours."""
        added = count
        index = bisect.bisect_right(self._starts, start) - 1
        # Merge with the previous extent if adjacent.
        if index >= 0:
            prev_start = self._starts[index]
            prev_len = self._lengths[prev_start]
            if prev_start + prev_len == start:
                start, count = prev_start, prev_len + count
                del self._starts[index]
                del self._lengths[prev_start]
                index -= 1
        # Merge with the following extent if adjacent.
        next_index = index + 1
        if next_index < len(self._starts) and self._starts[next_index] == start + count:
            next_start = self._starts[next_index]
            count += self._lengths[next_start]
            del self._starts[next_index]
            del self._lengths[next_start]
        bisect.insort(self._starts, start)
        self._lengths[start] = count
        self._free_count += added

    # -- allocation -----------------------------------------------------------

    def free_blocks(self) -> int:
        return self._free_count

    def allocate_run(self, want: int, cursor: int,
                     allow_reserve: bool = False) -> Tuple[int, int]:
        """Allocate up to ``want`` contiguous blocks at or after ``cursor``.

        Write-anywhere policy: take the first free extent at/after the
        sweeping cursor, wrapping to the start of the volume when the tail
        is exhausted.  Returns ``(start, count)`` with ``count <= want``;
        callers loop for longer allocations.  The run is marked in the
        active plane.

        Ordinary allocations refuse to dip into the consistency-point
        reserve; a CP itself passes ``allow_reserve``.
        """
        if want <= 0:
            raise FilesystemError("allocation of %d blocks" % want)
        if not self._starts:
            raise NoSpaceError("file system is full")
        if not allow_reserve and self._free_count - min(
                want, self._free_count) < self.cp_reserve:
            raise NoSpaceError(
                "file system is full (consistency-point reserve)"
            )
        index = bisect.bisect_right(self._starts, cursor) - 1
        start: Optional[int] = None
        if index >= 0:
            ext_start = self._starts[index]
            ext_len = self._lengths[ext_start]
            if cursor < ext_start + ext_len:
                start = max(ext_start, cursor)
                available = ext_start + ext_len - start
        if start is None:
            # First extent after the cursor; wrap if none.
            next_index = index + 1
            if next_index >= len(self._starts):
                next_index = 0
            ext_start = self._starts[next_index]
            start = ext_start
            available = self._lengths[ext_start]
        count = min(want, available)
        self._extent_remove_range(start, count)
        block, end = start, start + count
        while block < end:
            index, at = divmod(block, _SLAB_WORDS)
            take = min(end - block, _SLAB_WORDS - at)
            words = self._slab_words.get(index)
            if words is None or index in self._shared:
                words = self._writable(index)
            words[at : at + take] |= _ACTIVE
            block += take
        self._active_count += count
        self._mark_dirty_range(start, count)
        return start, count

    def free_active(self, block: int, defer_reuse: bool = False) -> None:
        """Drop the active plane's claim.

        The block becomes allocatable only when no snapshot plane still
        holds it.  With ``defer_reuse`` the bit clears immediately (so this
        consistency point persists the free) but the block stays out of
        the allocator until :meth:`commit_deferred_reuse` — the previous
        on-disk tree still references it, and overwriting it before the
        next consistency point commits would corrupt crash recovery.
        """
        self._check(block)
        index, at = divmod(block, _SLAB_WORDS)
        words = self._slab_words.get(index)
        word = 0 if words is None else int(words[at])
        if not word & (1 << ACTIVE_PLANE):
            raise FilesystemError("double free of block %d" % block)
        word &= ~(1 << ACTIVE_PLANE)
        if index in self._shared:
            words = self._writable(index)
        words[at] = word
        self._active_count -= 1
        self._mark_dirty_range(block, 1)
        if word == 0:
            if defer_reuse:
                self.reuse_excluded.add(block)
            else:
                self._extent_add(block)

    def free_active_many(self, blocks, defer_reuse: bool = False) -> None:
        """Batched :meth:`free_active`: one numpy pass over many blocks.

        Bits clear vectorized; blocks whose words drop to zero either join
        the deferred-reuse set or return to the extent index as whole runs
        (edge-diff RLE), so freeing a large file costs O(runs) index
        updates instead of O(blocks) bisect/insort calls.
        """
        arr = np.sort(np.asarray(list(blocks), dtype=np.int64))
        if arr.size == 0:
            return
        if arr.size > 1:
            dup_mask = np.diff(arr) == 0
            if bool(dup_mask.any()):
                dup = arr[:-1][dup_mask][0]
                raise FilesystemError("double free of block %d" % int(dup))
        if int(arr[0]) < self.reserved or int(arr[-1]) >= self.nblocks:
            bad = arr[(arr < self.reserved) | (arr >= self.nblocks)][0]
            raise FilesystemError(
                "block %d outside the allocatable area" % int(bad))
        groups = _by_slab(arr)
        words = self._gather(arr, groups)
        missing = (words & _ACTIVE) == 0
        if bool(missing.any()):
            bad = arr[missing][0]
            raise FilesystemError("double free of block %d" % int(bad))
        words &= np.uint32(~(1 << ACTIVE_PLANE) & 0xFFFFFFFF)
        for index, lo, hi in groups:
            self._writable(index)[arr[lo:hi] - index * _SLAB_WORDS] = (
                words[lo:hi])
        self._active_count -= int(arr.size)
        self._dirty_add_many(np.unique(arr // BLOCKMAP_ENTRIES_PER_BLOCK))
        zeroed = arr[words == 0]
        if zeroed.size == 0:
            return
        if defer_reuse:
            self.reuse_excluded.update(int(b) for b in zeroed)
        else:
            for start, count in runs_from_blocks(zeroed):
                self._extent_add(start, count)

    def commit_deferred_reuse(self) -> int:
        """The consistency point committed: deferred blocks become allocatable.

        The deferred set is re-validated (a block re-claimed since the
        free keeps its word non-zero and stays out), then returned to the
        extent index as runs via the same numpy edge-diff RLE the index
        rebuild uses — the per-block insort loop this replaces was the
        hottest consistency-point path under fan-out.
        """
        if not self.reuse_excluded:
            return 0
        blocks = np.fromiter(self.reuse_excluded, dtype=np.int64,
                             count=len(self.reuse_excluded))
        blocks.sort()
        eligible = blocks[self._gather(blocks) == 0]
        self.reuse_excluded.clear()
        for start, count in runs_from_blocks(eligible):
            self._extent_add(start, count)
        return int(eligible.size)

    def set_active(self, block: int) -> None:
        """Claim a specific block for the active plane (used on remount/replay)."""
        self._check(block)
        index, at = divmod(block, _SLAB_WORDS)
        words = self._slab_words.get(index)
        word = 0 if words is None else int(words[at])
        if word & (1 << ACTIVE_PLANE):
            return
        if word == 0:
            if block in self.reuse_excluded:
                self.reuse_excluded.discard(block)
            else:
                self._extent_remove_range(block, 1)
        if words is None or index in self._shared:
            words = self._writable(index)
        words[at] = word | (1 << ACTIVE_PLANE)
        self._active_count += 1
        self._mark_dirty_range(block, 1)

    def _check(self, block: int) -> None:
        if not self.reserved <= block < self.nblocks:
            raise FilesystemError("block %d outside the allocatable area" % block)

    # -- plane operations -------------------------------------------------------

    def _check_plane(self, plane: int) -> None:
        if not 1 <= plane <= MAX_SNAPSHOT_PLANES:
            raise FilesystemError("invalid snapshot plane %d" % plane)

    def plane_in_use(self, plane: int) -> bool:
        self._check_plane(plane)
        mask = np.uint32(1 << plane)
        return any(bool((words & mask).any())
                   for words in self._slab_words.values())

    def _dirty_where(self, lo: int, words: np.ndarray, mask) -> bool:
        """Dirty exactly the fblocks of the slab at block ``lo`` in which
        a word of ``words`` holds a bit of ``mask`` — the words a plane
        operation changes.  False when it changes none there (one
        reduction, no write)."""
        per_fblock = np.bitwise_or.reduceat(
            words, np.arange(0, words.size, BLOCKMAP_ENTRIES_PER_BLOCK))
        held = np.flatnonzero(per_fblock & mask)
        self._dirty_add_many(
            (held + lo // BLOCKMAP_ENTRIES_PER_BLOCK).tolist())
        return bool(held.size)

    def snapshot_create(self, plane: int) -> None:
        """Copy the active plane into ``plane`` (the snapshot's bit plane)."""
        self._check_plane(plane)
        shift = np.uint32(plane - ACTIVE_PLANE)
        mask = np.uint32(1 << plane)
        for lo, words in self.held_slabs():   # an absent slab holds nothing
            if not np.bitwise_or.reduce(words) & _ACTIVE:
                continue  # no active block here: one reduction, no temporary
            # Active and not yet held by the plane: the bits that change.
            fresh = (words & _ACTIVE) << shift
            fresh &= ~words
            if self._dirty_where(lo, fresh, mask):
                words = self._writable(lo // _SLAB_WORDS)
                words |= fresh

    def snapshot_delete(self, plane: int) -> int:
        """Clear ``plane``; newly free blocks return to the extent index.

        Returns the number of blocks freed.
        """
        self._check_plane(plane)
        mask = np.uint32(1 << plane)
        keep = np.uint32(~(1 << plane) & 0xFFFFFFFF)
        freed_count = 0
        for lo, words in self.held_slabs():   # an absent slab holds nothing
            if self._dirty_where(lo, words, mask):
                # A block this plane alone held is free once the bit clears.
                freed_count += int(np.count_nonzero(words == mask))
                words = self._writable(lo // _SLAB_WORDS)
                words &= keep
        if freed_count:
            self._rebuild_extents()
        return freed_count

    def plane_blocks(self, plane: int) -> np.ndarray:
        """Sorted array of block numbers held by a plane (0 = active)."""
        if plane != ACTIVE_PLANE:
            self._check_plane(plane)
        mask = np.uint32(1 << plane)
        return self._select_blocks(lambda words: words & mask)

    def plane_difference(self, newer_plane: int, older_plane: int) -> np.ndarray:
        """Blocks in ``newer_plane`` but not ``older_plane`` (Table 1: B − A)."""
        newer = np.uint32(1 << newer_plane)
        older = np.uint32(1 << older_plane)
        return self._select_blocks(
            lambda words: ((words & newer) != 0) & ((words & older) == 0))

    def _select_blocks(self, select) -> np.ndarray:
        """Sorted block numbers whose word ``select(words)`` (per
        materialized slab) marks non-zero; an absent slab holds none."""
        parts = [np.empty(0, dtype=np.int64)]
        parts += [np.flatnonzero(select(words)) + lo
                  for lo, words in self.held_slabs()]
        return np.concatenate(parts)

    def mask_runs(self, mask) -> List[Tuple[int, int]]:
        """Blocks held by any plane in the bit ``mask``, as ``(start,
        count)`` runs — the run list physical dump selects from directly.

        At paper scale a plane holds tens of millions of blocks but only
        thousands of runs, so block selection never materializes a
        per-block array.
        """
        mask = np.uint32(mask)
        return self._runs_where(lambda _lo, words: (words & mask) != 0)

    def plane_runs(self, plane: int) -> List[Tuple[int, int]]:
        """A plane's blocks (0 = active) as ``(start, count)`` runs."""
        if plane != ACTIVE_PLANE:
            self._check_plane(plane)
        return self.mask_runs(1 << plane)

    def plane_difference_runs(self, newer_plane: int,
                              older_plane: int) -> List[Tuple[int, int]]:
        """``plane_difference`` as ``(start, count)`` runs."""
        newer = np.uint32(1 << newer_plane)
        older = np.uint32(1 << older_plane)
        return self._runs_where(
            lambda _lo, words: ((words & newer) != 0) & ((words & older) == 0))

    # -- persistence ------------------------------------------------------------

    def n_fblocks(self) -> int:
        """Number of 4 KB blocks the serialized map occupies."""
        return (self.nblocks + BLOCKMAP_ENTRIES_PER_BLOCK - 1) // BLOCKMAP_ENTRIES_PER_BLOCK

    def _mark_dirty_range(self, start: int, count: int) -> None:
        first = start // BLOCKMAP_ENTRIES_PER_BLOCK
        last = (start + count - 1) // BLOCKMAP_ENTRIES_PER_BLOCK
        self._dirty_add_many(range(first, last + 1))

    def serialize_fblock(self, fblock: int) -> bytes:
        return b"".join(self.serialize_fblock_run(fblock, 1))

    def serialize_fblock_run(self, fblock: int, count: int) -> List:
        """``count`` consecutive fblocks' bytes, as a list of buffers whose
        join is the run: what the volume's write path takes.

        A held slab's part of the run is a ``bytes`` copy, so no piece
        aliases a slab and the run is a snapshot that holds while the
        map changes under its own writes; an absent slab's part, and the
        zero padding of the map's final, partial fblock, are read-only
        views of the shared zero slab.  The run costs the held slabs it
        covers, not its length.
        """
        start = fblock * BLOCKMAP_ENTRIES_PER_BLOCK
        end = min(start + count * BLOCKMAP_ENTRIES_PER_BLOCK, self.nblocks)
        pad = (count * BLOCKMAP_ENTRIES_PER_BLOCK - (end - start)) * 4
        parts = []
        while start < end:
            index, at = divmod(start, _SLAB_WORDS)
            take = min(end - start, _SLAB_WORDS - at)
            words = self._slab_words.get(index)
            parts.append(_ZEROS[at * 4 : (at + take) * 4] if words is None
                         else words[at : at + take].tobytes())
            start += take
        if pad:
            parts.append(_ZEROS[:pad])
        return parts

    @classmethod
    def deserialize(cls, nblocks: int, reserved: int,
                    pieces: Iterable[Tuple[int, object]]) -> "BlockMap":
        """Rebuild a map from the block-map file's contents.

        ``pieces`` yields ``(first fblock, buffer)``: any buffers of
        little-endian words, in any order, a hole between them reading as
        zeros — ``[(0, raw)]`` for a whole file image, or the buffers
        ``mount`` reads the file's extents into.  Only slabs that receive
        a non-zero word are materialized; the buffers are copied, never
        kept.
        """
        blockmap = cls.__new__(cls)
        blockmap.nblocks = nblocks
        blockmap.reserved = reserved
        blockmap._slab_words = {}
        blockmap._shared = set()
        for fblock, buffer in pieces:
            start = fblock * BLOCKMAP_ENTRIES_PER_BLOCK
            words = np.frombuffer(buffer, dtype="<u4")
            words = words[: max(0, nblocks - start)]
            while words.size:
                index, at = divmod(start, _SLAB_WORDS)
                take = min(words.size, _SLAB_WORDS - at)
                if words[:take].any():
                    blockmap._writable(index)[at : at + take] = words[:take]
                words = words[take:]
                start += take
        blockmap.dirty_fblocks = set()
        blockmap._dirty_heap = []
        blockmap.reuse_excluded = set()
        blockmap._active_count = sum(
            int(np.count_nonzero(words & _ACTIVE))
            for words in blockmap._slab_words.values())
        blockmap.cp_reserve = min(
            max(64, 2 * blockmap.n_fblocks() + 64),
            max(1, (nblocks - reserved) // 8),
        )
        blockmap._rebuild_extents()
        return blockmap

    def clone(self) -> "BlockMap":
        """An independent copy of the whole map state, as
        ``copy.deepcopy`` would give it.

        The slabs are shared copy-on-write, as a stripe store's chunks
        are: both sides mark them ``_shared``, and the first write to a
        shared slab, from either side, copies it (:meth:`_writable`).  The
        extent index, dirty tracking and counters are container copies,
        so a clone costs the dict and those, not the words.
        """
        other = BlockMap.__new__(BlockMap)
        other.nblocks = self.nblocks
        other.reserved = self.reserved
        other._slab_words = dict(self._slab_words)
        self._shared.update(self._slab_words)
        other._shared = set(self._slab_words)
        other._starts = list(self._starts)
        other._lengths = dict(self._lengths)
        other.dirty_fblocks = set(self.dirty_fblocks)
        other._dirty_heap = list(self._dirty_heap)
        other.reuse_excluded = set(self.reuse_excluded)
        other._free_count = self._free_count
        other._active_count = self._active_count
        other.cp_reserve = self.cp_reserve
        return other

    # -- queries for fsck / stats -------------------------------------------------

    def active_block_count(self) -> int:
        # Maintained incrementally: a full scan of the word array is
        # O(nblocks) and statfs sits on benchmark hot paths at paper scale.
        return self._active_count

    def used_block_count(self) -> int:
        # Every zero word is reserved, in the free index, or awaiting
        # deferred reuse; everything else is used.
        return (self.nblocks - self.reserved - self._free_count
                - len(self.reuse_excluded))


__all__ = ["BlockMap", "runs_from_blocks"]
