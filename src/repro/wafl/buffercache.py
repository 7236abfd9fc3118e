"""Block buffer cache.

The paper's filer has 512 MB of RAM; metadata (directories, inode-file
blocks, indirect blocks) that is touched repeatedly stays resident, so
only *cold* reads cost disk time.  :class:`BlockCache` is an LRU over
volume blocks that the :class:`~repro.raid.volume.RaidVolume` consults
before going to the RAID groups — a cache hit produces no I/O-recorder
event and therefore no simulated disk time.

The cache is deliberately attached at the volume layer: both the file
system and any engine reading through it benefit, while image dump —
which the paper notes bypasses the file system — can simply run against
an uncached handle (see ``RaidVolume.uncached_reads``).

The paper also observes that generic read-ahead "may not help, and could
even hinder dump performance"; the cache therefore implements optional
sequential read-ahead whose benefit/penalty is an ablation benchmark.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.obs.metrics import REGISTRY


class BlockCache:
    """A simple LRU of block contents.

    Entries are either materialized ``bytes`` or lazy ``(buffer, offset,
    size)`` references into the immutable run buffer they arrived in (see
    :meth:`put_run`).  A lazy entry materializes on its first per-block
    hit; hit/miss counts, LRU order, and eviction accounting are identical
    either way — laziness only removes the per-block copy from the bulk
    insert path.
    """

    def __init__(self, capacity_blocks: int = 4096):
        if capacity_blocks <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity_blocks
        self._blocks: "OrderedDict[int, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, vbn: int) -> Optional[bytes]:
        """The cached block, or ``None`` (one counted miss) when cold.

        This is the one single-block lookup — :meth:`get_run` enters it
        for a one-block run.  A lazy entry materializes here; a hit moves
        the block to the fresh end of the LRU.
        """
        data = self._blocks.get(vbn)
        if data is None:
            self.misses += 1
            if REGISTRY.enabled:
                REGISTRY.counter("cache.misses").inc()
            return None
        if type(data) is tuple:
            buf, off, size = data
            data = bytes(buf[off : off + size])
            self._blocks[vbn] = data  # memoize; LRU position kept
        self._blocks.move_to_end(vbn)
        self.hits += 1
        if REGISTRY.enabled:
            REGISTRY.counter("cache.hits").inc()
        return data

    def put(self, vbn: int, data) -> None:
        self.put_run(vbn, data, len(data))

    # -- bulk (run) operations -------------------------------------------

    def get_run(self, start_vbn: int, nblocks: int, block_size: int):
        """The whole run's contents (bytes-like), or ``None`` if any
        block is cold.

        A hit counts (and refreshes LRU position for) every block; a run
        with any cold block is one miss — the caller falls back to the
        device path and :meth:`put_run`\\ s what it read.  Runs whose
        blocks are still lazy references into one contiguous buffer (the
        way :meth:`put_run` left them) come back as a single slice of it.
        """
        if nblocks == 1:
            return self.get(start_vbn)
        blocks = self._blocks
        probe = blocks.get
        entries = []
        append = entries.append
        for vbn in range(start_vbn, start_vbn + nblocks):
            entry = probe(vbn)
            if entry is None:
                self.misses += 1
                if REGISTRY.enabled:
                    REGISTRY.counter("cache.run_misses").inc()
                return None
            append(entry)
        first = entries[0]
        contiguous = type(first) is tuple
        if contiguous:
            buf0 = first[0]
            expected = first[1]
            for entry in entries:
                if (type(entry) is not tuple or entry[0] is not buf0
                        or entry[1] != expected):
                    contiguous = False
                    break
                expected += block_size
        move = blocks.move_to_end
        if contiguous:
            off0 = first[1]
            out = buf0[off0 : off0 + nblocks * block_size]
            for vbn in range(start_vbn, start_vbn + nblocks):
                move(vbn)
        else:
            out = bytearray(nblocks * block_size)
            offset = 0
            vbn = start_vbn
            for entry in entries:
                if type(entry) is tuple:
                    buf, off, size = entry
                    out[offset : offset + block_size] = buf[off : off + size]
                else:
                    out[offset : offset + block_size] = entry
                move(vbn)
                offset += block_size
                vbn += 1
        self.hits += nblocks
        if REGISTRY.enabled:
            REGISTRY.counter("cache.hits").inc(nblocks)
        return out

    def put_run(self, start_vbn: int, data, block_size: int,
                offset: int = 0, nblocks: Optional[int] = None) -> None:
        """Insert a run of blocks from ``data[offset:]`` (``nblocks`` of
        them; by default all the buffer holds).

        Blocks enter the LRU in ascending order and the oldest entries
        are evicted once the run is in.  Each block is stored as a lazy
        reference into the buffer: ``bytes`` is referenced where it lies
        (pass a large buffer with an offset, never a slice of it), anything
        else is snapshotted to immutable ``bytes`` once.  Of a run longer
        than the cache only the last ``capacity`` blocks can survive that
        eviction, so only they go in, from a copy of just that tail — the
        entries must not keep a buffer larger than the cache alive.
        """
        blocks = self._blocks
        if nblocks is None:
            nblocks = (len(data) - offset) // block_size
        skip = nblocks - self.capacity
        if skip > 0:
            # What the plain loop would evict: every earlier entry outside
            # the run (ones inside it are overwritten, not evicted) and
            # the run's own head.
            end_vbn = start_vbn + nblocks
            inside = sum(1 for vbn in blocks if start_vbn <= vbn < end_vbn)
            self.evictions += len(blocks) - inside + skip
            blocks.clear()
            start_vbn += skip
            offset += skip * block_size
            nblocks = self.capacity
        if skip > 0 or not isinstance(data, bytes):
            data = bytes(memoryview(data)[offset : offset + nblocks * block_size])
            offset = 0
        for vbn in range(start_vbn, start_vbn + nblocks):
            if vbn in blocks:
                blocks.move_to_end(vbn)
            blocks[vbn] = (data, offset, block_size)
            offset += block_size
        while len(blocks) > self.capacity:
            blocks.popitem(last=False)
            self.evictions += 1

    def clone(self) -> "BlockCache":
        """A copy with identical contents, LRU order, and statistics.

        Entries are immutable ``bytes`` or lazy ``(buffer, offset, size)``
        references into immutable buffers, so the two caches can share
        them; each side's in-place tuple→bytes memoization only touches
        its own dict.
        """
        other = BlockCache.__new__(BlockCache)
        other.capacity = self.capacity
        other._blocks = self._blocks.copy()
        other.hits = self.hits
        other.misses = self.misses
        other.evictions = self.evictions
        return other

    def invalidate(self, vbn: int) -> None:
        self._blocks.pop(vbn, None)

    def clear(self) -> None:
        self._blocks.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._blocks)


__all__ = ["BlockCache"]
