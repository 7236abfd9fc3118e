"""Block buffer cache.

The paper's filer has 512 MB of RAM; metadata (directories, inode-file
blocks, indirect blocks) that is touched repeatedly stays resident, so
only *cold* reads cost disk time.  :class:`BlockCache` is an LRU over
volume blocks that the :class:`~repro.raid.volume.RaidVolume` consults
before going to the RAID groups — a cache hit produces no I/O-recorder
event and therefore no simulated disk time.

It keeps *residency*, not bytes.  The simulated disks are themselves
memory (each RAID group's :class:`~repro.storage.disk.StripeStore`), so
a second copy of a block here would buy nothing: the cache answers only
"would this read have gone to the device?" — hit or miss, LRU order,
evictions: all the timing model ever sees — and the volume serves hit
and miss alike from the stripe stores.

The cache is deliberately attached at the volume layer: both the file
system and any engine reading through it benefit, while image dump —
which the paper notes bypasses the file system — can simply run against
an uncached handle (see ``RaidVolume.uncached_reads``).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.obs.metrics import REGISTRY


class BlockCache:
    """An LRU set of resident block numbers, oldest first."""

    def __init__(self, capacity_blocks: int = 4096):
        if capacity_blocks <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity_blocks
        self._blocks: "OrderedDict[int, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, vbn: int) -> bool:
        """Whether ``vbn`` is resident: :meth:`get_run` of one block."""
        return self.get_run(vbn, 1)

    def put(self, vbn: int) -> None:
        self.put_run(vbn, 1)

    # -- bulk (run) operations -------------------------------------------

    def get_run(self, start_vbn: int, nblocks: int) -> bool:
        """Whether the whole run is resident.

        A hit counts (and moves to the fresh end of the LRU) every block;
        a run with any cold block is one counted miss and refreshes
        nothing — the caller goes to the device for all of it and passes
        what it read to :meth:`put_run`.  Nine lookups in ten are one
        block, which is the same rule without the loops.
        """
        blocks = self._blocks
        if nblocks == 1:
            if start_vbn not in blocks:
                self.misses += 1
                if REGISTRY.enabled:
                    REGISTRY.counter("cache.misses").inc()
                return False
            blocks.move_to_end(start_vbn)
        else:
            run = range(start_vbn, start_vbn + nblocks)
            for vbn in run:
                if vbn not in blocks:
                    self.misses += 1
                    if REGISTRY.enabled:
                        REGISTRY.counter("cache.run_misses").inc()
                    return False
            move = blocks.move_to_end
            for vbn in run:
                move(vbn)
        self.hits += nblocks
        if REGISTRY.enabled:
            REGISTRY.counter("cache.hits").inc(nblocks)
        return True

    def put_run(self, start_vbn: int, nblocks: int) -> None:
        """Make a run of blocks resident, in ascending order; the oldest
        entries are evicted once the run is in.  Of a run longer than the
        cache only the last ``capacity`` blocks can survive that
        eviction, so only they go in."""
        blocks = self._blocks
        skip = nblocks - self.capacity
        if skip > 0:
            # What the plain loop would evict: every earlier entry outside
            # the run (ones inside it are refreshed, not evicted) and the
            # run's own head.
            end_vbn = start_vbn + nblocks
            inside = sum(1 for vbn in blocks if start_vbn <= vbn < end_vbn)
            self.evictions += len(blocks) - inside + skip
            blocks.clear()
            start_vbn += skip
            nblocks = self.capacity
        move = blocks.move_to_end
        for vbn in range(start_vbn, start_vbn + nblocks):
            blocks[vbn] = None
            move(vbn)
        while len(blocks) > self.capacity:
            blocks.popitem(last=False)
            self.evictions += 1

    def clone(self) -> "BlockCache":
        """A copy with identical residency, LRU order, and statistics."""
        other = BlockCache.__new__(BlockCache)
        other.capacity = self.capacity
        other._blocks = self._blocks.copy()
        other.hits = self.hits
        other.misses = self.misses
        other.evictions = self.evictions
        return other

    def clear(self) -> None:
        self._blocks.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._blocks)


__all__ = ["BlockCache"]
