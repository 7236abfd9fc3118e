"""Block-store data plane and disk timing model.

:class:`VirtualDisk` is the data plane: a sparse, byte-faithful block store
with optional fault injection (unreadable blocks), standing in for one
spindle (or, under RAID, one member disk).

:class:`DiskModel` is the timing plane: given the *previous* head position
and the next request it returns a service time, distinguishing sequential
streaming from seeks.  This positional behaviour is the mechanism behind
the paper's central result — logical dump reads an aged file system in
inode order (scattered), physical dump reads the block map in physical
order (streaming) — so it is modeled explicitly rather than as a fixed
per-request latency.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Set

import numpy as np

from repro.errors import StorageError
from repro.obs.metrics import REGISTRY
from repro.units import KB, MB

DEFAULT_BLOCK_SIZE = 4 * KB

# Blocks per backing chunk: 256 KB of contiguous store at the default
# block size.  A chunk is what the store materializes (zero-filled) on a
# first non-zero write and what a clone copies on its first write, so
# resident memory follows the chunks touched, not the bytes written: the
# chunk has to stay small against the data a workload scatters.  64 was
# picked by a sweep (DESIGN.md decision 16) and is private to this
# module; the disk image does not record it.
CHUNK_BLOCKS = 64

# pack_chunks framing: (nblocks, non-zero block count), then that many
# uint64 block indices, then that many block_size rows.
_IMAGE_HEAD = struct.Struct("<QQ")
_IMAGE_INDEX = np.dtype("<u8")


class VirtualDisk:
    """A sparse in-memory block device.

    The store is chunked: contiguous runs of ``CHUNK_BLOCKS`` blocks share
    one numpy byte array, materialized the first time non-zero data is
    written into the range.  Reads of unmaterialized ranges zero-fill the
    caller's buffer without allocating backing store, and run reads/writes
    are slice copies instead of per-block dict traffic.

    Unwritten blocks read back as zeros.  ``fail_block`` marks a block as
    unreadable to exercise RAID reconstruction and backup robustness
    paths.
    """

    def __init__(self, nblocks: int, block_size: int = DEFAULT_BLOCK_SIZE, name: str = ""):
        if nblocks <= 0:
            raise StorageError("disk needs at least one block")
        if block_size <= 0:
            raise StorageError("block size must be positive")
        self.nblocks = nblocks
        self.block_size = block_size
        self.name = name
        # chunk index -> writable memoryview over a numpy byte array of
        # chunk_blocks * block_size bytes.  Plain buffer slicing keeps the
        # per-call cost of scalar reads/writes at memcpy speed; numpy views
        # (np.frombuffer, zero-copy) serve the scans that need them.
        self._chunks: Dict[int, memoryview] = {}
        # A disk smaller than a chunk is one whole-disk chunk.
        self._chunk_blocks = min(CHUNK_BLOCKS, nblocks)
        # Chunk indices whose backing buffer is shared with a clone();
        # a write to a shared chunk copies it private first.
        self._shared: Set[int] = set()
        self._bad: Set[int] = set()
        # True while _bad is a buffer shared with a clone(); any mutation
        # copies it private first (the fault set is copy-on-write, exactly
        # like the chunk store).
        self._bad_shared = False
        self.reads = 0
        self.writes = 0
        self._zero = bytes(block_size)

    @property
    def size_bytes(self) -> int:
        return self.nblocks * self.block_size

    def _check(self, block: int) -> None:
        if not 0 <= block < self.nblocks:
            raise StorageError(
                "block %d out of range on %r (nblocks=%d)"
                % (block, self.name, self.nblocks)
            )

    def _materialize(self, chunk_index: int) -> memoryview:
        # numpy backing, memoryview interface: np.zeros is one calloc,
        # and the memoryview gives the hot paths plain buffer-slicing
        # semantics.
        chunk = memoryview(np.zeros(self._chunk_blocks * self.block_size,
                                    dtype=np.uint8))
        self._chunks[chunk_index] = chunk
        return chunk

    def _private(self, chunk_index: int, chunk: memoryview) -> memoryview:
        """Copy-on-first-write: replace a clone-shared chunk with a private
        copy before mutating it.  The other sharers keep the old buffer."""
        arr = np.frombuffer(chunk, dtype=np.uint8).copy()
        chunk = memoryview(arr)
        self._chunks[chunk_index] = chunk
        self._shared.discard(chunk_index)
        return chunk

    def _private_bad(self) -> Set[int]:
        """Copy-on-first-mutation for the fault set: a clone and its source
        share one set until either side injects, heals, or overwrites a
        fault."""
        if self._bad_shared:
            self._bad = set(self._bad)
            self._bad_shared = False
        return self._bad

    def block(self, block: int) -> bytes:
        """:meth:`gather` for one block, copied out: the store's bytes
        (zeros if never written), with nothing of the device about it."""
        cb = self._chunk_blocks
        chunk = self._chunks.get(block // cb)
        if chunk is None:
            return self._zero
        off = (block % cb) * self.block_size
        return bytes(chunk[off : off + self.block_size])

    def read_block(self, block: int) -> bytes:
        """Return the 4 KB contents of ``block`` (zeros if never written)."""
        self._check(block)
        if block in self._bad:
            raise StorageError("media error reading block %d of %r" % (block, self.name))
        self.reads += 1
        return self.block(block)

    def write_block(self, block: int, data) -> None:
        """Write one block from any bytes-like ``data`` (a view of the
        writer's buffer is copied once, into the chunk store)."""
        self._check(block)
        if len(data) != self.block_size:
            raise StorageError(
                "short write: %d bytes to %d-byte block" % (len(data), self.block_size)
            )
        self.writes += 1
        if self._bad and block in self._bad:
            self._private_bad().discard(block)
        cb = self._chunk_blocks
        ci = block // cb
        chunk = self._chunks.get(ci)
        if chunk is None:
            # Keep the store sparse: a zero block is the default.  Bytes
            # against bytes (``bytes()`` of bytes is the object itself): a
            # view against bytes compares element by element, hundreds of
            # times slower than copying it.
            if bytes(data) == self._zero:
                return
            chunk = self._materialize(ci)
        elif self._shared and ci in self._shared:
            chunk = self._private(ci, chunk)
        off = (block % cb) * self.block_size
        chunk[off : off + self.block_size] = data

    def _bad_in_range(self, start_block: int, end_block: int) -> Optional[int]:
        """Lowest bad block in [start, end), or None.  O(|bad|), not O(run)."""
        hits = [b for b in self._bad if start_block <= b < end_block]
        return min(hits) if hits else None

    def gather(self, start_block: int, nblocks: int, out: list,
               at: int = 0, step: int = 1) -> None:
        """Put one buffer per block of the run into ``out[at::step]``: a
        view of the chunk that holds the block, or the shared zero block
        where no chunk is materialized (``step`` is how a RAID group
        de-stripes: each member's column lands every ``step``-th slot;
        the slots must exist).

        This is the part of a read that is not the device — no copy, no
        range or fault check, no accounting — and so all a buffer-cache
        hit does.  The views alias the live store: join them before
        anything writes.
        """
        bs = self.block_size
        cb = self._chunk_blocks
        chunks = self._chunks
        if nblocks == 1:
            # One block — each column of a run shorter than its RAID
            # group's width is one — is one slot: no list to build.
            chunk = chunks.get(start_block // cb)
            off = start_block % cb * bs
            out[at] = self._zero if chunk is None else chunk[off : off + bs]
            return
        views: list = []
        block = start_block
        end = start_block + nblocks
        while block < end:
            ci = block // cb
            take = min(end, (ci + 1) * cb) - block
            chunk = chunks.get(ci)
            if chunk is None:
                views += [self._zero] * take
            else:
                src = (block - ci * cb) * bs
                views += [chunk[off : off + bs]
                          for off in range(src, src + take * bs, bs)]
            block += take
        out[at : at + (nblocks - 1) * step + 1 : step] = views

    def read_run(self, start_block: int, nblocks: int,
                 out: Optional[list] = None, at: int = 0,
                 step: int = 1) -> Optional[bytes]:
        """Read ``nblocks`` contiguous blocks: :meth:`gather` behind the
        device's range check, fault check and ``reads`` accounting.

        With ``out`` the blocks' buffers land in ``out[at::step]`` as
        :meth:`gather` leaves them; without, the run is returned joined.
        Raises before counting anything if any block in the range is bad,
        so callers can fall back to per-block reads (with reconstruction)
        and still observe the same ``reads`` accounting as the scalar
        path.
        """
        if nblocks <= 0:
            raise StorageError("zero-length run read on %r" % self.name)
        end = start_block + nblocks
        if start_block < 0 or end > self.nblocks:
            self._check(start_block)
            self._check(end - 1)
        if self._bad:
            bad = self._bad_in_range(start_block, end)
            if bad is not None:
                raise StorageError(
                    "media error reading block %d of %r" % (bad, self.name)
                )
        self.reads += nblocks
        if out is None:
            out = [None] * nblocks
            self.gather(start_block, nblocks, out)
            return b"".join(out)
        self.gather(start_block, nblocks, out, at, step)

    def write_run(self, start_block: int, data) -> None:
        """Write contiguous blocks from one buffer (block-aligned).

        An ``ndarray`` — a RAID column, one ``block_size`` row per block,
        strided through the writer's buffer — is copied row by row
        straight into the chunk store; anything else is a bytes-like
        buffer and goes in by plain slice assignment.
        """
        bs = self.block_size
        as_rows = isinstance(data, np.ndarray)
        view = None if as_rows else memoryview(data)
        nbytes = data.size if as_rows else view.nbytes
        if nbytes % bs:
            raise StorageError("run write is not block aligned")
        nblocks = nbytes // bs
        rows = data.reshape(nblocks, bs) if as_rows else None
        if nblocks == 0:
            return
        self._check(start_block)
        self._check(start_block + nblocks - 1)
        self.writes += nblocks
        end = start_block + nblocks
        if self._bad:
            self._bad = {b for b in self._bad if not start_block <= b < end}
            self._bad_shared = False
        chunks = self._chunks
        cb = self._chunk_blocks
        block = start_block
        while block < end:
            ci = block // cb
            cstart = ci * cb
            take = min(end, cstart + cb) - block
            done = block - start_block
            if rows is None:
                piece = view[done * bs : (done + take) * bs]
            else:
                piece = rows[done : done + take]
            chunk = chunks.get(ci)
            if chunk is None:
                # All-zero writes to virgin ranges stay unmaterialized:
                # a zero block is the default.
                if np.asarray(piece).any():
                    chunk = self._materialize(ci)
            elif self._shared and ci in self._shared:
                chunk = self._private(ci, chunk)
            if chunk is not None:
                dst = (block - cstart) * bs
                if rows is None:
                    chunk[dst : dst + take * bs] = piece
                else:
                    np.frombuffer(chunk, dtype=np.uint8, count=take * bs,
                                  offset=dst).reshape(take, bs)[...] = piece
            block += take

    def is_allocated(self, block: int) -> bool:
        """True if the block has ever been written with non-zero data."""
        self._check(block)
        cb = self._chunk_blocks
        chunk = self._chunks.get(block // cb)
        if chunk is None:
            return False
        off = (block % cb) * self.block_size
        return bool(
            np.frombuffer(chunk, dtype=np.uint8, count=self.block_size,
                          offset=off).any()
        )

    def nonzero_blocks(self):
        """Yield ``(block, contents)`` for every non-zero block, ascending.

        This is the persistence / inspection surface of the store: exactly
        the blocks for which :meth:`is_allocated` is true, without exposing
        the chunked backing representation.
        """
        bs = self.block_size
        cb = self._chunk_blocks
        for ci in sorted(self._chunks):
            rows = np.frombuffer(self._chunks[ci], dtype=np.uint8).reshape(cb, bs)
            for row in np.flatnonzero(rows.any(axis=1)):
                block = ci * cb + int(row)
                if block < self.nblocks:
                    yield block, rows[row].tobytes()

    def pack_chunks(self) -> bytes:
        """The disk image: the whole store as one sparse-row byte string.

        ``(nblocks, count)``, then the ``count`` non-zero blocks' indices
        (uint64, ascending), then their ``count`` rows.  It is what
        container files and pickles both carry, and a function of the
        disk's *contents* alone: a block that was written and zeroed
        again packs like one never touched, and nothing in the image
        says how the store that wrote it was chunked, so equal disks
        make equal bytes whatever their write or clone history and an
        image outlives any change of ``CHUNK_BLOCKS``.  Chunk-at-a-time
        and numpy-vectorized — orders of magnitude faster than iterating
        :meth:`nonzero_blocks` on a paper-scale disk.
        """
        bs = self.block_size
        cb = self._chunk_blocks
        indices, rows = [], []
        for ci in sorted(self._chunks):
            chunk = np.frombuffer(self._chunks[ci],
                                  dtype=np.uint8).reshape(-1, bs)
            nz = np.flatnonzero(chunk.any(axis=1))
            if nz.size:
                indices.append((nz + ci * cb).astype(_IMAGE_INDEX))
                rows.append(chunk[nz])
        head = _IMAGE_HEAD.pack(self.nblocks, sum(map(len, indices)))
        return b"".join([head] + indices + rows)

    def unpack_chunks(self, payload: bytes) -> None:
        """Replace this disk's contents with a :meth:`pack_chunks` image.

        The image is checked, not trusted: anything but a well-formed
        image of a disk this size raises :class:`StorageError` and
        leaves the disk as it was.
        """
        bs = self.block_size
        cb = self._chunk_blocks
        size = len(payload)

        def malformed(what: str) -> StorageError:
            return StorageError("disk image for %r: %s" % (self.name, what))

        if size < _IMAGE_HEAD.size:
            raise malformed("shorter than its header")
        nblocks, count = _IMAGE_HEAD.unpack_from(payload, 0)
        if nblocks != self.nblocks:
            raise malformed("is of a %d-block disk, not %d"
                            % (nblocks, self.nblocks))
        rows_at = _IMAGE_HEAD.size + count * _IMAGE_INDEX.itemsize
        if size != rows_at + count * bs:
            raise malformed("is %d bytes, not the %d its %d blocks take"
                            % (size, rows_at + count * bs, count))
        indices = np.frombuffer(payload, dtype=_IMAGE_INDEX, count=count,
                                offset=_IMAGE_HEAD.size)
        if count and (indices[-1] >= nblocks
                      or (indices[1:] <= indices[:-1]).any()):
            raise malformed("block indices are out of order or range")
        rows = np.frombuffer(payload, dtype=np.uint8, count=count * bs,
                             offset=rows_at).reshape(count, bs)
        chunks: Dict[int, memoryview] = {}
        # Ascending indices: each chunk's blocks are one slice of them.
        owners, starts = np.unique(indices // cb, return_index=True)
        for ci, lo, hi in zip(owners.tolist(), starts.tolist(),
                              starts[1:].tolist() + [count]):
            arr = np.zeros(cb * bs, dtype=np.uint8)
            arr.reshape(cb, bs)[indices[lo:hi] - ci * cb] = rows[lo:hi]
            chunks[ci] = memoryview(arr)
        self._chunks = chunks
        self._shared = set()

    def fail_block(self, block: int) -> None:
        """Inject a media error: subsequent reads of ``block`` raise."""
        self._check(block)
        self._private_bad().add(block)

    def heal_block(self, block: int) -> None:
        self._check(block)
        if block in self._bad:
            self._private_bad().discard(block)

    def clone_empty(self) -> "VirtualDisk":
        """A fresh disk of identical geometry."""
        return VirtualDisk(self.nblocks, self.block_size, name=self.name + "+clone")

    def clone(self) -> "VirtualDisk":
        """A copy-on-write copy of this disk.

        The clone observes exactly the state ``copy.deepcopy`` would give
        it (contents, fault set, I/O counters), but shares every
        materialized chunk buffer with the source: cloning a mostly-full
        paper-scale disk costs a dict copy, not a data copy.  The first
        write either side makes into a shared chunk copies that one chunk
        private (see :meth:`_private`); reads never copy.  Clones of
        clones share transitively — each disk tracks which of its chunk
        indices are shared and unshares them independently.
        """
        other = VirtualDisk.__new__(VirtualDisk)
        other.__dict__.update(self.__dict__)
        other._chunks = dict(self._chunks)
        # The fault set is shared copy-on-write too: either side's first
        # fail/heal/overwrite copies it private (see :meth:`_private_bad`),
        # so a fault injected in a clone never leaks to the parent.
        self._bad_shared = True
        other._bad_shared = True
        # Every materialized chunk is now shared between the two sides
        # (re-marking chunks already shared with an older clone is a
        # no-op: they were copy-protected before and stay so).
        self._shared.update(self._chunks)
        other._shared = set(self._chunks)
        return other


class DiskModel:
    """Service-time model for one RAID group's worth of spindles.

    A RAID group behaves like a single wide channel: a long contiguous
    request streams at ``ndisks * per_disk_stream``; a discontiguous
    request first pays an average seek plus half-rotation.  The model keeps
    the head position (`last_end`) so that sequentiality is judged against
    whatever actually ran last on this group — two interleaved dump jobs
    sharing a group therefore destroy each other's sequentiality, exactly
    the interference the paper observes for parallel logical dumps.

    Defaults approximate 1998-era 17 GB Fibre Channel drives.
    """

    def __init__(
        self,
        ndisks: int = 10,
        per_disk_stream: float = 6.0 * MB,
        seek_time: float = 0.0088,
        half_rotation: float = 0.003,
        near_seek_time: float = 0.0025,
        near_seek_window: int = 256,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ):
        if ndisks <= 0:
            raise StorageError("a RAID group needs at least one disk")
        self.ndisks = ndisks
        self.per_disk_stream = per_disk_stream
        self.seek_time = seek_time
        self.half_rotation = half_rotation
        self.near_seek_time = near_seek_time
        self.near_seek_window = near_seek_window
        self.block_size = block_size
        self.last_end: Optional[int] = None
        # Recent write-stream tail positions: concurrent sequential write
        # streams (parallel restores, CP stripe laying) each gather in the
        # write-back path, so continuing *any* recent stream is free.
        self.write_streams: List[int] = []
        self.max_write_streams = 8

    @property
    def stream_rate(self) -> float:
        """Aggregate streaming bandwidth in bytes/second."""
        return self.ndisks * self.per_disk_stream

    def positioning_time(self, start_block: int) -> float:
        """Time to position the heads for a request at ``start_block``."""
        if self.last_end is None:
            return self.seek_time + self.half_rotation
        delta = start_block - self.last_end
        if delta == 0:
            return 0.0
        if 0 < delta <= self.near_seek_window:
            # Short forward hop: track-to-track class movement.
            return self.near_seek_time
        return self.seek_time + self.half_rotation

    def service_time(self, start_block: int, nblocks: int,
                     kind: str = "read") -> float:
        """Return the service time of a request; advances the head.

        Writes with a short hop (either direction) are free of
        positioning cost: the write-anywhere allocator gathers ascending
        allocations into whole stripes, and a rewrite of a block written
        moments ago coalesces in the write-back buffer before the
        consistency point lays the stripe out.  Reads always pay for
        discontiguity — the head really is elsewhere.
        """
        if nblocks <= 0:
            raise StorageError("zero-length disk request")
        if kind == "write":
            position = self._write_positioning(start_block)
        else:
            position = self.positioning_time(start_block)
            self.last_end = start_block + nblocks
        transfer = nblocks * self.block_size / self.stream_rate
        if kind == "write":
            self._note_write_stream(start_block + nblocks)
        total = position + transfer
        if REGISTRY.enabled:
            REGISTRY.counter("disk.requests").inc()
            REGISTRY.counter("disk.%s_seconds" % kind).inc(total)
            if position:
                REGISTRY.counter("disk.seeks").inc()
        return total

    def narrow_service(self, start_block: int, nblocks: int) -> float:
        """Return the service time of a *narrow* read; advances the head.

        A read shorter than the group width keeps only ``nblocks`` spindles
        busy, so it transfers at ``per_disk_stream`` — not the aggregate
        ``stream_rate`` a wide request enjoys.  Positioning is judged (and
        the head advanced) exactly as for a wide read.
        """
        if nblocks <= 0:
            raise StorageError("zero-length disk request")
        service = self.positioning_time(start_block) + (
            nblocks * self.block_size / self.per_disk_stream
        )
        self.last_end = start_block + nblocks
        if REGISTRY.enabled:
            REGISTRY.counter("disk.requests").inc()
            REGISTRY.counter("disk.narrow_reads").inc()
        return service

    def _write_positioning(self, start_block: int) -> float:
        """Positioning charge for a write: free when continuing any
        recent write stream, one seek when opening a new stream."""
        for tail in self.write_streams:
            if abs(start_block - tail) <= self.near_seek_window:
                return 0.0
        return self.seek_time + self.half_rotation

    def _note_write_stream(self, end_block: int) -> None:
        for index, tail in enumerate(self.write_streams):
            if abs(end_block - tail) <= 2 * self.near_seek_window:
                self.write_streams[index] = end_block
                return
        self.write_streams.append(end_block)
        if len(self.write_streams) > self.max_write_streams:
            self.write_streams.pop(0)

    def reset_position(self) -> None:
        self.last_end = None
        self.write_streams = []


__all__ = ["DEFAULT_BLOCK_SIZE", "DiskModel", "VirtualDisk"]
