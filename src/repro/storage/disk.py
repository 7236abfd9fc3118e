"""Block-store data plane and disk timing model.

:class:`StripeStore` is the data plane: a sparse, byte-faithful store of
stripes — ``ndata`` data blocks each, plus one parity block under RAID —
with optional fault injection (unreadable blocks).  :class:`VirtualDisk`
is one disk of it: a standalone spindle (a one-column store of its own)
or one member of a RAID group (a column view of the group's store).

:class:`DiskModel` is the timing plane: given the *previous* head position
and the next request it returns a service time, distinguishing sequential
streaming from seeks.  This positional behaviour is the mechanism behind
the paper's central result — logical dump reads an aged file system in
inode order (scattered), physical dump reads the block map in physical
order (streaming) — so it is modeled explicitly rather than as a fixed
per-request latency.
"""

from __future__ import annotations

import copy
import struct
from typing import Dict, List, Optional, Set

import numpy as np

from repro.errors import StorageError
from repro.obs.metrics import REGISTRY
from repro.units import KB, MB

DEFAULT_BLOCK_SIZE = 4 * KB

# Data blocks per backing chunk: a chunk holds max(1, CHUNK_BLOCKS //
# ndata) whole stripes, their parity rows included — 256 KB of data at
# the default block size.  A chunk is what the store materializes
# (zero-filled) on a first non-zero write and what a clone copies on its
# first write, so resident memory follows the chunks touched, not the
# bytes written: the chunk has to stay small against the data a workload
# scatters.  64 was picked by a sweep (DESIGN.md decision 16) and is
# private to this module; the disk image does not record it.
CHUNK_BLOCKS = 64

# pack_chunks framing: (nblocks, non-zero block count), then that many
# uint64 block indices, then that many block_size rows.
_IMAGE_HEAD = struct.Struct("<QQ")
_IMAGE_INDEX = np.dtype("<u8")


class StripeStore:
    """``nstripes`` stripes of ``ndata`` data blocks (and, with
    ``parity``, one parity block each), stripe-major.

    A chunk is one numpy byte array: its data blocks in group-block order,
    shaped ``(stripes, ndata, block_size)``, then its parity rows
    ``(stripes, block_size)``.  A run of consecutive data blocks inside a
    chunk is one contiguous slice, and parity over a stripe range is one
    XOR-reduce over axis 1 (:meth:`rows`).  Chunks materialize on the
    first non-zero write; unmaterialized ranges read as zeros.

    A *cell* is one block of the store: data block ``b`` (stripe
    ``b // ndata``, column ``b % ndata``) is cell ``b``, the parity block
    of stripe ``s`` is cell ``nblocks + s``.  ``_bad`` holds unreadable
    cells; ``reads``/``writes`` count per column, parity last.  Clones
    share chunks and the fault set copy-on-write.
    """

    def __init__(self, nstripes: int, ndata: int, block_size: int, parity: bool):
        self.nstripes = nstripes
        self.ndata = ndata
        self.block_size = block_size
        self.nblocks = nstripes * ndata
        self.chunk_stripes = min(max(1, CHUNK_BLOCKS // ndata), nstripes)
        self.span = self.chunk_stripes * ndata
        self._chunk_bytes = self.chunk_stripes * (ndata + parity) * block_size
        # chunk index -> numpy byte array; indices shared with a clone
        # are copied private before either side writes them.
        self._chunks: Dict[int, np.ndarray] = {}
        self._shared: Set[int] = set()
        self._bad: Set[int] = set()
        self._bad_shared = False
        self.reads = [0] * (ndata + parity)
        self.writes = [0] * (ndata + parity)
        self._zero = bytes(block_size)
        self._zeros = bytes(self.span * block_size)
        self._word = np.uint64 if block_size % 8 == 0 else np.uint8
        self._word_cut = self.span * block_size // np.dtype(self._word).itemsize

    def writable(self, ci: int) -> np.ndarray:
        """Chunk ``ci``, materialized and private to this store."""
        chunk = self._chunks.get(ci)
        if chunk is None:
            chunk = self._chunks[ci] = np.zeros(self._chunk_bytes, np.uint8)
        elif ci in self._shared:
            chunk = self._chunks[ci] = chunk.copy()
            self._shared.discard(ci)
        return chunk

    def rows(self, chunk: np.ndarray):
        """``(data, parity)`` views of a chunk: ``(stripes, ndata, bs)``
        and ``(stripes, bs)`` (no rows when the store has no parity)."""
        cut = self.span * self.block_size
        return (chunk[:cut].reshape(self.chunk_stripes, self.ndata, -1),
                chunk[cut:].reshape(-1, self.block_size))

    def stripe(self, stripe: int, write: bool = False):
        """``(data columns, parity)`` views of one stripe, materialized and
        private for a ``write``; ``None`` for a read of an unmaterialized
        chunk."""
        bs, nd = self.block_size, self.ndata
        ci, row = divmod(stripe, self.chunk_stripes)
        chunk = self.writable(ci) if write else self._chunks.get(ci)
        if chunk is None:
            return None
        at, cut = row * nd * bs, (self.span + row) * bs
        return chunk[at : at + nd * bs].reshape(nd, bs), chunk[cut : cut + bs]

    def parity_errors(self, ci: int) -> List[int]:
        """Stripes of chunk ``ci`` whose parity row is not the XOR of their
        data rows: one XOR-reduce over the chunk, in 8-byte words where
        the block size allows, and one compare."""
        words = self._chunks[ci].view(self._word)
        cut, stripes = self._word_cut, self.chunk_stripes
        wrong = np.bitwise_xor.reduce(
            words[:cut].reshape(stripes, self.ndata, -1), axis=1)
        if wrong.tobytes() == words[cut:].tobytes():
            return []
        wrong ^= words[cut:].reshape(stripes, -1)
        return (np.flatnonzero(wrong.any(axis=1))
                + ci * self.chunk_stripes).tolist()

    def stripe_of(self, cell: int) -> int:
        return cell // self.ndata if cell < self.nblocks else cell - self.nblocks

    def private_bad(self) -> Set[int]:
        """The fault set, copied private first if a clone shares it."""
        if self._bad_shared:
            self._bad = set(self._bad)
            self._bad_shared = False
        return self._bad

    def unmark(self, cells: range) -> None:
        """Clear the fault marks of ``cells`` (a write's target)."""
        if self._bad and any(cell in cells for cell in self._bad):
            self._bad = {cell for cell in self._bad if cell not in cells}
            self._bad_shared = False

    def count(self, tally: List[int], first: int, nblocks: int) -> None:
        """Add data blocks ``[first, first + nblocks)`` to ``tally``,
        each to its column."""
        nd = self.ndata
        whole, rest = divmod(nblocks, nd)
        if whole:
            for column in range(nd):
                tally[column] += whole
        for block in range(first, first + rest):
            tally[block % nd] += 1

    def block(self, block: int) -> bytes:
        """Data block ``block``'s bytes, with nothing of the device."""
        ci, row = divmod(block, self.span)
        chunk = self._chunks.get(ci)
        if chunk is None:
            return self._zero
        bs = self.block_size
        return chunk[row * bs : (row + 1) * bs].tobytes()

    def spans(self, block: int, nblocks: int, out: list) -> None:
        """Append data blocks ``[block, block + nblocks)`` to ``out``,
        one buffer per chunk: a view of the live store (join it before
        anything writes), or zeros where no chunk is materialized."""
        bs, span = self.block_size, self.span
        while nblocks:
            ci, row = divmod(block, span)
            take = min(nblocks, span - row)
            chunk = self._chunks.get(ci)
            out.append(memoryview(self._zeros)[: take * bs] if chunk is None
                       else chunk[row * bs : (row + take) * bs])
            block += take
            nblocks -= take

    def clone(self) -> "StripeStore":
        """A copy-on-write copy: contents, fault set and counters as
        ``copy.deepcopy`` would give them, for a dict copy."""
        other = copy.copy(self)
        other._chunks = dict(self._chunks)
        self._shared.update(self._chunks)
        other._shared = set(self._chunks)
        self._bad_shared = other._bad_shared = True
        other.reads = list(self.reads)
        other.writes = list(self.writes)
        return other


class VirtualDisk:
    """A sparse in-memory block device: one column of a :class:`StripeStore`.

    ``VirtualDisk(nblocks)`` is a standalone disk over a one-column store
    of its own; a RAID group's members are views of the group's store
    (:meth:`member`), block ``b`` being stripe ``b``'s cell in the
    member's column.  A member's ``write_block`` is a raw write: it
    leaves parity alone.

    Unwritten blocks read back as zeros.  ``fail_block`` marks a block as
    unreadable to exercise RAID reconstruction and backup robustness
    paths.
    """

    def __init__(self, nblocks: int, block_size: int = DEFAULT_BLOCK_SIZE, name: str = ""):
        if nblocks <= 0:
            raise StorageError("disk needs at least one block")
        if block_size <= 0:
            raise StorageError("block size must be positive")
        self._bind(StripeStore(nblocks, 1, block_size, False), 0, name)

    @classmethod
    def member(cls, store: StripeStore, column: int, name: str) -> "VirtualDisk":
        """Column ``column`` of ``store`` (``store.ndata`` is parity)."""
        disk = cls.__new__(cls)
        disk._bind(store, column, name)
        return disk

    def _bind(self, store: StripeStore, column: int, name: str) -> None:
        self._store = store
        self._column = column
        self.name = name
        self.nblocks = store.nstripes
        self.block_size = store.block_size
        # Cell of block b: base + b * step.
        if column < store.ndata:
            self._base, self._step = column, store.ndata
        else:
            self._base, self._step = store.nblocks, 1

    reads = property(lambda self: self._store.reads[self._column])
    writes = property(lambda self: self._store.writes[self._column])

    @property
    def size_bytes(self) -> int:
        return self.nblocks * self.block_size

    def _check(self, block: int) -> None:
        if not 0 <= block < self.nblocks:
            raise StorageError(
                "block %d out of range on %r (nblocks=%d)"
                % (block, self.name, self.nblocks)
            )

    def _cells(self, start: int, end: int) -> range:
        step = self._step
        return range(self._base + start * step, self._base + end * step, step)

    def _rows(self, chunk: np.ndarray) -> np.ndarray:
        """This disk's ``(stripes, block_size)`` rows of a chunk."""
        data, parity = self._store.rows(chunk)
        if self._column < self._store.ndata:
            return data[:, self._column]
        return parity

    def block(self, block: int) -> bytes:
        """The store's bytes of ``block`` (zeros if never written), with
        nothing of the device about it."""
        ci, row = divmod(block, self._store.chunk_stripes)
        chunk = self._store._chunks.get(ci)
        if chunk is None:
            return self._store._zero
        return self._rows(chunk)[row].tobytes()

    def read_block(self, block: int) -> bytes:
        """Return the 4 KB contents of ``block`` (zeros if never written)."""
        return self.read_run(block, 1)

    def write_block(self, block: int, data) -> None:
        """Write one block from any bytes-like ``data``."""
        if len(data) != self.block_size:
            raise StorageError(
                "short write: %d bytes to %d-byte block" % (len(data), self.block_size)
            )
        self.write_run(block, data)

    def read_run(self, start_block: int, nblocks: int) -> bytes:
        """Read ``nblocks`` contiguous blocks, joined: range check, fault
        check (raising before anything is counted), ``reads`` count."""
        if nblocks <= 0:
            raise StorageError("zero-length run read on %r" % self.name)
        self._check(start_block)
        self._check(start_block + nblocks - 1)
        store = self._store
        if store._bad:
            cells = self._cells(start_block, start_block + nblocks)
            bad = [cell for cell in store._bad if cell in cells]
            if bad:
                raise StorageError(
                    "media error reading block %d of %r"
                    % ((min(bad) - self._base) // self._step, self.name))
        store.reads[self._column] += nblocks
        if nblocks == 1:
            return self.block(start_block)
        pieces = []
        block, end, per = start_block, start_block + nblocks, store.chunk_stripes
        while block < end:
            ci, row = divmod(block, per)
            take = min(end - block, per - row)
            chunk = store._chunks.get(ci)
            pieces.append(bytes(take * self.block_size) if chunk is None
                          else self._rows(chunk)[row : row + take].tobytes())
            block += take
        return b"".join(pieces)

    def write_run(self, start_block: int, data) -> None:
        """Write contiguous blocks from one buffer (block-aligned), or
        from an ``ndarray`` of one ``block_size`` row per block."""
        bs = self.block_size
        flat = data if isinstance(data, np.ndarray) else np.frombuffer(data, np.uint8)
        if flat.size % bs:
            raise StorageError("run write is not block aligned")
        rows = flat.reshape(-1, bs)
        nblocks = len(rows)
        if nblocks == 0:
            return
        self._check(start_block)
        self._check(start_block + nblocks - 1)
        store = self._store
        store.writes[self._column] += nblocks
        end = start_block + nblocks
        store.unmark(self._cells(start_block, end))
        block, per = start_block, store.chunk_stripes
        while block < end:
            ci, row = divmod(block, per)
            take = min(end - block, per - row)
            piece = rows[block - start_block : block - start_block + take]
            # A zero block is the default: zeros into a virgin chunk stay
            # unmaterialized.
            if ci in store._chunks or piece.any():
                self._rows(store.writable(ci))[row : row + take] = piece
            block += take

    def is_allocated(self, block: int) -> bool:
        """True if the block holds non-zero data."""
        self._check(block)
        return self.block(block) != self._store._zero

    def _nonzero(self):
        """``(first block, rows, non-zero row indices)`` per chunk, ascending."""
        per = self._store.chunk_stripes
        for ci in sorted(self._store._chunks):
            rows = self._rows(self._store._chunks[ci])
            yield ci * per, rows, np.flatnonzero(rows.any(axis=1))

    def nonzero_blocks(self):
        """Yield ``(block, contents)`` for every non-zero block, ascending:
        the inspection surface of the store, exactly the blocks for which
        :meth:`is_allocated` is true."""
        for first, rows, nonzero in self._nonzero():
            for row in nonzero.tolist():
                yield first + row, rows[row].tobytes()

    def pack_chunks(self) -> bytes:
        """The disk image: the whole disk as one sparse-row byte string.

        ``(nblocks, count)``, then the ``count`` non-zero blocks' indices
        (uint64, ascending), then their ``count`` rows.  It is what
        container files and pickles both carry, and a function of the
        disk's *contents* alone: a block that was written and zeroed
        again packs like one never touched, and nothing in the image
        says how the store that wrote it was chunked or striped, so
        equal disks make equal bytes whatever their write or clone
        history and an image outlives any change of ``CHUNK_BLOCKS``.
        """
        indices, rows = [], []
        for first, chunk_rows, nonzero in self._nonzero():
            if nonzero.size:
                indices.append((nonzero + first).astype(_IMAGE_INDEX))
                rows.append(chunk_rows[nonzero])
        head = _IMAGE_HEAD.pack(self.nblocks, sum(map(len, indices)))
        return b"".join([head] + indices + rows)

    def unpack_chunks(self, payload: bytes) -> None:
        """Replace this disk's contents with a :meth:`pack_chunks` image.

        The image is checked, not trusted: anything but a well-formed
        image of a disk this size raises :class:`StorageError` and
        leaves the disk as it was.
        """
        bs = self.block_size
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
        store, per = self._store, self._store.chunk_stripes
        # Ascending indices: each chunk's blocks are one slice of them.
        owners, starts = np.unique(indices // per, return_index=True)
        image = dict(zip(owners.tolist(),
                         zip(starts.tolist(), starts[1:].tolist() + [count])))
        for ci in sorted(set(store._chunks) - set(image)):
            if self._rows(store._chunks[ci]).any():
                self._rows(store.writable(ci))[:] = 0
        for ci, (lo, hi) in image.items():
            column = self._rows(store.writable(ci))
            column[:] = 0
            column[indices[lo:hi].astype(np.intp) - ci * per] = rows[lo:hi]

    def fail_block(self, block: int) -> None:
        """Inject a media error: subsequent reads of ``block`` raise."""
        self._check(block)
        self._store.private_bad().add(self._base + block * self._step)

    def heal_block(self, block: int) -> None:
        self._check(block)
        if self._base + block * self._step in self._store._bad:
            self._store.private_bad().discard(self._base + block * self._step)

    def clone(self) -> "VirtualDisk":
        """A copy-on-write copy of this disk (of its whole store, for a
        RAID member): the state ``copy.deepcopy`` would give it —
        contents, fault set, I/O counters — sharing every materialized
        chunk until either side writes it."""
        return VirtualDisk.member(self._store.clone(), self._column, self.name)


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


__all__ = ["DEFAULT_BLOCK_SIZE", "DiskModel", "StripeStore", "VirtualDisk"]
