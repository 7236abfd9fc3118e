"""Streaming writer/reader for the dump format.

The writer is streaming-friendly: an inode's data is fed in 1 KB segments
and headers are emitted every 512 segments (TS_INODE first, TS_ADDR
continuations), so dump never buffers more than half a megabyte per file.

Internally both writer and reader carry segment *runs* — ``(nsegments,
buffer)`` pairs where the buffer covers a whole stretch of contiguous
present segments (``None`` marks a stretch of holes) — instead of one
Python object per kilobyte.  At paper scale a dump stream holds hundreds
of millions of segments; runs keep record assembly proportional to the
number of extents, not the number of kilobytes.  The emitted byte stream
is identical either way.

The reader assembles inode records back together and can *resync* after a
corrupted region by scanning forward for the next valid header — the
property behind the paper's observation that "a minor tape corruption
will usually affect only that single file".
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple

from repro.errors import FormatError
from repro.dumpfmt.records import (
    RecordHeader,
    TapeLabel,
    pack_inode_bitmap,
    unpack_inode_bitmap,
)
from repro.dumpfmt.spec import (
    HEADER_SIZE,
    SEGMENTS_PER_HEADER,
    SEGMENT_SIZE,
    TS_ACL,
    TS_ADDR,
    TS_BITS,
    TS_CLRI,
    TS_END,
    TS_INODE,
    TS_TAPE,
)

_ZERO_SEGMENT = bytes(SEGMENT_SIZE)

# A run is (nsegments, buffer-or-None).  A data run's buffer holds the
# segments back to back; only the final segment may be short (it is zero
# padded to SEGMENT_SIZE on emission, exactly as a per-segment ljust
# would).  A ``None`` buffer is a stretch of hole segments.
Run = Tuple[int, Optional[bytes]]


def segments_to_runs(segments: List[Optional[bytes]]) -> List[Run]:
    """Group a per-kilobyte segment list into runs.

    Every data segment must be exactly ``SEGMENT_SIZE`` bytes (the
    per-segment contract the byte format requires).
    """
    runs: List[Run] = []
    index = 0
    total = len(segments)
    while index < total:
        if segments[index] is None:
            end = index + 1
            while end < total and segments[end] is None:
                end += 1
            runs.append((end - index, None))
        else:
            end = index + 1
            while end < total and segments[end] is not None:
                end += 1
            for segment in segments[index:end]:
                if len(segment) != SEGMENT_SIZE:
                    raise FormatError("segment is not %d bytes" % SEGMENT_SIZE)
            runs.append((end - index, b"".join(segments[index:end])))
        index = end
    return runs


def runs_to_data(runs: List[Run], size: int) -> bytes:
    """Reassemble file contents from runs (holes read back as zeros)."""
    parts = []
    for count, buf in runs:
        if buf is None:
            parts.append(b"\0" * (count * SEGMENT_SIZE))
            continue
        pad = count * SEGMENT_SIZE - len(buf)
        parts.append(buf)
        if pad > 0:
            parts.append(b"\0" * pad)
    return b"".join(parts)[:size]


class DumpStreamWriter:
    """Emits a dump stream onto any ``write(bytes)`` sink."""

    def __init__(self, sink, date: int = 0, ddate: int = 0):
        self._sink = sink
        self.date = date
        self.ddate = ddate
        self.tapea = 0
        self.bytes_written = 0
        self.volume = 1
        self._pending_attrs: Optional[RecordHeader] = None
        # Pending inode payload as (buffer, offset, nbytes, nsegments)
        # quads; buffer None for hole runs.  Offsets let a run split at a
        # header boundary without copying.
        self._pending: List[Tuple[Optional[bytes], int, int, int]] = []
        self._pending_nsegs = 0
        self._pending_first = True

    # -- low level ---------------------------------------------------------

    def _emit(self, payload: bytes) -> None:
        self._sink.write(payload)
        self.bytes_written += len(payload)

    def _emit_record(self, header: RecordHeader,
                     runs: List[Tuple[Optional[bytes], int, int, int]]) -> None:
        header.date = self.date
        header.ddate = self.ddate
        header.volume = self.volume
        header.tapea = self.tapea
        self.tapea += 1
        # One buffer, one sink write per record: the sink (a tape drive) is
        # a plain byte stream, and per-segment writes were the hottest call
        # site in the dump path.
        segment_map: List[int] = []
        parts: List[bytes] = [b""]
        for buf, offset, nbytes, nsegs in runs:
            if buf is None:
                segment_map.extend([0] * nsegs)
                continue
            segment_map.extend([1] * nsegs)
            if offset == 0 and nbytes == len(buf):
                parts.append(buf)
            else:
                parts.append(memoryview(buf)[offset : offset + nbytes])
            pad = nsegs * SEGMENT_SIZE - nbytes
            if pad > 0:
                parts.append(_ZERO_SEGMENT[:pad] if pad < SEGMENT_SIZE
                             else b"\0" * pad)
        header.count = len(segment_map)
        header.segment_map = segment_map
        parts[0] = header.pack()
        self._emit(b"".join(parts))

    @staticmethod
    def _payload_runs(payload: bytes) -> List[Tuple[Optional[bytes], int, int, int]]:
        if not payload:
            return []
        nsegs = (len(payload) + SEGMENT_SIZE - 1) // SEGMENT_SIZE
        return [(payload, 0, len(payload), nsegs)]

    # -- stream structure -----------------------------------------------------

    def write_tape_header(self, label: TapeLabel) -> None:
        header = RecordHeader(TS_TAPE)
        payload = label.pack()
        header.size = len(payload)
        self._emit_record(header, self._payload_runs(payload))

    def write_clri(self, free_inos: Iterable[int], max_ino: int) -> None:
        header = RecordHeader(TS_CLRI)
        payload = pack_inode_bitmap(free_inos, max_ino)
        header.size = len(payload)
        self._emit_record(header, self._payload_runs(payload))

    def write_bits(self, dumped_inos: Iterable[int], max_ino: int) -> None:
        header = RecordHeader(TS_BITS)
        payload = pack_inode_bitmap(dumped_inos, max_ino)
        header.size = len(payload)
        self._emit_record(header, self._payload_runs(payload))

    def write_end(self) -> None:
        self._emit_record(RecordHeader(TS_END), [])

    # -- inode records (streaming) ------------------------------------------------

    def begin_inode(self, attrs: RecordHeader) -> None:
        """Start an inode record; feed segments, then :meth:`end_inode`."""
        if self._pending_attrs is not None:
            raise FormatError("previous inode record still open")
        attrs.type = TS_INODE
        self._pending_attrs = attrs
        self._pending = []
        self._pending_nsegs = 0
        self._pending_first = True

    def feed_data(self, data, nsegments: Optional[int] = None) -> None:
        """Feed one contiguous stretch of data segments from one buffer.

        ``data`` holds the segments back to back; only the final segment
        may be short of ``SEGMENT_SIZE`` (it is zero padded on emission).
        This is the bulk path: one call per extent, not per kilobyte.
        """
        if self._pending_attrs is None:
            raise FormatError("no inode record open")
        nbytes = len(data)
        if nsegments is None:
            nsegments = (nbytes + SEGMENT_SIZE - 1) // SEGMENT_SIZE
        if nsegments <= 0:
            return
        if not isinstance(data, bytes):
            data = bytes(data)
        if nbytes > nsegments * SEGMENT_SIZE:
            raise FormatError("data overflows %d segments" % nsegments)
        self._pending.append((data, 0, nbytes, nsegments))
        self._pending_nsegs += nsegments
        self._flush_full_batches()

    def feed_holes(self, count: int) -> None:
        """Feed ``count`` hole segments."""
        if self._pending_attrs is None:
            raise FormatError("no inode record open")
        if count <= 0:
            return
        self._pending.append((None, 0, 0, count))
        self._pending_nsegs += count
        self._flush_full_batches()

    def feed_segments(self, segments: List[Optional[bytes]]) -> None:
        """Feed a per-kilobyte segment list (compat shim over the run path)."""
        for count, buf in segments_to_runs(segments):
            if buf is None:
                self.feed_holes(count)
            else:
                self.feed_data(buf, count)

    def _flush_full_batches(self) -> None:
        while self._pending_nsegs >= SEGMENTS_PER_HEADER:
            batch: List[Tuple[Optional[bytes], int, int, int]] = []
            need = SEGMENTS_PER_HEADER
            while need > 0:
                buf, offset, nbytes, nsegs = self._pending[0]
                if nsegs <= need:
                    batch.append(self._pending.pop(0))
                    need -= nsegs
                    continue
                # Split the run at the header boundary.  Every consumed
                # segment is full (only a run's final segment may be
                # short, and it stays in the remainder).
                take_bytes = min(nbytes, need * SEGMENT_SIZE)
                batch.append((buf, offset, take_bytes, need))
                self._pending[0] = (buf, offset + take_bytes,
                                    nbytes - take_bytes, nsegs - need)
                need = 0
            self._pending_nsegs -= SEGMENTS_PER_HEADER
            self._flush_inode_batch(batch)

    def _flush_inode_batch(
            self, batch: List[Tuple[Optional[bytes], int, int, int]]) -> None:
        attrs = self._pending_attrs
        if self._pending_first:
            header = attrs
        else:
            header = RecordHeader(TS_ADDR, attrs.ino)
            header.size = attrs.size
            header.ftype = attrs.ftype
        header.type = TS_INODE if self._pending_first else TS_ADDR
        self._emit_record(header, batch)
        self._pending_first = False

    def end_inode(self) -> None:
        if self._pending_attrs is None:
            raise FormatError("no inode record open")
        if self._pending or self._pending_first:
            self._flush_inode_batch(self._pending)
        self._pending_attrs = None
        self._pending = []
        self._pending_nsegs = 0

    def write_acl(self, ino: int, acl: bytes) -> None:
        header = RecordHeader(TS_ACL, ino)
        header.size = len(acl)
        header.acl_length = len(acl)
        self._emit_record(header, self._payload_runs(acl))


class InodeEntry:
    """A fully assembled inode record from the stream, its data as runs."""

    def __init__(self, header: RecordHeader, runs: List[Run]):
        self.header = header
        self.runs = runs
        self.acl: bytes = b""

    @property
    def ino(self) -> int:
        return self.header.ino

    @property
    def data(self) -> bytes:
        return runs_to_data(self.runs, self.header.size)

    @property
    def total_segments(self) -> int:
        return sum(count for count, _buf in self.runs)


class DumpStreamReader:
    """Reads a dump stream from any ``read(n)`` source."""

    def __init__(self, source):
        self._source = source
        self.label: Optional[TapeLabel] = None
        self.clri_inos: Set[int] = set()
        self.bits_inos: Set[int] = set()
        self.date = 0
        self.ddate = 0
        self.resyncs = 0
        self._peeked: Optional[Tuple[RecordHeader, List[Run]]] = None

    # -- low level ----------------------------------------------------------

    def _read_runs(self, segment_map) -> List[Run]:
        """Read the data segments for one record, as runs.

        Contiguous present segments are fetched with a single source read
        and kept whole, instead of one Python object per kilobyte.
        """
        read = self._source.read
        runs: List[Run] = []
        total = len(segment_map)
        index = 0
        while index < total:
            if not segment_map[index]:
                end = index + 1
                while end < total and not segment_map[end]:
                    end += 1
                runs.append((end - index, None))
                index = end
                continue
            end = index + 1
            while end < total and segment_map[end]:
                end += 1
            blob = read((end - index) * SEGMENT_SIZE)
            # A truncated source yields a short (possibly empty) run, the
            # same as the per-segment reader saw.
            got = (len(blob) + SEGMENT_SIZE - 1) // SEGMENT_SIZE
            if got:
                runs.append((got, blob))
            index = end
        return runs

    def _read_record(self) -> Tuple[RecordHeader, List[Run]]:
        if self._peeked is not None:
            record, self._peeked = self._peeked, None
            return record
        raw = self._source.read(HEADER_SIZE)
        header = RecordHeader.unpack(raw)
        return header, self._read_runs(header.segment_map)

    def _read_record_resync(self) -> Tuple[RecordHeader, List[Run]]:
        """Like ``_read_record`` but scans past corruption to the next
        parseable header."""
        if self._peeked is not None:
            record, self._peeked = self._peeked, None
            return record
        while True:
            raw = self._source.read(HEADER_SIZE)
            try:
                header = RecordHeader.unpack(raw)
            except FormatError:
                self.resyncs += 1
                continue
            return header, self._read_runs(header.segment_map)

    def _payload(self, header: RecordHeader, runs: List[Run]) -> bytes:
        return runs_to_data(runs, header.size)

    # -- stream structure -------------------------------------------------------

    def read_preamble(self) -> TapeLabel:
        """Read TS_TAPE and the inode maps; returns the tape label."""
        header, runs = self._read_record()
        if header.type != TS_TAPE:
            raise FormatError("stream does not start with TS_TAPE")
        self.date = header.date
        self.ddate = header.ddate
        self.label = TapeLabel.unpack(self._payload(header, runs))
        header, runs = self._read_record()
        if header.type != TS_CLRI:
            raise FormatError("expected TS_CLRI after the tape header")
        self.clri_inos = unpack_inode_bitmap(self._payload(header, runs))
        header, runs = self._read_record()
        if header.type != TS_BITS:
            raise FormatError("expected TS_BITS after TS_CLRI")
        self.bits_inos = unpack_inode_bitmap(self._payload(header, runs))
        return self.label

    def next_inode(self, resync: bool = False) -> Optional[InodeEntry]:
        """The next assembled inode record, or None at TS_END.

        With ``resync`` the reader skips corrupted records, losing only
        the affected files.
        """
        read = self._read_record_resync if resync else self._read_record
        while True:
            try:
                header, runs = read()
            except FormatError:
                if not resync:
                    raise
                self.resyncs += 1
                continue
            if header.type == TS_END:
                return None
            if header.type != TS_INODE:
                if resync:
                    # Mid-stream TS_ADDR/TS_ACL without its TS_INODE: the
                    # owning record was corrupted; skip.
                    self.resyncs += 1
                    continue
                raise FormatError("unexpected record type %d" % header.type)
            entry = InodeEntry(header, list(runs))
            # Gather continuations and the optional ACL record.
            while True:
                try:
                    next_header, next_runs = read()
                except FormatError:
                    if not resync:
                        raise
                    self.resyncs += 1
                    return entry
                if next_header.type == TS_ADDR and next_header.ino == header.ino:
                    entry.runs.extend(next_runs)
                    continue
                if next_header.type == TS_ACL and next_header.ino == header.ino:
                    entry.acl = self._payload(next_header, next_runs)
                    continue
                self._peeked = (next_header, next_runs)
                return entry


__all__ = [
    "DumpStreamReader",
    "DumpStreamWriter",
    "InodeEntry",
    "runs_to_data",
    "segments_to_runs",
]
