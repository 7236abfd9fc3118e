"""Tape subsystem: cartridges, drives, stackers, and the DLT-7000 model.

The data plane (:class:`TapeCartridge`, :class:`TapeDrive`) is byte
faithful — the dump stream written during a backup is the exact stream a
restore later reads, including spans across cartridge boundaries handled by
a :class:`TapeStacker` — and holds each byte once: a cartridge keeps the
immutable records it was handed, not a buffer they were copied into.  A
record is ``bytes``, or a read-only ``memoryview``: most of either
dump's file or volume blocks are views of the stripe chunks it froze,
shared with the volume it read them from until the volume writes them
(:meth:`RaidVolume.freeze`).  Both restores read the records in place
(:meth:`TapeDrive.read_view`).  The timing plane (:class:`TapeModel`) is a
streaming-rate model with per-record overhead and load/rewind latencies,
matching how a DLT-7000 behaves when it is kept streaming.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator, List, Optional

from repro.errors import TapeError
from repro.obs.metrics import REGISTRY
from repro.units import GB, KB, MB


class TapeCartridge:
    """A single removable tape: an append-only byte stream with capacity.

    The stream is kept as the records it was written in, by reference,
    plus their start offsets.  A record is ``bytes`` or a read-only
    ``memoryview`` (of a frozen stripe chunk, which nothing writes
    again, or of ``bytes``); any other buffer is copied into ``bytes``.
    Each part of a list write is a record of its own: a logical dump
    record's header and parts, an image chunk's header and pieces.
    :meth:`read_at` returns ``bytes`` — at a ``bytes`` record's own
    boundaries, the object written — and :meth:`views_at` the records
    themselves, or read-only views into them, with no copy; a verified
    replay shares its records with the media.
    """

    def __init__(self, capacity: int = 35 * GB, label: str = ""):
        if capacity <= 0:
            raise TapeError("cartridge capacity must be positive")
        self.capacity = capacity
        self.label = label
        self._records: list = []
        self._starts: List[int] = []
        self.used = 0
        self.write_protected = False

    @property
    def remaining(self) -> int:
        return self.capacity - self.used

    def append(self, chunk) -> None:
        size = len(chunk)
        if self.write_protected:
            raise TapeError("cartridge %r is write protected" % (self.label,))
        if self.used + size > self.capacity:
            raise TapeError("end of tape on cartridge %r" % (self.label,))
        if size:
            if not (isinstance(chunk, bytes) or (
                    isinstance(chunk, memoryview) and chunk.readonly
                    and chunk.format == "B")):
                chunk = bytes(chunk)
            self._records.append(chunk)
            self._starts.append(self.used)
            self.used += size

    def erase(self) -> None:
        if self.write_protected:
            raise TapeError("cartridge %r is write protected" % (self.label,))
        self._records = []
        self._starts = []
        self.used = 0

    def records(self) -> Iterator:
        """The whole stream, in order, as the records that hold it
        (``bytes`` and read-only views)."""
        return iter(self._records)

    def _span(self, offset: int, nbytes: int):
        """``(index, record, lo, hi)`` for each record that holds part of
        ``[offset, offset + nbytes)``: the part is ``record[lo:hi]``."""
        end = offset + nbytes
        if offset < 0 or nbytes < 0 or end > self.used:
            raise TapeError("bytes [%d, %d) are not on cartridge %r (%d used)"
                            % (offset, end, self.label, self.used))
        index = bisect_right(self._starts, offset) - 1
        while offset < end:
            record = self._records[index]
            lo = offset - self._starts[index]
            hi = min(len(record), lo + end - offset)
            yield index, record, lo, hi
            offset += hi - lo
            index += 1

    def read_at(self, offset: int, nbytes: int) -> bytes:
        """``nbytes`` of the stream from ``offset``, as ``bytes``: a copy
        of :meth:`views_at`, except that a read of exactly one ``bytes``
        record is that record."""
        views = self.views_at(offset, nbytes)
        if len(views) == 1 and isinstance(views[0], bytes):
            return views[0]
        return b"".join(views)

    def views_at(self, offset: int, nbytes: int) -> list:
        """``nbytes`` of the stream from ``offset`` as the records that
        hold them, in order: a whole record as it was written, a part of
        one as a read-only view of it.  Nothing is copied."""
        return [record if hi - lo == len(record)
                else memoryview(record)[lo:hi]
                for _index, record, lo, hi in self._span(offset, nbytes)]

    def overwrite(self, offset: int, data) -> None:
        """Replace ``len(data)`` recorded bytes from ``offset`` in place:
        media damage (fault injection and tests), not a drive write — it
        ignores write protection and cannot extend the stream.  Only the
        records it touches are rebuilt; sharers keep the old ones."""
        data = bytes(data)
        done = 0
        for index, record, lo, hi in self._span(offset, len(data)):
            self._records[index] = b"".join(
                (record[:lo], data[done : done + hi - lo], record[hi:]))
            done += hi - lo

    def adopt(self, other: "TapeCartridge") -> None:
        """Become a copy of ``other``'s stream, sharing its records."""
        self._records = list(other._records)
        self._starts = list(other._starts)
        self.used = other.used

    def starts_with(self, other: "TapeCartridge") -> bool:
        """Whether ``other``'s whole stream is a prefix of this one,
        compared record by record as ``bytes`` (a view's ``==`` compares
        item by item), with no whole-cartridge copy."""
        return other.used <= self.used and all(
            self.read_at(start, len(record)) == bytes(record)
            for start, record in zip(other._starts, other._records))


class TapeStacker:
    """A magazine of cartridges with automatic sequential loading."""

    def __init__(self, cartridges: Optional[List[TapeCartridge]] = None, name: str = ""):
        self.name = name
        self.cartridges: List[TapeCartridge] = list(cartridges or [])
        self.next_slot = 0

    @classmethod
    def with_blank_tapes(
        cls, count: int, capacity: int = 35 * GB, name: str = ""
    ) -> "TapeStacker":
        tapes = [
            TapeCartridge(capacity=capacity, label="%s/slot%d" % (name, i))
            for i in range(count)
        ]
        return cls(tapes, name=name)

    def load_next(self) -> TapeCartridge:
        if self.next_slot >= len(self.cartridges):
            raise TapeError("stacker %r is out of cartridges" % (self.name,))
        cartridge = self.cartridges[self.next_slot]
        self.next_slot += 1
        return cartridge

    def rewind_magazine(self) -> None:
        """Reset to the first slot (used before a restore pass)."""
        self.next_slot = 0


class TapeDrive:
    """One tape drive: sequential write/read over stacker-fed cartridges.

    Writes append to the loaded cartridge, spilling onto the next cartridge
    at end-of-tape.  Reads consume the same logical byte stream in order.
    ``media_changes`` counts cartridge swaps so the timing layer can charge
    the (large) change latency.
    """

    def __init__(self, stacker: TapeStacker, name: str = ""):
        self.stacker = stacker
        self.name = name or stacker.name
        self.loaded: Optional[TapeCartridge] = None
        self.read_cartridge_index = 0
        self.read_offset = 0
        self.media_changes = 0
        self.bytes_written = 0
        self.bytes_read = 0

    # -- writing ---------------------------------------------------------

    def _ensure_loaded(self) -> TapeCartridge:
        if self.loaded is None:
            self.loaded = self.stacker.load_next()
            # Only swaps count: the first cartridge is loaded before the
            # job starts (the operator readied the drive).
            if self.stacker.next_slot > 1:
                self.media_changes += 1
        return self.loaded

    def write(self, chunk) -> int:
        """Append ``chunk`` — a buffer, or a list of buffers written as
        their join would be, each kept as a record of its own — spanning
        cartridges as needed.

        Returns the number of cartridge changes this write caused (for the
        timing layer).
        """
        changes_before = self.media_changes
        nbytes = 0
        for piece in (chunk if isinstance(chunk, list) else [chunk]):
            nbytes += len(piece)
            cartridge = self._ensure_loaded()
            if len(piece) <= cartridge.remaining:
                # Fast path: the whole piece fits on the loaded cartridge.
                cartridge.append(piece)
                continue
            # Spilled parts of a bytes or read-only piece are views of it.
            view = memoryview(piece)
            while len(view):
                cartridge = self._ensure_loaded()
                space = cartridge.remaining
                if space == 0:
                    self.loaded = None
                    continue
                take = min(space, len(view))
                cartridge.append(view[:take])
                view = view[take:]
        self.bytes_written += nbytes
        changes = self.media_changes - changes_before
        if REGISTRY.enabled:
            REGISTRY.counter("tape.write_bytes").inc(nbytes)
            REGISTRY.counter("tape.writes").inc()
            if changes:
                REGISTRY.counter("tape.media_changes").inc(changes)
        return changes

    # -- reading ---------------------------------------------------------

    def rewind(self) -> None:
        """Return to the beginning of the first cartridge for reading."""
        self.stacker.rewind_magazine()
        self.read_cartridge_index = 0
        self.read_offset = 0
        self.loaded = None

    def _spans(self, nbytes: int):
        """``(cartridge, offset, nbytes)`` for each cartridge the next
        ``nbytes`` of the logical stream lie on, in order, moving the
        read position past them (a cartridge change as it is reached);
        the read counts once the last is taken.

        Raises :class:`TapeError` if the stream ends early.
        """
        if REGISTRY.enabled:
            REGISTRY.counter("tape.read_bytes").inc(nbytes)
            REGISTRY.counter("tape.reads").inc()
        got = 0
        while got < nbytes:
            if self.read_cartridge_index >= len(self.stacker.cartridges):
                raise TapeError(
                    "read past end of data on drive %r (wanted %d, got %d)"
                    % (self.name, nbytes, got)
                )
            cartridge = self.stacker.cartridges[self.read_cartridge_index]
            available = cartridge.used - self.read_offset
            if available <= 0:
                self.read_cartridge_index += 1
                self.read_offset = 0
                self.media_changes += 1
                continue
            take = min(available, nbytes - got)
            yield cartridge, self.read_offset, take
            self.read_offset += take
            got += take
        self.bytes_read += nbytes

    def read(self, nbytes: int) -> bytes:
        """Read the next ``nbytes`` of the logical stream, as ``bytes``.

        Raises :class:`TapeError` if the stream ends early.
        """
        parts = [cartridge.read_at(offset, take)
                 for cartridge, offset, take in self._spans(nbytes)]
        # One part (nearly every read) stays the object ``read_at`` gave.
        return parts[0] if len(parts) == 1 else b"".join(parts)

    def read_view(self, nbytes: int):
        """:meth:`read` in place: the next ``nbytes`` as the records that
        hold them (:meth:`TapeCartridge.views_at`) — one buffer, or a
        list of them where the read spans records.  Every buffer is
        read-only, so a reader may keep it as long as it likes; counts
        and media changes are :meth:`read`'s."""
        views = [view for cartridge, offset, take in self._spans(nbytes)
                 for view in cartridge.views_at(offset, take)]
        return views[0] if len(views) == 1 else views

    def stream_bytes(self) -> bytes:
        """The whole logical stream (used by verification helpers)."""
        return b"".join(record for cartridge in self.stacker.cartridges
                        for record in cartridge.records())


class TapeModel:
    """DLT-7000-class timing: streaming rate plus per-record overhead.

    ``rate`` is the sustained streaming rate with the drive's compression
    engine active on typical file data.  A drive that is kept streaming
    pays only the per-record gap; media changes cost ``change_time``.
    """

    def __init__(
        self,
        rate: float = 9.5 * MB,
        record_size: int = 60 * KB,
        record_gap: float = 0.00035,
        change_time: float = 60.0,
        restart_penalty: float = 0.12,
        restart_idle: float = 0.004,
    ):
        """``restart_penalty`` models the DLT's stop/reposition/restart
        ("shoe-shine") cycle: when the host fails to keep the drive
        streaming for more than ``restart_idle`` seconds, the next write
        pays the restart.  A smooth feeder (image dump) never triggers
        it; a bursty one (dump stalling on scattered reads or CPU) loses
        real throughput to it — one of the reasons the paper's logical
        dump lands below the drive's streaming rate even when "the tape
        is the bottleneck"."""
        if rate <= 0:
            raise TapeError("tape rate must be positive")
        self.rate = rate
        self.record_size = record_size
        self.record_gap = record_gap
        self.change_time = change_time
        self.restart_penalty = restart_penalty
        self.restart_idle = restart_idle
        self.last_busy_end = None

    def transfer_time(self, nbytes: int, media_changes: int = 0,
                      now: float = None, writing: bool = True) -> float:
        """Time to stream ``nbytes`` (either direction).

        Pass ``now`` (the simulation clock) to enable the streaming-gap
        restart penalty; it only applies while *writing* (a read that
        pauses simply stops — the host controls the pace; a paused write
        forces the drive to reposition before it can append).
        """
        if nbytes < 0:
            raise TapeError("negative transfer")
        records = max(1, (nbytes + self.record_size - 1) // self.record_size)
        total = nbytes / self.rate + records * self.record_gap
        total += media_changes * self.change_time
        if now is not None and writing:
            if (self.last_busy_end is not None
                    and now - self.last_busy_end > self.restart_idle):
                total += self.restart_penalty
            self.last_busy_end = now + total
        return total


__all__ = ["TapeCartridge", "TapeDrive", "TapeModel", "TapeStacker"]
