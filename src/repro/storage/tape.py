"""Tape subsystem: cartridges, drives, stackers, and the DLT-7000 model.

The data plane (:class:`TapeCartridge`, :class:`TapeDrive`) is byte
faithful — the dump stream written during a backup is the exact stream a
restore later reads, including spans across cartridge boundaries handled by
a :class:`TapeStacker` — and holds each byte once: a cartridge keeps the
immutable records it was handed, not a buffer they were copied into.  The
timing plane (:class:`TapeModel`) is a streaming-rate model with per-record
overhead and load/rewind latencies, matching how a DLT-7000 behaves when it
is kept streaming.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator, List, Optional

from repro.errors import TapeError
from repro.obs.metrics import REGISTRY
from repro.units import GB, KB, MB


class TapeCartridge:
    """A single removable tape: an append-only byte stream with capacity.

    The stream is kept as the records it was written in — immutable
    ``bytes``, by reference — plus their start offsets: a write copies
    nothing, a read at a record's own boundaries returns the object
    written, and a verified replay shares its records with the media.
    """

    def __init__(self, capacity: int = 35 * GB, label: str = ""):
        if capacity <= 0:
            raise TapeError("cartridge capacity must be positive")
        self.capacity = capacity
        self.label = label
        self._records: List[bytes] = []
        self._starts: List[int] = []
        self.used = 0
        self.write_protected = False

    @property
    def remaining(self) -> int:
        return self.capacity - self.used

    def append(self, chunk) -> None:
        if self.write_protected:
            raise TapeError("cartridge %r is write protected" % (self.label,))
        if self.used + len(chunk) > self.capacity:
            raise TapeError("end of tape on cartridge %r" % (self.label,))
        if chunk:
            self._records.append(
                chunk if isinstance(chunk, bytes) else bytes(chunk))
            self._starts.append(self.used)
            self.used += len(chunk)

    def erase(self) -> None:
        if self.write_protected:
            raise TapeError("cartridge %r is write protected" % (self.label,))
        self._records = []
        self._starts = []
        self.used = 0

    def records(self) -> Iterator[bytes]:
        """The whole stream, in order, as the records that hold it."""
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
        """``nbytes`` of the stream from ``offset``.  A read that is
        exactly one record is that record, not a copy; one inside a
        record is a slice of it; only a read across records assembles."""
        spans = list(self._span(offset, nbytes))
        if len(spans) == 1:
            _index, record, lo, hi = spans[0]
            return record if hi - lo == len(record) else record[lo:hi]
        return b"".join([memoryview(record)[lo:hi]
                         for _index, record, lo, hi in spans])

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
        compared record by record with no whole-cartridge copy."""
        return other.used <= self.used and all(
            self.read_at(start, len(record)) == record
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

    def write(self, chunk: bytes) -> int:
        """Append ``chunk``, spanning cartridges as needed.

        Returns the number of cartridge changes this write caused (for the
        timing layer).
        """
        changes_before = self.media_changes
        cartridge = self._ensure_loaded()
        if len(chunk) <= cartridge.remaining:
            # Fast path: the whole chunk fits on the loaded cartridge.
            cartridge.append(chunk)
        else:
            view = memoryview(chunk)
            while len(view):
                cartridge = self._ensure_loaded()
                space = cartridge.remaining
                if space == 0:
                    self.loaded = None
                    continue
                take = min(space, len(view))
                cartridge.append(bytes(view[:take]))
                view = view[take:]
        self.bytes_written += len(chunk)
        changes = self.media_changes - changes_before
        if REGISTRY.enabled:
            REGISTRY.counter("tape.write_bytes").inc(len(chunk))
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

    def read(self, nbytes: int) -> bytes:
        """Read the next ``nbytes`` of the logical stream.

        Raises :class:`TapeError` if the stream ends early.
        """
        if REGISTRY.enabled:
            REGISTRY.counter("tape.read_bytes").inc(nbytes)
            REGISTRY.counter("tape.reads").inc()
        parts = []
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
            parts.append(cartridge.read_at(self.read_offset, take))
            self.read_offset += take
            got += take
        self.bytes_read += nbytes
        # One part (nearly every read) stays the object ``read_at`` gave.
        return parts[0] if len(parts) == 1 else b"".join(parts)

    def stream_length(self) -> int:
        """Total bytes recorded across all cartridges."""
        return sum(c.used for c in self.stacker.cartridges)

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
