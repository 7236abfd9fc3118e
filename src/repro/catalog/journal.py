"""Append-only catalog journal: every catalog commit is one O(delta) line.

A commit never rewrites the whole JSON image — every set, every
cartridge — when a single dump lands: it is one fsync'd JSONL append.
Each record is a self-contained upsert (a backup set, a cartridge
record, a policy, or the id-counter metadata), so replaying the journal
over the last compacted image reproduces the live catalog exactly.  This is the same
move Lomet-style logical recovery makes: once state is resident, only
operation deltas need to reach the disk.

Crash safety
------------

* **Appends** are a single buffered write + flush + fsync under the
  catalog's :class:`~repro.catalog.lock.FileLock`.  A crash can only
  tear the *tail*: replay parses line by line and discards everything
  from the first incomplete or undecodable line onward, recovering the
  catalog as of the last durable record.
* **Compaction** writes the full image via fsync'd temp-then-rename
  *first* and truncates the journal *second*.  A crash between the two
  leaves a journal whose records are already folded into the image —
  and since every record is an idempotent upsert, replaying them again
  is harmless.

Records are JSON objects, one per line, compact separators, sorted
keys — the same canonical encoding on every writer, so serial and
parallel fleet runs produce byte-identical journals.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

#: Journal ops understood by :func:`replay` (anything else is rejected
#: at append time so a version skew fails loudly on the writer).  A
#: ``batch`` wraps one commit's upserts in a single line, so a torn
#: write can never surface part of a commit (a backup set without its
#: media allocation, say) — the whole line either parses or is
#: discarded.
OPS = ("set", "media", "policy", "meta", "batch")

#: Default compaction trigger: once a journal holds this many records,
#: the next commit folds it back into the image instead of appending.
COMPACT_AFTER = 512


def journal_path(catalog_path: str) -> str:
    return catalog_path + ".journal"


def encode_record(record: Dict) -> str:
    """One canonical JSONL line (no newline)."""
    if record.get("op") not in OPS:
        raise ValueError("journal record has unknown op %r"
                         % (record.get("op"),))
    if record["op"] == "batch":
        for sub in record.get("records", ()):
            if sub.get("op") not in OPS or sub["op"] == "batch":
                raise ValueError("batch may only hold plain upserts, got %r"
                                 % (sub.get("op"),))
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def record_weight(record: Dict) -> int:
    """How many upserts a journal line carries (a batch counts its
    members, so the compaction threshold tracks catalog churn rather
    than commit frequency)."""
    if record.get("op") == "batch":
        return len(record.get("records", ()))
    return 1


class CatalogJournal:
    """The JSONL sidecar next to a catalog image."""

    def __init__(self, path: str):
        self.path = path
        # Records currently in the file (replayed count on load, bumped
        # on append) — drives the compaction trigger deterministically.
        self.records = 0
        self.torn = False

    def append(self, records: List[Dict], sync: bool = True) -> int:
        """Append ``records`` as one durable write; returns bytes written.

        The caller holds the catalog lock.  One write + one fsync per
        batch: group commit, so a day's worth of set/media upserts costs
        a single disk sync instead of one per record.

        ``sync=False`` skips the fsync so a caller committing *several*
        catalogs can land all the appends first and then :meth:`sync`
        each journal back to back — consecutive syncs share the
        filesystem's journal transaction, where interleaved ones each
        force their own.  A crash before the deferred sync tears only
        the tail, which replay already discards.
        """
        if not records:
            return 0
        blob = "".join(encode_record(r) + "\n" for r in records)
        with open(self.path, "a") as handle:
            handle.write(blob)
            handle.flush()
            if sync:
                os.fsync(handle.fileno())
        self.records += sum(record_weight(r) for r in records)
        return len(blob)

    def sync(self) -> None:
        """fsync the journal file (pairs with ``append(sync=False)``)."""
        if not os.path.exists(self.path):
            return
        with open(self.path, "a") as handle:
            os.fsync(handle.fileno())

    def clear(self) -> None:
        """Truncate after compaction (the image already holds everything)."""
        if os.path.exists(self.path):
            with open(self.path, "w"):
                pass
        self.records = 0

    def load(self) -> List[Dict]:
        """Replay the journal, tolerating a torn tail.

        Returns the decodable records in append order.  The first line
        that fails to parse — a torn write, a truncated tail — ends the
        replay; everything after it is ignored, because a single
        appender under the lock can only ever corrupt the tail.
        :attr:`torn` says whether such a tail is there.
        """
        records, good, size = self._scan()
        self.records = sum(record_weight(r) for r in records)
        self.torn = good < size
        return records

    def cut_tail(self) -> None:
        """Truncate a torn tail, which replay would never read past, under
        the caller's catalog lock (so the file is scanned again)."""
        _records, good, size = self._scan()
        if good < size:
            with open(self.path, "r+b") as handle:
                handle.truncate(good)
        self.torn = False

    def _scan(self) -> Tuple[List[Dict], int, int]:
        """(records, byte offset of the first bad line, file size)."""
        if not os.path.exists(self.path):
            return [], 0, 0
        records: List[Dict] = []
        good = 0
        with open(self.path, "rb") as handle:
            data = handle.read()
        offset = 0
        while offset < len(data):
            end = data.find(b"\n", offset)
            if end < 0:
                break  # no newline: torn tail
            line = data[offset:end]
            try:
                record = json.loads(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                break
            if not isinstance(record, dict) or record.get("op") not in OPS:
                break
            records.append(record)
            offset = end + 1
            good = offset
        return records, good, len(data)


__all__ = ["COMPACT_AFTER", "CatalogJournal", "OPS", "encode_record",
           "journal_path", "record_weight"]
