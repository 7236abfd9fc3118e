"""The persistent backup catalog.

The catalog is the management plane's source of truth: every completed
backup set, the tape media inventory, per-volume retention policies, and
the dumpdates database (which it subsumes — the in-memory
:class:`~repro.backup.logical.dumpdates.DumpDates` is rebuilt from the
set records on load, so incremental base selection survives process
restarts for free).

Persistence is a versioned JSON image plus the append-only journal
beside it (:mod:`repro.catalog.journal`): every commit is one fsync'd
journal line, and :meth:`BackupCatalog.save` compacts — a new image
through ``<path>.tmp``, fsync'd and renamed over the old one, then an
empty journal.  An in-memory catalog (``path=None``) never touches the
disk; tests and short experiments use it directly.

History is kept whole — a retired set stays in :attr:`BackupCatalog.sets`,
the image and the journal — but a query about one volume reads only that
volume: per-volume indexes, kept exact by the set writers and the status
writers, answer :meth:`~BackupCatalog.sets_for`, :meth:`~BackupCatalog.live_sets`,
base resolution and the orphan refusal without scanning retired sets.
:meth:`~BackupCatalog.validate_no_orphans` is the one full scan, so the
invariant check does not trust the indexes it would be checking.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_left, insort
from typing import Dict, Iterable, List, Optional

from repro.errors import CatalogError
from repro.backup.logical.dumpdates import DumpDates
from repro.catalog.journal import COMPACT_AFTER, CatalogJournal, journal_path
from repro.catalog.lock import FileLock
from repro.catalog.records import (
    STATUS_OBSOLETE,
    STRATEGY_LOGICAL,
    BackupSet,
    CartridgeRecord,
    RestorePlan,
)

CATALOG_VERSION = 1


def _policy_key(fsid: str, subtree: str) -> str:
    return "%s|%s" % (fsid, subtree)


def _identity(backup_set: BackupSet) -> tuple:
    """The fields the indexes file a set under; fixed once recorded."""
    return (backup_set.fsid, backup_set.subtree, backup_set.strategy,
            backup_set.level, backup_set.day, backup_set.date,
            backup_set.snapshot, backup_set.base_set_id)


class BackupCatalog:
    """Backup sets, media inventory, policies, and chain planning."""

    #: A commit that finds this many upserts in the journal compacts.
    compact_after = COMPACT_AFTER

    def __init__(self, path: Optional[str] = None):
        self.path = path  # also sets up the journal
        self.sets: Dict[str, BackupSet] = {}
        self.media: Dict[str, CartridgeRecord] = {}
        self.policies: Dict[str, str] = {}
        self.next_set = 1
        self.next_cartridge = 1
        self.dumpdates = DumpDates()
        # Delta tracking: which entities changed since the last durable
        # commit.  Mutators mark, :meth:`commit_dirty` appends them.
        self._dirty_sets: set = set()
        self._dirty_media: set = set()
        self._dirty_policies: set = set()
        self._dirty_meta = False
        self._reindex()

    # -- indexes -----------------------------------------------------------

    def _reindex(self) -> None:
        """Rebuild every index from :attr:`sets`, in its order."""
        # set id -> position in ``sets`` (the scan order that broke ties)
        # and the identity it is filed under.
        self._rank: Dict[str, int] = {}
        self._filed: Dict[str, tuple] = {}
        # (fsid, subtree) -> its sets' ``sets_for`` keys (day, date, set
        # id), sorted; the ok ones.
        self._volume_keys: Dict[tuple, List[tuple]] = {}
        self._live_keys: Dict[tuple, List[tuple]] = {}
        # (fsid, snapshot) -> the first set recorded from it.
        self._by_snapshot: Dict[tuple, str] = {}
        # (fsid, subtree, strategy) -> {level: newest set by (date, day)}.
        self._newest: Dict[tuple, Dict[int, str]] = {}
        # base set id -> the sets recorded against it.
        self._dependents: Dict[str, List[str]] = {}
        for backup_set in self.sets.values():
            self._index(backup_set)

    def _recency(self, set_id: str) -> tuple:
        """Newest by (date, day); of equals, the one recorded first."""
        backup_set = self.sets[set_id]
        return (backup_set.date, backup_set.day, -self._rank[set_id])

    def _index(self, backup_set: BackupSet) -> None:
        set_id = backup_set.set_id
        self._rank[set_id] = len(self._rank)
        self._filed[set_id] = _identity(backup_set)
        volume = (backup_set.fsid, backup_set.subtree)
        insort(self._volume_keys.setdefault(volume, []),
               (backup_set.day, backup_set.date, set_id))
        self._live_keys.setdefault(volume, [])
        self._sync_status(backup_set)
        if backup_set.snapshot is not None:
            self._by_snapshot.setdefault(
                (backup_set.fsid, backup_set.snapshot), set_id)
        levels = self._newest.setdefault(
            volume + (backup_set.strategy,), {})
        newest = levels.get(backup_set.level)
        if newest is None or self._recency(set_id) > self._recency(newest):
            levels[backup_set.level] = set_id
        if backup_set.base_set_id is not None:
            self._dependents.setdefault(backup_set.base_set_id,
                                        []).append(set_id)

    def _sync_status(self, backup_set: BackupSet) -> None:
        """File the set among its volume's live sets iff it is ok."""
        key = (backup_set.day, backup_set.date, backup_set.set_id)
        live = self._live_keys[(backup_set.fsid, backup_set.subtree)]
        at = bisect_left(live, key)
        filed = at < len(live) and live[at] == key
        if backup_set.ok and not filed:
            live.insert(at, key)
        elif filed and not backup_set.ok:
            del live[at]

    def _put_set(self, backup_set: BackupSet) -> None:
        """Add a set, or replace the record of one, keeping the indexes."""
        known = backup_set.set_id in self.sets
        self.sets[backup_set.set_id] = backup_set
        if not known:
            self._index(backup_set)
        else:
            self._refile(backup_set.set_id)

    def _refile(self, set_id: str) -> None:
        """Bring the indexes up to a changed set record: its status in
        place; an identity change (no writer makes one) by a rebuild."""
        backup_set = self.sets[set_id]
        if self._filed[set_id] != _identity(backup_set):
            self._reindex()
        else:
            self._sync_status(backup_set)

    # -- persistence -------------------------------------------------------

    @property
    def path(self) -> Optional[str]:
        return self._path

    @path.setter
    def path(self, path: Optional[str]) -> None:
        self._path = path
        self._journal = CatalogJournal(journal_path(path)) if path else None
        # Journal lines replay over an image, so until this catalog has
        # loaded or written one at ``path`` its first commit compacts —
        # which also empties a journal an earlier catalog left there.
        self._imaged = False

    @property
    def dirty(self) -> bool:
        """Anything to commit since the last durable write?"""
        return bool(self._dirty_sets or self._dirty_media
                    or self._dirty_policies or self._dirty_meta)

    def touch_set(self, set_id: str) -> None:
        """Mark a set record changed (mutated outside the catalog API)."""
        if set_id in self.sets:
            self._refile(set_id)
        self._dirty_sets.add(set_id)

    def touch_media(self, label: str) -> None:
        """Mark a cartridge record changed (allocation, recycle)."""
        self._dirty_media.add(label)

    def _clear_dirty(self) -> None:
        self._dirty_sets.clear()
        self._dirty_media.clear()
        self._dirty_policies.clear()
        self._dirty_meta = False

    def save(self) -> None:
        """Compact: write the whole image, then empty the journal; a
        no-op for in-memory catalogs.

        Runs under the catalog's file lock, so two writers (a fleet
        daemon and a CLI invocation, say) cannot race their temp files
        and drop a commit.  The image is durable before the journal is
        emptied: a crash in between leaves idempotent upserts that
        replay harmlessly over the new image.
        """
        if not self.path:
            return
        with self._lock():
            self._save_unlocked()
            self._journal.clear()
        self._imaged = True
        self._clear_dirty()

    def commit_dirty(self, sync: bool = True) -> int:
        """Durably commit the changed entities; returns records written.

        Appends the commit to the journal as one ``batch`` record — one
        JSONL line holding every dirty entity's upsert (sorted by id,
        so serial and parallel runs write byte-identical journals) with
        a single fsync.  One line per commit is what makes commits
        *atomic under torn writes*: replay discards the journal tail
        from the first unparseable line, so a crash mid-append loses the
        whole commit or none of it — never a backup set without its
        media allocation.  A no-op when nothing is dirty.  ``sync=False``
        defers the fsync to :meth:`sync_journal` so multi-catalog
        callers can group their syncs.  The commit is a :meth:`save`
        instead when the catalog has no image yet or the journal holds
        :attr:`compact_after` upserts.
        """
        if not self.path or not self.dirty:
            return 0
        if not self._imaged or self._journal.records >= self.compact_after:
            self.save()
            return 1
        records = []
        if self._dirty_meta:
            records.append({"op": "meta", "next_set": self.next_set,
                            "next_cartridge": self.next_cartridge})
        for set_id in sorted(self._dirty_sets):
            records.append({"op": "set", "data": self.sets[set_id].to_dict()})
        for label in sorted(self._dirty_media):
            records.append({"op": "media",
                            "data": self.media[label].to_dict()})
        for key in sorted(self._dirty_policies):
            records.append({"op": "policy", "key": key,
                            "text": self.policies[key]})
        with self._lock():
            self._journal.append([{"op": "batch", "records": records}],
                                 sync=sync)
        self._clear_dirty()
        return len(records)

    def sync_journal(self) -> None:
        """fsync the journal after ``commit_dirty(sync=False)``."""
        if self._journal is not None:
            self._journal.sync()

    def _lock(self) -> FileLock:
        """The inter-process lock guarding this catalog's commits."""
        return FileLock(self.path + ".lock")

    def _save_unlocked(self) -> None:
        document = {
            "version": CATALOG_VERSION,
            "next_set": self.next_set,
            "next_cartridge": self.next_cartridge,
            "sets": [s.to_dict() for s in self.sets.values()],
            "media": [c.to_dict() for c in self.media.values()],
            "policies": dict(self.policies),
        }
        temp = self.path + ".tmp"
        with open(temp, "w") as handle:
            # Compact separators: the image is under the determinism
            # byte-diff, so no pretty-printing — and ``dumps``, the C
            # one-shot encoder: ``dump`` streams the same bytes through
            # the pure-Python one.
            handle.write(json.dumps(document, sort_keys=True,
                                    separators=(",", ":")))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, self.path)

    def _apply_journal(self, records: List[Dict]) -> None:
        """Fold replayed journal upserts over the loaded image."""
        for record in records:
            op = record["op"]
            if op == "batch":
                # One commit, one line: apply its upserts in order.
                self._apply_journal(record["records"])
            elif op == "set":
                self._put_set(BackupSet.from_dict(record["data"]))
            elif op == "media":
                cartridge = CartridgeRecord.from_dict(record["data"])
                self.media[cartridge.label] = cartridge
            elif op == "policy":
                self.policies[record["key"]] = record["text"]
            elif op == "meta":
                self.next_set = record["next_set"]
                self.next_cartridge = record["next_cartridge"]

    @classmethod
    def load(cls, path: str) -> "BackupCatalog":
        try:
            with open(path) as handle:
                document = json.load(handle)
        except OSError as error:
            raise CatalogError("cannot read catalog %s: %s" % (path, error))
        except ValueError:
            raise CatalogError("catalog %s is not valid JSON" % path)
        if not isinstance(document, dict) or "version" not in document:
            raise CatalogError("catalog %s has no version field" % path)
        if document["version"] != CATALOG_VERSION:
            raise CatalogError(
                "catalog %s is version %r; this build reads version %d"
                % (path, document["version"], CATALOG_VERSION)
            )
        catalog = cls(path)
        catalog.next_set = document.get("next_set", 1)
        catalog.next_cartridge = document.get("next_cartridge", 1)
        for raw in document.get("sets", []):
            catalog._put_set(BackupSet.from_dict(raw))
        for raw in document.get("media", []):
            cartridge = CartridgeRecord.from_dict(raw)
            catalog.media[cartridge.label] = cartridge
        catalog.policies = dict(document.get("policies", {}))
        # Every commit since the last compaction is in the journal:
        # replay its upserts (CatalogJournal.load drops a torn tail,
        # and cut_tail removes it from the file).
        catalog._apply_journal(catalog._journal.load())
        if catalog._journal.torn:
            with catalog._lock():
                catalog._journal.cut_tail()
        catalog._imaged = True
        catalog._rebuild_dumpdates()
        return catalog

    @classmethod
    def open(cls, path: str) -> "BackupCatalog":
        """Load an existing catalog, or start a fresh one at ``path``."""
        if os.path.exists(path):
            return cls.load(path)
        return cls(path)

    def _rebuild_dumpdates(self) -> None:
        """Replay logical set records, oldest first, into a fresh DumpDates.

        Replaying in date order reproduces exactly the live recording
        sequence, so the supersede rule lands in the same final state.
        """
        self.dumpdates = DumpDates()
        logical = [s for s in self.sets.values()
                   if s.strategy == STRATEGY_LOGICAL]
        for backup_set in sorted(logical, key=lambda s: (s.date, s.day)):
            self.dumpdates.record(backup_set.fsid, backup_set.subtree,
                                  backup_set.level, backup_set.date)

    # -- media inventory ---------------------------------------------------

    def register_cartridge(self, capacity: int,
                           label: Optional[str] = None) -> CartridgeRecord:
        if label is None:
            label = "crt%04d" % self.next_cartridge
            self.next_cartridge += 1
        if label in self.media:
            raise CatalogError("cartridge %r already registered" % label)
        record = CartridgeRecord(label, capacity)
        self.media[label] = record
        self._dirty_media.add(label)
        self._dirty_meta = True
        return record

    def cartridge_record(self, label: str) -> CartridgeRecord:
        try:
            return self.media[label]
        except KeyError:
            raise CatalogError("no cartridge %r in the media inventory" % label)

    def scratch_media(self) -> List[CartridgeRecord]:
        return [c for c in self.media.values() if c.status == "scratch"]

    # -- recording sets ----------------------------------------------------

    def record_set(
        self,
        fsid: str,
        subtree: str,
        strategy: str,
        level: int,
        day: int,
        date: int,
        snapshot: Optional[str] = None,
        base_snapshot: Optional[str] = None,
        start_time: float = 0.0,
        end_time: float = 0.0,
        bytes_to_tape: int = 0,
        files: int = 0,
        blocks: int = 0,
        cartridges: Iterable[str] = (),
        save: bool = True,
    ) -> BackupSet:
        """Record one completed dump; links its incremental base.

        The base is resolved by ``base_snapshot`` when given (image
        incrementals are cut against an explicit snapshot), else by the
        dumpdates rule: the most recent recorded set at a strictly lower
        level for the same (fsid, subtree, strategy).
        """
        base_id = self._resolve_base(fsid, subtree, strategy, level,
                                     base_snapshot)
        set_id = "S%04d" % self.next_set
        self.next_set += 1
        backup_set = BackupSet(
            set_id, fsid, subtree, strategy, level, day, date,
            base_set_id=base_id, snapshot=snapshot,
            start_time=start_time, end_time=end_time,
            bytes_to_tape=bytes_to_tape, files=files, blocks=blocks,
            cartridges=list(cartridges),
        )
        self._put_set(backup_set)
        self._dirty_sets.add(set_id)
        self._dirty_meta = True
        if strategy == STRATEGY_LOGICAL:
            # Idempotent when the dump already recorded through
            # ``self.dumpdates`` (same level, same date).
            self.dumpdates.record(fsid, subtree, level, date)
        if save:
            self.commit_dirty()
        return backup_set

    def _resolve_base(self, fsid: str, subtree: str, strategy: str,
                      level: int, base_snapshot: Optional[str]) -> Optional[str]:
        if base_snapshot is not None:
            base_id = self._by_snapshot.get((fsid, base_snapshot))
            if base_id is None:
                raise CatalogError(
                    "base snapshot %r of %s has no backup set in the catalog"
                    % (base_snapshot, fsid)
                )
            return base_id
        if level == 0:
            return None
        levels = self._newest.get((fsid, subtree, strategy), {})
        candidates = [set_id for lower, set_id in levels.items()
                      if lower < level]
        if not candidates:
            raise CatalogError(
                "no lower-level set recorded for %s:%s below level %d"
                % (fsid, subtree, level)
            )
        return max(candidates, key=self._recency)

    # -- queries -----------------------------------------------------------

    def sets_for(self, fsid: str, subtree: Optional[str] = None,
                 strategy: Optional[str] = None) -> List[BackupSet]:
        """Matching sets, oldest first."""
        if subtree is not None:
            keys = self._volume_keys.get((fsid, subtree), [])
        else:
            keys = sorted(key for volume, members
                          in self._volume_keys.items() if volume[0] == fsid
                          for key in members)
        out = [self.sets[key[-1]] for key in keys]
        if strategy is not None:
            out = [s for s in out if s.strategy == strategy]
        return out

    def live_sets(self, fsid: str, subtree: str) -> List[BackupSet]:
        """The volume's ok sets, oldest first (``sets_for`` order)."""
        return [self.sets[key[-1]]
                for key in self._live_keys.get((fsid, subtree), [])]

    def get_set(self, set_id: str) -> BackupSet:
        try:
            return self.sets[set_id]
        except KeyError:
            raise CatalogError("no backup set %r in the catalog" % set_id)

    def chain_members(self, set_id: str) -> List[BackupSet]:
        """The chain ending at ``set_id``, base (level 0) first."""
        chain: List[BackupSet] = []
        seen = set()
        cursor: Optional[str] = set_id
        while cursor is not None:
            if cursor in seen:
                raise CatalogError("base-link cycle at set %r" % cursor)
            seen.add(cursor)
            backup_set = self.get_set(cursor)
            chain.append(backup_set)
            cursor = backup_set.base_set_id
        chain.reverse()
        return chain

    def root_of(self, set_id: str) -> str:
        """The level-0 (full) set anchoring ``set_id``'s chain."""
        return self.chain_members(set_id)[0].set_id

    def chain_for(self, fsid: str, subtree: str = "/",
                  target_day: Optional[int] = None,
                  strategy: Optional[str] = None) -> RestorePlan:
        """The minimal restore chain reaching (fsid, subtree) at
        ``target_day`` (the latest state not newer than that day; the
        newest state overall when None).

        Returns a :class:`RestorePlan` naming the ordered backup sets
        and the exact cartridges to load.  Raises :class:`CatalogError`
        when nothing covers the target or part of the chain has been
        pruned.
        """
        candidates = [
            s for s in self.sets_for(fsid, subtree, strategy)
            if target_day is None or s.day <= target_day
        ]
        if not candidates:
            raise CatalogError(
                "no backup of %s:%s at or before day %s"
                % (fsid, subtree, target_day)
            )
        target = candidates[-1]
        chain = self.chain_members(target.set_id)
        for backup_set in chain:
            if not backup_set.ok:
                raise CatalogError(
                    "chain for %s:%s day %s needs %s, which was pruned"
                    % (fsid, subtree, target_day, backup_set.set_id)
                )
        return RestorePlan(chain)

    # -- retention support -------------------------------------------------

    def mark_obsolete(self, set_ids: Iterable[str], save: bool = True) -> None:
        """Retire whole chains; refuses to orphan a surviving incremental.

        Every set whose base is being retired must itself be retired (or
        already obsolete) — pruning may only remove chains from the tail
        of history, never a base out from under a live incremental.
        """
        retiring = set(set_ids)
        for set_id in retiring:
            self.get_set(set_id)  # validate
        orphans = [dependent for set_id in retiring
                   for dependent in self._dependents.get(set_id, ())
                   if dependent not in retiring and self.sets[dependent].ok]
        if orphans:
            first = self.sets[min(orphans, key=self._rank.__getitem__)]
            raise CatalogError(
                "cannot obsolete %s: surviving set %s depends on it"
                % (first.base_set_id, first.set_id)
            )
        for set_id in retiring:
            self.sets[set_id].status = STATUS_OBSOLETE
            self._sync_status(self.sets[set_id])
            self._dirty_sets.add(set_id)
        if save:
            self.commit_dirty()

    def validate_no_orphans(self) -> List[str]:
        """Invariant check: every ok set's whole chain is ok.

        Returns the violations as strings (empty = healthy); tests and
        ``prune`` assert on it.
        """
        problems = []
        for backup_set in self.sets.values():
            if not backup_set.ok:
                continue
            cursor = backup_set.base_set_id
            while cursor is not None:
                base = self.get_set(cursor)
                if not base.ok:
                    problems.append(
                        "%s depends on pruned %s"
                        % (backup_set.set_id, base.set_id)
                    )
                    break
                cursor = base.base_set_id
        return problems

    # -- policies ----------------------------------------------------------

    def set_policy(self, fsid: str, subtree: str, text: str,
                   save: bool = True) -> None:
        self.policies[_policy_key(fsid, subtree)] = text
        self._dirty_policies.add(_policy_key(fsid, subtree))
        if save:
            self.commit_dirty()

    def policy_for(self, fsid: str, subtree: str = "/") -> Optional[str]:
        return self.policies.get(_policy_key(fsid, subtree))

    def policy_targets(self) -> List[tuple]:
        """(fsid, subtree, policy-text) triples with a stored policy."""
        out = []
        for key, text in sorted(self.policies.items()):
            fsid, subtree = key.split("|", 1)
            out.append((fsid, subtree, text))
        return out

    # -- reporting ---------------------------------------------------------

    def volumes(self) -> List[tuple]:
        """Distinct (fsid, subtree) pairs with at least one set."""
        return list(self._volume_keys)

    def latest_day(self) -> int:
        return max((keys[-1][0] for keys in self._volume_keys.values()),
                   default=0)


__all__ = ["BackupCatalog", "CATALOG_VERSION"]
