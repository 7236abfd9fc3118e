"""The append-only catalog journal: O(delta) commits, crash recovery.

The crash cases are the satellite's acceptance list: a truncated tail,
a torn write mid-append, and a compaction interrupted between the image
rename and the journal truncate must all recover to the last durable
state on load.  A two-writer test hammers lock-protected appends from
two processes and requires every journal line to survive complete.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time

import pytest

from repro.catalog import BackupCatalog, FileLock
from repro.catalog.journal import CatalogJournal, journal_path

APPENDS = 100


def journaled_catalog(tmp_path, compact_after=None):
    path = str(tmp_path / "catalog.json")
    catalog = BackupCatalog(path)
    if compact_after is not None:
        catalog.compact_after = compact_after
    return catalog, path


def cut_journal(journal, blob):
    """Leave ``blob`` as the journal's bytes, overwriting in place (a
    truncate that frees blocks is slow where ``discard`` is mounted)."""
    with open(journal, "r+b") as handle:
        handle.write(blob)
        handle.truncate(len(blob))


def record_day(catalog, day, fsid="home"):
    return catalog.record_set(fsid=fsid, subtree="/", strategy="logical",
                              level=0, day=day, date=100 + day, save=False)


class TestJournalMode:
    def test_commit_appends_instead_of_rewriting(self, tmp_path):
        catalog, path = journaled_catalog(tmp_path)
        catalog.save()  # seed the image
        image_before = os.path.getmtime(path)
        record_day(catalog, 0)
        written = catalog.commit_dirty()
        assert written == 2  # one meta record, one set upsert
        assert os.path.getmtime(path) == image_before
        assert os.path.getsize(journal_path(path)) > 0

    def test_load_replays_journal_over_image(self, tmp_path):
        catalog, path = journaled_catalog(tmp_path)
        record_day(catalog, 0)
        catalog.save()  # day 0 lands in the image
        record_day(catalog, 1)
        catalog.set_policy("home", "/", "redundancy 2", save=False)
        catalog.commit_dirty()  # day 1 + policy live only in the journal
        loaded = BackupCatalog.load(path)
        assert sorted(loaded.sets) == ["S0001", "S0002"]
        assert loaded.next_set == 3
        assert loaded.policy_for("home") == "redundancy 2"

    def test_commit_past_threshold_compacts(self, tmp_path):
        catalog, path = journaled_catalog(tmp_path, compact_after=3)
        catalog.save()
        for day in range(2):
            record_day(catalog, day)
            catalog.commit_dirty()
        # Two commits left four records (meta + set each); the next
        # commit finds the threshold exceeded and must fold everything
        # into the image and truncate the sidecar instead of appending.
        record_day(catalog, 2)
        catalog.commit_dirty()
        assert os.path.getsize(journal_path(path)) == 0
        record_day(catalog, 3)
        catalog.commit_dirty()  # appends resume on the emptied journal
        assert os.path.getsize(journal_path(path)) > 0
        assert sorted(BackupCatalog.load(path).sets) == [
            "S0001", "S0002", "S0003", "S0004"]

    def test_deferred_sync_still_lands_on_disk(self, tmp_path):
        catalog, path = journaled_catalog(tmp_path)
        catalog.save()
        record_day(catalog, 0)
        catalog.commit_dirty(sync=False)
        catalog.sync_journal()
        assert sorted(BackupCatalog.load(path).sets) == ["S0001"]

    def test_in_memory_catalog_keeps_no_journal(self):
        catalog = BackupCatalog()
        record_day(catalog, 0)
        assert catalog.commit_dirty() == 0
        catalog.sync_journal()  # nothing to sync: not an error

    def test_first_commit_of_a_new_catalog_writes_the_image(self, tmp_path):
        catalog, path = journaled_catalog(tmp_path)
        record_day(catalog, 0)
        catalog.commit_dirty()
        with open(path) as handle:
            assert [raw["set_id"] for raw in json.load(handle)["sets"]] \
                == ["S0001"]
        assert not os.path.exists(journal_path(path))
        record_day(catalog, 1)
        catalog.commit_dirty()  # the image exists: this one appends
        with open(journal_path(path)) as handle:
            assert len(handle.readlines()) == 1

    def test_leftover_journal_is_not_replayed_over_a_new_catalog(
            self, tmp_path):
        # A campaign that deletes the old image but not its journal
        # starts a new catalog at the same path: the stale commits must
        # not come back on load.
        stale, path = journaled_catalog(tmp_path)
        stale.save()
        for day in range(3):
            record_day(stale, day, fsid="old")
            stale.commit_dirty()
        os.remove(path)
        catalog = BackupCatalog(path)
        catalog.set_policy("home", "/", "redundancy 2", save=False)
        record_day(catalog, 0)
        catalog.commit_dirty()
        record_day(catalog, 1)
        catalog.commit_dirty()
        loaded = BackupCatalog.load(path)
        assert ({k: s.to_dict() for k, s in loaded.sets.items()}
                == {k: s.to_dict() for k, s in catalog.sets.items()})
        assert (loaded.next_set, loaded.next_cartridge, loaded.policies) \
            == (catalog.next_set, catalog.next_cartridge, catalog.policies)
        assert loaded.volumes() == [("home", "/")]

    def test_compaction_makes_the_image_durable_before_emptying(
            self, tmp_path, monkeypatch):
        catalog, path = journaled_catalog(tmp_path)
        catalog.save()
        record_day(catalog, 0)
        catalog.commit_dirty()
        calls = []
        fsync, replace, clear = os.fsync, os.replace, CatalogJournal.clear

        def record(name, real):
            def call(*args):
                calls.append((name, args[-1] if name == "replace" else None))
                return real(*args)
            return call

        monkeypatch.setattr(os, "fsync", record("fsync", fsync))
        monkeypatch.setattr(os, "replace", record("replace", replace))
        monkeypatch.setattr(CatalogJournal, "clear", record("clear", clear))
        catalog.save()
        assert calls == [("fsync", None), ("replace", path), ("clear", None)]
        assert os.path.getsize(journal_path(path)) == 0


class TestCrashRecovery:
    def build(self, tmp_path, days=3):
        catalog, path = journaled_catalog(tmp_path)
        catalog.save()
        for day in range(days):
            record_day(catalog, day)
            catalog.commit_dirty()
        return catalog, path

    def test_truncated_tail_recovers_previous_commit(self, tmp_path):
        _, path = self.build(tmp_path)
        journal = journal_path(path)
        with open(journal, "rb") as handle:
            blob = handle.read()
        # Chop into the middle of the last line: the crash happened
        # mid-append, after two whole day-commits had been fsync'd.
        cut_journal(journal, blob[:-10])
        loaded = BackupCatalog.load(path)
        assert "S0003" not in loaded.sets
        assert sorted(loaded.sets) == ["S0001", "S0002"]

    def test_torn_write_discards_tail_from_first_bad_line(self, tmp_path):
        _, path = self.build(tmp_path)
        journal = journal_path(path)
        with open(journal, "a") as handle:
            # An undecodable line followed by a well-formed one: a single
            # appender can only tear the tail, so replay must stop at the
            # first bad line and ignore everything after it.
            handle.write('{"op": "set", "data"\n')
            handle.write(json.dumps({"op": "policy", "key": "home|/",
                                     "text": "window 9 days"}) + "\n")
        loaded = BackupCatalog.load(path)
        assert sorted(loaded.sets) == ["S0001", "S0002", "S0003"]
        assert loaded.policy_for("home") is None

    def test_a_commit_after_a_torn_tail_survives_the_next_load(
            self, tmp_path):
        # The load cuts the tear off: an append behind it would never
        # be replayed.
        _, path = self.build(tmp_path)
        with open(journal_path(path), "a") as handle:
            handle.write('{"op": "batch", "rec')
        loaded = BackupCatalog.load(path)
        record_day(loaded, 3)
        loaded.commit_dirty()
        assert sorted(BackupCatalog.load(path).sets) == [
            "S0001", "S0002", "S0003", "S0004"]

    def test_unknown_op_ends_replay(self, tmp_path):
        _, path = self.build(tmp_path)
        with open(journal_path(path), "a") as handle:
            handle.write(json.dumps({"op": "shred", "data": {}}) + "\n")
        loaded = BackupCatalog.load(path)
        assert sorted(loaded.sets) == ["S0001", "S0002", "S0003"]

    def test_interrupted_compaction_replays_idempotently(self, tmp_path):
        catalog, path = self.build(tmp_path)
        with open(journal_path(path), "rb") as handle:
            blob = handle.read()
        reference = BackupCatalog.load(path)
        # Compaction writes the image first and truncates the journal
        # second; crashing in between leaves the old journal alongside
        # the new image.  Recreate exactly that state.
        catalog.save()
        with open(journal_path(path), "wb") as handle:
            handle.write(blob)
        loaded = BackupCatalog.load(path)
        assert sorted(loaded.sets) == sorted(reference.sets)
        assert loaded.next_set == reference.next_set
        for set_id, backup_set in reference.sets.items():
            assert loaded.sets[set_id].to_dict() == backup_set.to_dict()

    def test_a_loaded_catalog_counts_the_replayed_upserts(self, tmp_path):
        # A restarted writer must compact when an uninterrupted one
        # would: three day-commits left six upserts in the journal.
        _, path = self.build(tmp_path)
        loaded = BackupCatalog.load(path)
        loaded.compact_after = 6
        record_day(loaded, 3)
        loaded.commit_dirty()
        assert os.path.getsize(journal_path(path)) == 0
        assert len(BackupCatalog.load(path).sets) == 4

    def test_empty_journal_is_a_clean_load(self, tmp_path):
        _, path = self.build(tmp_path)
        with open(journal_path(path), "w"):
            pass
        # Everything before the last compaction lives in the image; an
        # empty sidecar (fresh truncate) must not confuse the loader.
        loaded = BackupCatalog.load(path)
        assert loaded.sets == {}  # nothing was compacted into the image


class TestBatchAtomicity:
    """One commit = one ``batch`` line: torn writes lose all or nothing.

    The half-commit this guards against: a backup set upserted without
    the cartridge records its chain needs, which a later ``chain_for``
    would hand to a restore that then can't find its media.
    """

    def build_two_commits(self, tmp_path):
        catalog, path = journaled_catalog(tmp_path)
        catalog.save()
        catalog.register_cartridge(100, label="T1")
        first = catalog.record_set("home", "/", "logical", 0, 1, 100,
                                   cartridges=["T1"], save=False)
        catalog.commit_dirty()
        catalog.register_cartridge(100, label="T2")
        second = catalog.record_set("home", "/", "logical", 1, 2, 200,
                                    cartridges=["T2"], save=False)
        catalog.commit_dirty()
        return path, first.set_id, second.set_id

    def test_one_commit_is_one_line(self, tmp_path):
        path, _, _ = self.build_two_commits(tmp_path)
        with open(journal_path(path)) as handle:
            lines = [json.loads(line) for line in handle]
        assert [line["op"] for line in lines] == ["batch", "batch"]
        # Each batch carries the whole commit: meta + set + media.
        assert all(len(line["records"]) == 3 for line in lines)

    def test_torn_write_at_every_offset_is_all_or_nothing(self, tmp_path):
        path, first, second = self.build_two_commits(tmp_path)
        journal = journal_path(path)
        with open(journal, "rb") as handle:
            blob = handle.read()
        last_line_start = blob.rstrip(b"\n").rfind(b"\n") + 1
        for cut in range(last_line_start, len(blob) + 1):
            cut_journal(journal, blob[:cut])
            loaded = BackupCatalog.load(path)
            chain = [s.set_id for s in loaded.chain_for("home").sets]
            if cut < len(blob):
                # Torn second commit: no trace of it may surface —
                # not the set, not its cartridge, not the id counter.
                assert sorted(loaded.sets) == [first]
                assert sorted(loaded.media) == ["T1"]
                assert chain == [first]
                assert loaded.next_set == 2
            else:
                assert sorted(loaded.sets) == sorted([first, second])
                assert sorted(loaded.media) == ["T1", "T2"]
                assert chain == [first, second]

    def test_crash_before_deferred_sync_never_half_commits(self, tmp_path):
        # commit_dirty(sync=False) leaves the fsync to sync_journal; a
        # crash in that window can persist any byte prefix of the
        # commit's line.  chain_for must see the whole commit or none.
        path, first, _ = self.build_two_commits(tmp_path)
        catalog = BackupCatalog.load(path)
        catalog.register_cartridge(100, label="T3")
        third = catalog.record_set("home", "/", "logical", 2, 3, 300,
                                   cartridges=["T3"], save=False)
        catalog.commit_dirty(sync=False)
        journal = journal_path(path)
        with open(journal, "rb") as handle:
            blob = handle.read()
        last_line_start = blob.rstrip(b"\n").rfind(b"\n") + 1
        for cut in (last_line_start, last_line_start + 1,
                    (last_line_start + len(blob)) // 2, len(blob) - 1):
            cut_journal(journal, blob[:cut])
            loaded = BackupCatalog.load(path)
            assert third.set_id not in loaded.sets
            assert "T3" not in loaded.media
            chain = loaded.chain_for("home")
            assert [s.set_id for s in chain.sets] != [third.set_id]
            assert all(label != "T3" for label in chain.cartridges)

    def test_batch_records_weigh_toward_compaction(self, tmp_path):
        # Compaction triggers on upsert count, not line count: two
        # 3-record batches cross a threshold of 5.
        catalog, path = journaled_catalog(tmp_path, compact_after=5)
        catalog.save()
        for day in range(2):
            catalog.register_cartridge(100, label="T%d" % day)
            catalog.record_set("home", "/", "logical", 0, day, 100 + day,
                               cartridges=["T%d" % day], save=False)
            catalog.commit_dirty()
        catalog.record_set("home", "/", "logical", 0, 2, 102, save=False)
        catalog.commit_dirty()  # 6 >= 5: folds into the image
        assert os.path.getsize(journal_path(path)) == 0
        assert sorted(BackupCatalog.load(path).sets) == [
            "S0001", "S0002", "S0003"]

    def test_batch_may_not_nest_or_hold_unknown_ops(self):
        from repro.catalog.journal import encode_record
        with pytest.raises(ValueError):
            encode_record({"op": "batch",
                           "records": [{"op": "batch", "records": []}]})
        with pytest.raises(ValueError):
            encode_record({"op": "batch", "records": [{"op": "shred"}]})

    def test_legacy_bare_records_still_replay(self, tmp_path):
        # Journals written before batch commits (one upsert per line)
        # must keep loading.
        catalog, path = journaled_catalog(tmp_path)
        catalog.save()
        scratch = BackupCatalog()
        cartridge = scratch.register_cartridge(100, label="T1")
        backup_set = record_day(scratch, 0)
        journal = CatalogJournal(journal_path(path))
        journal.append([
            {"op": "meta", "next_set": 2, "next_cartridge": 2},
            {"op": "media", "data": cartridge.to_dict()},
            {"op": "set", "data": backup_set.to_dict()},
        ])
        loaded = BackupCatalog.load(path)
        assert sorted(loaded.sets) == ["S0001"]
        assert sorted(loaded.media) == ["T1"]
        assert loaded.next_set == 2


def _journal_append_worker(path, writer, rounds):
    journal = CatalogJournal(path)
    for index in range(rounds):
        with FileLock(path + ".lock", timeout=30.0):
            journal.append([{"op": "policy",
                             "key": "w%d-%03d" % (writer, index),
                             "text": "p"}])
            # Widen the race window: unlocked concurrent appends would
            # interleave partial lines here.
            time.sleep(0.0002)


class TestTwoWriters:
    def test_locked_appends_never_tear(self, tmp_path):
        path = str(tmp_path / "catalog.json.journal")
        ctx = multiprocessing.get_context("fork")
        workers = [
            ctx.Process(target=_journal_append_worker,
                        args=(path, writer, APPENDS))
            for writer in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert worker.exitcode == 0
        records = CatalogJournal(path).load()
        # Every append from both writers survives as a complete line —
        # no lost updates, no torn interleavings cutting replay short.
        assert len(records) == 2 * APPENDS
        keys = {record["key"] for record in records}
        assert len(keys) == 2 * APPENDS
