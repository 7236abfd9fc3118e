"""Dumpdates, verify helpers, incremental semantics, and robustness."""

import pytest

from repro.errors import IncrementalError
from repro.backup import (
    DumpDates,
    LogicalDump,
    LogicalRestore,
    drain_engine,
    verify_trees,
)
from repro.backup.physical.incremental import (
    BLOCK_STATES,
    DELETED,
    NEWLY_WRITTEN,
    NOT_IN_EITHER,
    UNCHANGED,
    block_state,
    classify_all,
    coalesce_block_array,
    spans_with_readthrough,
)

from tests.conftest import make_drive, make_fs, populate_small_tree


class TestDumpDates:
    def test_level0_base_is_epoch(self):
        dates = DumpDates()
        assert dates.base_for("fs", "/", 0) == (0, None)

    def test_base_is_most_recent_lower_level(self):
        dates = DumpDates()
        dates.record("fs", "/", 0, date=100)
        dates.record("fs", "/", 1, date=200)
        assert dates.base_for("fs", "/", 2) == (200, 1)
        assert dates.base_for("fs", "/", 1) == (100, 0)

    def test_missing_base_rejected(self):
        dates = DumpDates()
        with pytest.raises(IncrementalError):
            dates.base_for("fs", "/", 1)

    def test_level_out_of_range(self):
        dates = DumpDates()
        with pytest.raises(IncrementalError):
            dates.record("fs", "/", 10, date=1)
        with pytest.raises(IncrementalError):
            dates.base_for("fs", "/", -1)

    def test_new_lower_level_supersedes_deeper(self):
        dates = DumpDates()
        dates.record("fs", "/", 0, date=100)
        dates.record("fs", "/", 2, date=150)
        dates.record("fs", "/", 0, date=200)  # fresh full dump
        # The old level-2 record is stale now.
        assert dates.base_for("fs", "/", 3) == (200, 0)

    def test_subtrees_are_independent(self):
        dates = DumpDates()
        dates.record("fs", "/qt0", 0, date=100)
        with pytest.raises(IncrementalError):
            dates.base_for("fs", "/qt1", 1)

    def test_history_most_recent_first(self):
        dates = DumpDates()
        dates.record("fs", "/", 0, date=10)
        dates.record("fs", "/", 1, date=30)
        history = dates.history("fs", "/")
        assert history[0] == (1, 30)


class TestTable1Semantics:
    def test_block_state_table(self):
        assert block_state(0, 0) == NOT_IN_EITHER
        assert block_state(0, 1) == NEWLY_WRITTEN
        assert block_state(1, 0) == DELETED
        assert block_state(1, 1) == UNCHANGED
        assert len(BLOCK_STATES) == 4

    def test_classify_all_sums_to_volume(self):
        fs = make_fs()
        populate_small_tree(fs)
        a = fs.snapshot_create("A")
        fs.create("/x", b"1" * 9000)
        b = fs.snapshot_create("B")
        counts = classify_all(fs.blockmap, a.snap_id, b.snap_id)
        assert sum(counts.values()) == fs.blockmap.nblocks

    def test_coalesce_block_array(self):
        import numpy as np

        runs = coalesce_block_array(np.array([1, 2, 3, 7, 8, 20]))
        assert runs == [(1, 3), (7, 2), (20, 1)]

    def test_coalesce_respects_max_run(self):
        import numpy as np

        runs = coalesce_block_array(np.arange(10), max_run=4)
        assert runs == [(0, 4), (4, 4), (8, 2)]

    def test_coalesce_empty(self):
        import numpy as np

        assert coalesce_block_array(np.array([], dtype=int)) == []

    def test_spans_read_through_small_gaps(self):
        spans = spans_with_readthrough([(0, 10), (15, 10), (500, 5)],
                                       gap_threshold=16)
        assert len(spans) == 2
        start, length, runs = spans[0]
        assert (start, length) == (0, 25)
        assert runs == [(0, 10), (15, 10)]
        assert spans[1][0] == 500

    def test_spans_respect_max_span(self):
        spans = spans_with_readthrough([(0, 100), (110, 100)],
                                       gap_threshold=64, max_span=150)
        assert len(spans) == 2


class TestVerify:
    def test_detects_data_difference(self):
        a = make_fs(name="a")
        b = make_fs(name="b")
        a.create("/f", b"one")
        b.create("/f", b"two")
        problems = verify_trees(a, b, check_mtime=False)
        assert any("data differs" in p for p in problems)

    def test_detects_missing_and_extra(self):
        a = make_fs(name="a")
        b = make_fs(name="b")
        a.create("/only-in-a")
        b.create("/only-in-b")
        problems = verify_trees(a, b, check_mtime=False)
        assert any("missing in target" in p for p in problems)
        assert any("extra in target" in p for p in problems)

    def test_detects_attr_difference(self):
        a = make_fs(name="a")
        b = make_fs(name="b")
        a.create("/f", b"x", perms=0o600)
        b.create("/f", b"x", perms=0o644)
        problems = verify_trees(a, b, check_mtime=False)
        assert any("perms" in p for p in problems)

    def test_detects_hardlink_structure(self):
        a = make_fs(name="a")
        b = make_fs(name="b")
        a.create("/f", b"x")
        a.link("/f", "/g")
        b.create("/f", b"x")
        b.create("/g", b"x")
        problems = verify_trees(a, b, check_attrs=False)
        assert any("hard-link" in p or "nlink" in p for p in problems)

    def test_identical_trees_clean(self):
        a = make_fs(name="a")
        populate_small_tree(a)
        drive = make_drive()
        drain_engine(LogicalDump(a, drive, dumpdates=DumpDates()).run())
        b = make_fs(name="b")
        drain_engine(LogicalRestore(b, drive).run())
        assert verify_trees(a, b, check_mtime=True) == []


class TestRobustness:
    def test_resync_restore_recovers_other_files(self):
        source = make_fs(name="src")
        for index in range(8):
            source.create("/file%d" % index, bytes([index]) * 6000)
        drive = make_drive()
        drain_engine(LogicalDump(source, drive, dumpdates=DumpDates()).run())
        # Corrupt a 1 KB region in the middle of the stream.
        cartridge = drive.stacker.cartridges[0]
        middle = (cartridge.used // 2 // 1024) * 1024
        cartridge.overwrite(middle, b"\xa5" * 1024)
        target = make_fs(name="dst")
        drain_engine(LogicalRestore(target, drive, resync=True).run())
        # "A minor tape corruption will usually affect only that single
        # file": at most one file is lost or garbled, the rest are intact.
        intact = sum(
            1 for index in range(8)
            if target.exists("/file%d" % index)
            and target.read_file("/file%d" % index) == bytes([index]) * 6000
        )
        assert intact >= 7

    def test_restore_from_degraded_raid_source(self):
        """Dump a file system whose volume lost a disk: RAID reconstructs
        under both backup paths."""
        source = make_fs(name="src")
        populate_small_tree(source)
        source.consistency_point()
        # Fail an entire data disk in group 0.
        failed = source.volume.groups[0].data_disks[1]
        for stripe in range(failed.nblocks):
            failed.fail_block(stripe)
        if source.volume.cache is not None:
            source.volume.cache.clear()
        drive = make_drive()
        drain_engine(LogicalDump(source, drive, dumpdates=DumpDates()).run())
        target = make_fs(name="dst")
        drain_engine(LogicalRestore(target, drive).run())
        assert target.read_file("/src/main.c") == bytes(range(256)) * 64
