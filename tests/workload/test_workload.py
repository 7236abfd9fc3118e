"""Workload generator, aging, and mutation tests."""

import random

import pytest

from repro.units import MB
from repro.wafl.fsck import fsck
from repro.workload import (
    AgingConfig,
    FileSizeDistribution,
    MutationConfig,
    TreeShape,
    WorkloadGenerator,
    age_filesystem,
    apply_mutations,
    fragmentation_report,
)
from repro.workload.distributions import deterministic_bytes

from tests.conftest import make_fs


class TestDistributions:
    def test_sizes_bounded(self):
        dist = FileSizeDistribution(max_bytes=1 * MB)
        rng = random.Random(1)
        for _ in range(500):
            assert 0 <= dist.sample(rng) <= 1 * MB

    def test_sampling_is_deterministic_per_seed(self):
        dist = FileSizeDistribution()
        rng_a, rng_b = random.Random(7), random.Random(7)
        a = [dist.sample(rng_a) for _ in range(100)]
        b = [dist.sample(rng_b) for _ in range(100)]
        assert a == b

    def test_heavy_tail_present(self):
        dist = FileSizeDistribution()
        rng = random.Random(3)
        sizes = [dist.sample(rng) for _ in range(3000)]
        big = [s for s in sizes if s >= dist.tail_min]
        assert big  # the Pareto tail fires
        # But most files are small.
        assert sorted(sizes)[len(sizes) // 2] < 64 * 1024

    def test_invalid_tail_probability(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            FileSizeDistribution(tail_probability=1.5)

    def test_deterministic_bytes(self):
        assert deterministic_bytes(5, 100) == deterministic_bytes(5, 100)
        assert deterministic_bytes(5, 100) != deterministic_bytes(6, 100)
        assert len(deterministic_bytes(1, 12345)) == 12345
        assert deterministic_bytes(1, 0) == b""


class TestGenerator:
    def test_populate_reaches_target(self):
        fs = make_fs(blocks_per_disk=4000)
        tree = WorkloadGenerator(seed=11).populate(fs, 8 * MB)
        assert tree.total_bytes >= 8 * MB
        assert len(tree.files) > 10
        assert len(tree.directories) >= 1
        assert fsck(fs).clean

    def test_populate_is_deterministic(self):
        fs_a = make_fs(name="a", blocks_per_disk=4000)
        fs_b = make_fs(name="b", blocks_per_disk=4000)
        tree_a = WorkloadGenerator(seed=5).populate(fs_a, 4 * MB)
        tree_b = WorkloadGenerator(seed=5).populate(fs_b, 4 * MB)
        assert tree_a.files == tree_b.files
        assert fs_a.read_file(tree_a.files[0]) == fs_b.read_file(tree_b.files[0])

    def test_populate_creates_special_objects(self):
        fs = make_fs(blocks_per_disk=4000)
        shape = TreeShape(symlink_fraction=0.2, hardlink_fraction=0.1,
                          acl_fraction=0.3)
        tree = WorkloadGenerator(shape=shape, seed=13).populate(fs, 3 * MB)
        assert tree.symlinks or tree.hardlinks

    def test_populate_many_interleaves(self):
        fs = make_fs(blocks_per_disk=6000)
        generator = WorkloadGenerator(seed=17)
        fs.mkdir("/q0")
        fs.mkdir("/q1")
        trees = generator.populate_many(fs, ["/q0", "/q1"], 3 * MB)
        assert len(trees) == 2
        for tree in trees:
            assert tree.total_bytes >= 3 * MB
        assert fsck(fs).clean
        # Interleaving: the two qtrees' physical blocks intermix.
        extents0 = [fs.file_extents(fs.namei(p))[0][1]
                    for p in trees[0].files[:20] if fs.file_extents(fs.namei(p))]
        extents1 = [fs.file_extents(fs.namei(p))[0][1]
                    for p in trees[1].files[:20] if fs.file_extents(fs.namei(p))]
        assert extents0 and extents1
        assert min(extents1) < max(extents0)


class TestAging:
    def test_aging_fragments_free_space(self):
        fs = make_fs(blocks_per_disk=5000)
        generator = WorkloadGenerator(seed=19)
        tree = generator.populate(fs, 12 * MB)
        before = fragmentation_report(fs)
        age_filesystem(fs, tree, AgingConfig(rounds=3, churn_fraction=0.4))
        after = fragmentation_report(fs)
        # Files shatter into more extents than a freshly written tree.
        assert after["extents_per_file"] > before["extents_per_file"]
        assert fsck(fs).clean

    def test_aging_keeps_tree_in_sync(self):
        fs = make_fs(blocks_per_disk=5000)
        generator = WorkloadGenerator(seed=23)
        tree = generator.populate(fs, 6 * MB)
        age_filesystem(fs, tree, AgingConfig(rounds=2))
        for path in tree.files:
            assert fs.exists(path), path

    def test_aging_respects_space_reserve(self):
        fs = make_fs(blocks_per_disk=2000)
        generator = WorkloadGenerator(seed=29)
        tree = generator.populate(fs, 15 * MB)  # fills most of the volume
        age_filesystem(fs, tree, AgingConfig(rounds=3, churn_fraction=0.5))
        stats = fs.statfs()
        assert stats["free_blocks"] > 0
        assert fsck(fs).clean


class TestMutations:
    def test_mutation_report_is_accurate(self):
        fs = make_fs(blocks_per_disk=5000)
        generator = WorkloadGenerator(seed=31)
        tree = generator.populate(fs, 6 * MB)
        report = apply_mutations(fs, tree, MutationConfig(seed=37))
        for path in report["deleted"]:
            assert not fs.exists(path)
        for path in report["created"]:
            assert fs.exists(path)
        for path in report["renamed"]:
            assert fs.exists(path)
        assert fsck(fs).clean

    def test_mutations_feed_incremental_dump(self):
        from repro.backup import DumpDates, LogicalDump, drain_engine
        from tests.conftest import make_drive

        fs = make_fs(blocks_per_disk=5000)
        generator = WorkloadGenerator(seed=41)
        tree = generator.populate(fs, 4 * MB)
        dumpdates = DumpDates()
        drain_engine(LogicalDump(fs, make_drive("l0"),
                                 dumpdates=dumpdates).run())
        report = apply_mutations(fs, tree, MutationConfig(seed=43))
        changed = len(set(report["modified"])) + len(report["created"]) \
            + len(report["renamed"])
        result = drain_engine(
            LogicalDump(fs, make_drive("l1"), level=1,
                        dumpdates=dumpdates).run()
        )
        assert result.files <= changed + 5
        assert result.files >= max(1, len(report["created"]))
