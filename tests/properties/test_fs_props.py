"""Property-based tests over the whole file system and backup stack."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    consumes,
    invariant,
    precondition,
    rule,
)

from repro.backup import (
    DumpDates,
    LogicalDump,
    LogicalRestore,
    drain_engine,
    verify_trees,
)
from repro.wafl.consts import BLOCK_SIZE
from repro.wafl.filesystem import WaflFilesystem
from repro.wafl.fsck import fsck, fsck_snapshot

from tests.conftest import make_drive, make_fs

_slow = settings(max_examples=15, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow,
                                        HealthCheck.data_too_large])


@_slow
@given(st.binary(max_size=3 * BLOCK_SIZE),
       st.integers(0, 2 * BLOCK_SIZE),
       st.binary(max_size=BLOCK_SIZE))
def test_write_read_semantics(initial, offset, patch):
    """File contents behave like a byte array with zero-fill extension."""
    fs = make_fs()
    fs.create("/f", initial)
    fs.write_file("/f", patch, offset)
    expected = bytearray(initial)
    if offset + len(patch) > len(expected):
        expected.extend(bytes(offset + len(patch) - len(expected)))
    expected[offset : offset + len(patch)] = patch
    assert fs.read_file("/f") == bytes(expected)


@_slow
@given(st.binary(max_size=2 * BLOCK_SIZE), st.integers(0, 3 * BLOCK_SIZE))
def test_truncate_semantics(initial, new_size):
    fs = make_fs()
    fs.create("/f", initial)
    fs.truncate("/f", new_size)
    expected = initial[:new_size].ljust(new_size, b"\0")
    assert fs.read_file("/f") == expected


@_slow
@given(st.lists(
    st.tuples(st.sampled_from(["a", "b", "c", "d"]),
              st.binary(max_size=2000)),
    min_size=1, max_size=8,
))
def test_dump_restore_roundtrip_random_trees(files):
    """Any tree survives dump -> restore bit-for-bit."""
    fs = make_fs(name="src")
    for name, data in files:
        path = "/" + name
        if fs.exists(path):
            fs.write_file(path, data, 0)
            fs.truncate(path, len(data))
        else:
            fs.create(path, data)
    drive = make_drive()
    drain_engine(LogicalDump(fs, drive, dumpdates=DumpDates()).run())
    target = make_fs(name="dst")
    drain_engine(LogicalRestore(target, drive).run())
    assert verify_trees(fs, target, check_mtime=True) == []


class FilesystemMachine(RuleBasedStateMachine):
    """Random op sequences keep fsck clean and match a dict model."""

    paths = Bundle("paths")
    snapshots = Bundle("snapshots")

    def __init__(self):
        super().__init__()
        self.fs = make_fs(blocks_per_disk=3000)
        self.model = {}  # path -> bytes
        self.snapshot_models = {}  # snapshot name -> the model it froze
        self.counter = 0

    @rule(target=paths, data=st.binary(max_size=9000))
    def create_file(self, data):
        self.counter += 1
        path = "/f%d" % self.counter
        self.fs.create(path, data)
        self.model[path] = data
        return path

    @rule(path=paths, data=st.binary(min_size=1, max_size=5000),
          offset=st.integers(0, 8000))
    def overwrite(self, path, data, offset):
        if path not in self.model:
            return
        self.fs.write_file(path, data, offset)
        current = bytearray(self.model[path])
        if offset + len(data) > len(current):
            current.extend(bytes(offset + len(data) - len(current)))
        current[offset : offset + len(data)] = data
        self.model[path] = bytes(current)

    @rule(path=paths)
    def delete(self, path):
        if path not in self.model:
            return
        self.fs.unlink(path)
        del self.model[path]

    @rule(path=paths, size=st.integers(0, 6000))
    def truncate(self, path, size):
        if path not in self.model:
            return
        self.fs.truncate(path, size)
        data = self.model[path]
        self.model[path] = data[:size].ljust(size, b"\0")

    @rule()
    def checkpoint(self):
        self.fs.consistency_point()

    @rule(target=snapshots)
    @precondition(lambda self: len(self.snapshot_models) < 4)
    def snapshot_create(self):
        self.counter += 1
        name = "s%d" % self.counter
        self.fs.snapshot_create(name)
        self.snapshot_models[name] = dict(self.model)
        return name

    @rule(name=consumes(snapshots))
    def snapshot_delete(self, name):
        self.fs.snapshot_delete(name)
        del self.snapshot_models[name]

    @rule()
    def crash_and_remount(self):
        self.fs.consistency_point()
        volume = self.fs.volume
        self.fs.crash()
        self.fs = WaflFilesystem.mount(volume)

    @invariant()
    def contents_match_model(self):
        for path, data in self.model.items():
            assert self.fs.read_file(path) == data

    @invariant()
    def consistency_point_persists_the_whole_block_map(self):
        """Whatever ran last, a consistency point leaves no changed map
        block behind: on a twin of the live system, crash -> mount reads
        back the words the twin held, fsck is clean and every snapshot
        still holds the tree it froze."""
        twin = self.fs.clone_volume()
        twin.consistency_point()
        words = twin.blockmap.words.copy()
        volume = twin.volume
        twin.crash()
        mounted = WaflFilesystem.mount(volume)
        assert np.array_equal(mounted.blockmap.words, words)
        report = fsck(mounted)
        assert report.clean, report.errors
        for name, frozen in self.snapshot_models.items():
            report = fsck_snapshot(mounted, name)
            assert report.clean, report.errors
            view = mounted.snapshot_view(name)
            for path, data in frozen.items():
                assert view.read_file(path) == data

    def teardown(self):
        report = fsck(self.fs)
        assert report.clean, report.errors


TestFilesystemMachine = FilesystemMachine.TestCase
TestFilesystemMachine.settings = settings(
    max_examples=15, stateful_step_count=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
