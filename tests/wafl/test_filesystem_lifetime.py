"""A dropped file system is freed by reference count.

Nothing a :class:`WaflFilesystem` owns may refer back to it: a discarded
clone or restored volume holds its private chunks until it is freed, and
with a cycle that is a generation-2 collection away — a benchmark loop
then keeps two iterations' volumes alive at once.  Every test runs with
the cycle collector off, so only reference counting can free anything.
"""

import gc
import weakref

import pytest

from repro.backup.logical.dump import LogicalDump
from repro.backup.logical.dumpdates import DumpDates
from repro.backup.logical.restore import LogicalRestore
from repro.backup.physical.dump import ImageDump
from repro.backup.physical.restore import ImageRestore
from repro.backup.verify import verify_trees
from repro.perf.executor import TimedRun
from repro.wafl.filesystem import WaflFilesystem
from repro.wafl.fsck import fsck

from tests.conftest import make_drive, make_fs, make_volume, populate_small_tree


@pytest.fixture(autouse=True)
def no_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _timed(engine):
    run = TimedRun()
    run.add_job("job", engine.run())
    return run.run()["job"]


def _populated(nvram=False):
    fs = make_fs(nvram=nvram)
    populate_small_tree(fs)
    fs.consistency_point()
    return fs


def _snapshotted():
    fs = _populated()
    fs.snapshot_create("hourly.0")
    fs.write_file("/docs/readme.txt", b"changed after the snapshot")
    fs.snapshot_view("hourly.0").read_file("/docs/readme.txt")
    fs.snapshot_delete("hourly.0")
    return fs


def _cloned():
    return _populated().clone_volume()


def _mounted():
    return WaflFilesystem.mount(_populated().volume)


def _crashed_and_recovered():
    fs = _populated(nvram=True)
    fs.create("/after-cp", b"only in nvram")
    nvram, volume = fs.nvram, fs.volume
    fs.crash()
    return WaflFilesystem.mount(volume, nvram=nvram)


def _dumped_and_restored_logically():
    fs = _populated()
    drive = make_drive()
    _timed(LogicalDump(fs, drive, level=0, dumpdates=DumpDates()))
    restored = make_fs(name="restored")
    _timed(LogicalRestore(restored, drive))
    assert verify_trees(fs, restored) == []
    return restored


def _dumped_and_restored_physically():
    fs = _populated()
    drive = make_drive()
    _timed(ImageDump(fs, drive))
    volume = make_volume(name="restored")
    _timed(ImageRestore(volume, drive))
    restored = WaflFilesystem.mount(volume)
    assert verify_trees(fs, restored) == []
    return restored


@pytest.mark.parametrize("build", [
    _populated, _snapshotted, _cloned, _mounted, _crashed_and_recovered,
    _dumped_and_restored_logically, _dumped_and_restored_physically,
], ids=lambda build: build.__name__.lstrip("_"))
def test_a_dropped_file_system_dies_at_once(build):
    fs = build()
    assert fsck(fs).clean
    dead = [weakref.ref(fs), weakref.ref(fs.volume), weakref.ref(fs.blockmap)]
    del fs
    assert [ref() for ref in dead] == [None, None, None]


def test_a_dump_source_dies_with_its_engine():
    """The clone a strategy runs on dies with the call that made it."""
    fs = _populated().clone_volume()
    drive = make_drive()
    _timed(LogicalDump(fs, drive, level=0, dumpdates=DumpDates()))
    _timed(ImageDump(fs, drive))
    dead = [weakref.ref(fs), weakref.ref(fs.volume)]
    del fs
    assert [ref() for ref in dead] == [None, None]


def test_a_cloned_file_system_still_allocates_frees_and_cows():
    fs = _populated()
    fs.snapshot_create("keep")
    copy = fs.clone_volume()
    assert verify_trees(fs, copy) == []
    free_before = copy.blockmap.free_blocks()
    copy.create("/new", b"n" * 20000)                  # allocates
    copy.write_file("/src/main.c", b"COW" * 3000)      # copies on write
    copy.unlink("/src/deep/data.bin")                  # frees
    copy.consistency_point()
    assert copy.blockmap.free_blocks() != free_before
    assert copy.read_file("/new") == b"n" * 20000
    assert copy.read_file("/src/main.c")[:9000] == b"COW" * 3000
    assert not copy.exists("/src/deep/data.bin")
    # The snapshot still reads the tree it froze, on both sides.
    for side in (fs, copy):
        view = side.snapshot_view("keep")
        assert view.read_file("/src/main.c") == bytes(range(256)) * 64
        assert view.read_file("/src/deep/data.bin") == b"\xab" * 50000
    assert fsck(copy).clean and fsck(fs).clean
    # ... and the copy is as collectable as the original.
    dead = weakref.ref(copy)
    del copy, side, view
    assert dead() is None
