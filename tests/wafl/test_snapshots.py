"""Snapshot semantics: instant, read-only, space-shared images."""

import pytest

from repro.backup.common import RecorderScope
from repro.errors import (
    FilesystemError,
    IsADirectoryError_,
    NotFoundError,
    SnapshotError,
)
from repro.wafl.consts import BLOCK_SIZE, MAX_SNAPSHOTS
from repro.wafl.fsck import fsck, fsck_snapshot

from tests.conftest import make_fs, populate_small_tree


def test_snapshot_preserves_old_contents(fs):
    fs.create("/a", b"version-1")
    fs.snapshot_create("snap")
    fs.write_file("/a", b"version-2", 0)
    view = fs.snapshot_view("snap")
    assert view.read_file("/a") == b"version-1"
    assert fs.read_file("/a") == b"version-2"


def test_snapshot_preserves_deleted_files(fs):
    fs.create("/doomed", b"still here")
    fs.snapshot_create("snap")
    fs.unlink("/doomed")
    assert not fs.exists("/doomed")
    view = fs.snapshot_view("snap")
    assert view.read_file("/doomed") == b"still here"


def test_snapshot_is_readonly(fs):
    fs.create("/a", b"x")
    fs.snapshot_create("snap")
    view = fs.snapshot_view("snap")
    tree_ctx = view
    with pytest.raises(FilesystemError):
        tree_ctx.alloc_run(1)


def test_snapshot_uses_no_space_until_change(fs):
    fs.create("/a", b"q" * (20 * BLOCK_SIZE))
    fs.consistency_point()
    before = fs.statfs()["used_blocks"]
    fs.snapshot_create("snap")
    after = fs.statfs()["used_blocks"]
    # Only CP meta-data churn (the old block-map and inode-file copies
    # pinned by the snapshot); the 20 data blocks are shared, not copied.
    assert after - before < 2 * fs.blockmap.n_fblocks() + 10


def test_snapshot_delete_frees_space(fs):
    fs.create("/a", b"q" * (40 * BLOCK_SIZE))
    fs.snapshot_create("snap")
    fs.unlink("/a")
    fs.consistency_point()
    held = fs.statfs()["used_blocks"]
    freed = fs.snapshot_delete("snap")
    assert freed >= 40
    assert fs.statfs()["used_blocks"] < held


def test_duplicate_snapshot_name_rejected(fs):
    fs.snapshot_create("x")
    with pytest.raises(SnapshotError):
        fs.snapshot_create("x")


def test_missing_snapshot_rejected(fs):
    with pytest.raises(SnapshotError):
        fs.snapshot_delete("ghost")
    with pytest.raises(SnapshotError):
        fs.snapshot_view("ghost")


def test_snapshot_limit_enforced():
    fs = make_fs(blocks_per_disk=4000)
    fs.create("/f", b"x")
    for index in range(MAX_SNAPSHOTS):
        fs.snapshot_create("s%d" % index)
    with pytest.raises(SnapshotError):
        fs.snapshot_create("one-too-many")


def test_snapshot_ids_recycled(fs):
    fs.create("/f", b"x")
    first = fs.snapshot_create("a")
    fs.snapshot_delete("a")
    second = fs.snapshot_create("b")
    assert second.snap_id == first.snap_id


def test_multiple_snapshots_independent(fs):
    fs.create("/f", b"one")
    fs.snapshot_create("s1")
    fs.write_file("/f", b"two", 0)
    fs.snapshot_create("s2")
    fs.write_file("/f", b"tri", 0)
    assert fs.snapshot_view("s1").read_file("/f") == b"one"
    assert fs.snapshot_view("s2").read_file("/f") == b"two"
    assert fs.read_file("/f") == b"tri"
    assert fsck(fs).clean
    assert fsck_snapshot(fs, "s1").clean
    assert fsck_snapshot(fs, "s2").clean


def test_snapshot_view_walk_and_namei(fs):
    populate_small_tree(fs)
    fs.snapshot_create("snap")
    fs.unlink("/docs/readme.txt")
    view = fs.snapshot_view("snap")
    assert view.namei("/docs/readme.txt")
    paths = {path for path, _ in view.walk("/")}
    assert "/docs/readme.txt" in paths
    with pytest.raises(NotFoundError):
        view.namei("/does/not/exist")


def test_snapshot_view_acl_and_extents(fs):
    populate_small_tree(fs)
    fs.snapshot_create("snap")
    view = fs.snapshot_view("snap")
    ino = view.namei("/src/main.c")
    assert view.get_acl_by_ino(ino) == b"ACL\x01\x02payload"
    extents = view.file_extents(ino)
    assert sum(count for _f, _v, count in extents) >= 1


def test_snapshot_survives_remount(fs):
    fs.create("/f", b"pre-snap")
    fs.snapshot_create("keeper")
    fs.write_file("/f", b"post-snap", 0)
    fs.consistency_point()
    from repro.wafl.filesystem import WaflFilesystem

    volume = fs.volume
    fs.crash()
    remounted = WaflFilesystem.mount(volume)
    assert [s.name for s in remounted.snapshots()] == ["keeper"]
    assert remounted.snapshot_view("keeper").read_file("/f") == b"pre-snap"


def test_snapshot_of_snapshot_state_is_consistent(fs):
    populate_small_tree(fs)
    fs.snapshot_create("s1")
    fs.create("/later", b"l")
    fs.snapshot_create("s2")
    report = fsck_snapshot(fs, "s2")
    assert report.clean, report.errors
    view2 = fs.snapshot_view("s2")
    assert view2.read_file("/later") == b"l"
    view1 = fs.snapshot_view("s1")
    with pytest.raises(NotFoundError):
        view1.namei("/later")


def _read_everything(tree):
    """Walk ``tree`` and read every path by its kind; return what was
    read and the block accesses the reads made."""
    # Inodes are loaded first: a snapshot's inode file is not the active
    # one (the consistency point after the snapshot moved its block 0).
    list(tree.iter_used_inodes())
    read = []
    with RecorderScope(tree.volume) as scope:
        for path, inode in tree.walk("/"):
            if inode.is_dir:
                content = tree.readdir(path)
            elif inode.is_symlink:
                content = tree.readlink(path)
            else:
                content = tree.read_file(path)
            read.append((path, tree.stat(path).pack(), content,
                         tree.get_acl(path)))
    return read, scope.recorder.drain()


def test_a_snapshot_reads_through_the_file_system_read_path(fs):
    populate_small_tree(fs)
    fs.snapshot_create("snap")
    view = fs.snapshot_view("snap")
    fs.volume.uncached_reads = True   # every read reaches the recorder
    through_fs = _read_everything(fs)
    through_view = _read_everything(view)
    assert through_view == through_fs
    assert through_fs[1], "the walk recorded no block reads"
    with pytest.raises(IsADirectoryError_):
        view.read_file("/src")
    assert view.readlink("/docs/link") == "/src/main.c"
    assert view.exists("/src/deep/data.bin") and not view.exists("/nope")
    assert sorted(view.readdir("/src")) == sorted(fs.readdir("/src"))
    assert view.stat("/sparse").size == fs.stat("/sparse").size
