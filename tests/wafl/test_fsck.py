"""fsck must actually detect corruption, not just bless healthy trees."""


from repro.wafl.consts import BLOCK_SIZE
from repro.wafl.fsck import fsck, fsck_snapshot

from tests.conftest import make_fs, map_words, populate_small_tree, set_word


def test_clean_tree_is_clean():
    fs = make_fs()
    populate_small_tree(fs)
    report = fsck(fs)
    assert report.clean
    assert report.inodes_checked > 5
    assert report.blocks_checked > 10


def test_detects_wrong_nlink():
    fs = make_fs()
    fs.create("/f", b"x")
    inode = fs.inode(fs.namei("/f"))
    inode.nlink = 5
    fs.inode_dirty(inode)
    report = fsck(fs)
    assert not report.clean
    assert any("nlink" in error for error in report.errors)


def test_detects_cross_linked_blocks():
    fs = make_fs()
    fs.create("/a", b"a" * BLOCK_SIZE)
    fs.create("/b", b"b" * BLOCK_SIZE)
    inode_a = fs.inode(fs.namei("/a"))
    inode_b = fs.inode(fs.namei("/b"))
    # Point b's first block at a's.
    inode_b.direct[0] = inode_a.direct[0]
    fs.inode_dirty(inode_b)
    report = fsck(fs)
    assert any("cross-linked" in error for error in report.errors)


def test_detects_dangling_directory_entry():
    fs = make_fs()
    fs.mkdir("/d")
    fs.create("/d/f", b"x")
    victim = fs.namei("/d/f")
    # Surgically clear the inode without fixing the directory.
    inode = fs.inode(victim)
    inode.clear()
    fs.inode_dirty(inode)
    report = fsck(fs)
    assert any("free inode" in error for error in report.errors)


def test_detects_unreferenced_active_block():
    fs = make_fs()
    fs.consistency_point()
    # Claim a block in the map that nothing references.
    start, _count = fs.blockmap.allocate_run(1, 100)
    report = fsck(fs)
    assert any("unreferenced" in error for error in report.errors)


def test_detects_referenced_but_unmarked_block():
    fs = make_fs()
    fs.create("/f", b"z" * BLOCK_SIZE)
    fs.consistency_point()
    inode = fs.inode(fs.namei("/f"))
    vbn = inode.direct[0]
    # Clear the map bit underneath a live reference.
    fs.blockmap.free_active(vbn)
    report = fsck(fs)
    assert any("not marked active" in error for error in report.errors)


def test_detects_bad_dotdot():
    fs = make_fs()
    fs.mkdir("/d")
    fs.mkdir("/e")
    d_ino = fs.namei("/d")
    d_inode = fs.inode(d_ino)
    directory = fs._read_directory(d_inode)
    directory.replace("..", fs.namei("/e"))
    fs._write_directory(d_inode, directory)
    report = fsck(fs)
    assert any("'..'" in error for error in report.errors)


def test_detects_size_beyond_blocks():
    fs = make_fs()
    fs.create("/f", b"q" * (3 * BLOCK_SIZE))
    inode = fs.inode(fs.namei("/f"))
    inode.size = 2 * BLOCK_SIZE  # blocks allocated past the claimed size
    fs.inode_dirty(inode)
    report = fsck(fs)
    assert any("size" in error for error in report.errors)


def test_parity_check_option():
    fs = make_fs()
    fs.create("/f", b"x" * BLOCK_SIZE)
    fs.consistency_point()
    assert fsck(fs, check_parity=True).clean
    fs.volume.groups[0].parity_disk.write_block(1, b"\xff" * BLOCK_SIZE)
    report = fsck(fs, check_parity=True)
    assert any("parity" in error for error in report.errors)


def test_snapshot_fsck_flags_missing_plane_bit():
    fs = make_fs()
    fs.create("/f", b"y" * BLOCK_SIZE)
    record = fs.snapshot_create("s")
    # Strip the plane bit from one of the snapshot's blocks.
    blocks = fs.blockmap.plane_blocks(record.snap_id)
    victim = int(blocks[-1])
    set_word(fs.blockmap, victim,
             int(map_words(fs.blockmap)[victim]) & ~(1 << record.snap_id))
    report = fsck_snapshot(fs, "s")
    assert any("outside its plane" in error for error in report.errors)


def test_snapshot_fsck_unknown_name():
    fs = make_fs()
    report = fsck_snapshot(fs, "ghost")
    assert not report.clean


def test_report_repr():
    fs = make_fs()
    report = fsck(fs)
    assert "clean" in repr(report)
