"""Unit tests for WaflFilesystem namespace and data operations."""

import pytest

from repro.errors import (
    ExistsError,
    FilesystemError,
    IsADirectoryError_,
    NoSpaceError,
    NotADirectoryError_,
    NotEmptyError,
    NotFoundError,
)
from repro.wafl.consts import BLOCK_SIZE, NDIRECT, PTRS_PER_BLOCK, ROOT_INO
from repro.wafl.fsck import fsck

from tests.conftest import make_fs


class TestNamespace:
    def test_create_and_read(self, fs):
        fs.create("/a", b"hello")
        assert fs.read_file("/a") == b"hello"

    def test_create_in_subdir(self, fs):
        fs.mkdir("/d")
        fs.create("/d/x", b"1")
        assert fs.read_file("/d/x") == b"1"

    def test_duplicate_create_rejected(self, fs):
        fs.create("/a")
        with pytest.raises(ExistsError):
            fs.create("/a")

    def test_missing_path(self, fs):
        with pytest.raises(NotFoundError):
            fs.read_file("/nope")

    def test_missing_parent(self, fs):
        with pytest.raises(NotFoundError):
            fs.create("/no/such/file")

    def test_file_as_directory_component(self, fs):
        fs.create("/f")
        with pytest.raises(NotADirectoryError_):
            fs.create("/f/child")

    def test_relative_path_rejected(self, fs):
        with pytest.raises(FilesystemError):
            fs.namei("relative/path")

    def test_unlink_removes(self, fs):
        fs.create("/a", b"x")
        fs.unlink("/a")
        assert not fs.exists("/a")

    def test_unlink_directory_rejected(self, fs):
        fs.mkdir("/d")
        with pytest.raises(IsADirectoryError_):
            fs.unlink("/d")

    def test_rmdir_requires_empty(self, fs):
        fs.mkdir("/d")
        fs.create("/d/x")
        with pytest.raises(NotEmptyError):
            fs.rmdir("/d")
        fs.unlink("/d/x")
        fs.rmdir("/d")
        assert not fs.exists("/d")

    def test_rmdir_on_file_rejected(self, fs):
        fs.create("/f")
        with pytest.raises(NotADirectoryError_):
            fs.rmdir("/f")

    def test_readdir_lists_children(self, fs):
        fs.mkdir("/d")
        fs.create("/d/one")
        fs.create("/d/two")
        names = {name for name, _ino in fs.readdir("/d")}
        assert names == {"one", "two"}

    def test_nlink_accounting(self, fs):
        fs.mkdir("/d")
        root = fs.inode(ROOT_INO)
        assert root.nlink == 3  # '.', '..', and /d
        fs.mkdir("/d/sub")
        assert fs.inode(fs.namei("/d")).nlink == 3


class TestRename:
    def test_simple_rename(self, fs):
        fs.create("/a", b"data")
        fs.rename("/a", "/b")
        assert not fs.exists("/a")
        assert fs.read_file("/b") == b"data"

    def test_rename_across_directories(self, fs):
        fs.mkdir("/d1")
        fs.mkdir("/d2")
        fs.create("/d1/f", b"z")
        fs.rename("/d1/f", "/d2/g")
        assert fs.read_file("/d2/g") == b"z"
        assert fsck(fs).clean

    def test_rename_directory_updates_dotdot(self, fs):
        fs.mkdir("/d1")
        fs.mkdir("/d2")
        fs.mkdir("/d1/sub")
        fs.create("/d1/sub/f", b"k")
        fs.rename("/d1/sub", "/d2/moved")
        assert fs.read_file("/d2/moved/f") == b"k"
        assert fsck(fs).clean

    def test_rename_replaces_file(self, fs):
        fs.create("/a", b"new")
        fs.create("/b", b"old")
        fs.rename("/a", "/b")
        assert fs.read_file("/b") == b"new"
        assert fsck(fs).clean

    def test_rename_onto_nonempty_dir_rejected(self, fs):
        fs.mkdir("/d")
        fs.create("/d/x")
        fs.mkdir("/e")
        with pytest.raises(NotEmptyError):
            fs.rename("/e", "/d")

    def test_rename_missing_source(self, fs):
        with pytest.raises(NotFoundError):
            fs.rename("/ghost", "/b")


class TestLinks:
    def test_hard_link_shares_data(self, fs):
        fs.create("/a", b"shared")
        fs.link("/a", "/b")
        assert fs.read_file("/b") == b"shared"
        assert fs.inode(fs.namei("/a")).nlink == 2
        assert fs.namei("/a") == fs.namei("/b")

    def test_unlink_one_name_keeps_other(self, fs):
        fs.create("/a", b"s")
        fs.link("/a", "/b")
        fs.unlink("/a")
        assert fs.read_file("/b") == b"s"
        assert fs.inode(fs.namei("/b")).nlink == 1

    def test_hard_link_to_directory_rejected(self, fs):
        fs.mkdir("/d")
        with pytest.raises(IsADirectoryError_):
            fs.link("/d", "/d2")

    def test_symlink_roundtrip(self, fs):
        fs.create("/target", b"t")
        fs.symlink("/ln", "/target")
        assert fs.readlink("/ln") == "/target"

    def test_readlink_on_file_rejected(self, fs):
        fs.create("/f")
        with pytest.raises(FilesystemError):
            fs.readlink("/f")


class TestData:
    def test_overwrite_at_offset(self, fs):
        fs.create("/a", b"0" * 100)
        fs.write_file("/a", b"XY", offset=10)
        data = fs.read_file("/a")
        assert data[10:12] == b"XY"
        assert len(data) == 100

    def test_extend_grows_file(self, fs):
        fs.create("/a", b"12")
        fs.write_file("/a", b"34", offset=2)
        assert fs.read_file("/a") == b"1234"

    def test_sparse_write_leaves_hole(self, fs):
        fs.create("/a")
        fs.write_file("/a", b"tail", offset=10 * BLOCK_SIZE)
        inode = fs.inode(fs.namei("/a"))
        assert inode.size == 10 * BLOCK_SIZE + 4
        data = fs.read_file("/a")
        assert data[:BLOCK_SIZE] == bytes(BLOCK_SIZE)
        assert data[-4:] == b"tail"
        # Fewer blocks allocated than the size implies.
        extents = fs.file_extents(inode.ino)
        allocated = sum(count for _f, _v, count in extents)
        assert allocated == 1

    def test_multiblock_file_roundtrip(self, fs):
        payload = bytes(range(256)) * 200  # 51200 bytes, 13 blocks
        fs.create("/big", payload)
        assert fs.read_file("/big") == payload

    def test_indirect_blocks_used(self, fs):
        size = (NDIRECT + 5) * BLOCK_SIZE
        fs.create("/deep", b"d" * size)
        inode = fs.inode(fs.namei("/deep"))
        assert inode.indirect != 0
        assert fs.read_file("/deep") == b"d" * size
        assert fsck(fs).clean

    def test_double_indirect_blocks_used(self):
        fs = make_fs(ngroups=2, ndata=4, blocks_per_disk=4000)
        size = (NDIRECT + PTRS_PER_BLOCK + 3) * BLOCK_SIZE
        fs.create("/huge", b"h" * size)
        inode = fs.inode(fs.namei("/huge"))
        assert inode.dindirect != 0
        assert fs.read_file("/huge") == b"h" * size
        assert fsck(fs).clean

    def test_truncate_shrinks(self, fs):
        fs.create("/a", b"abcdef" * 1000)
        fs.truncate("/a", 10)
        assert fs.read_file("/a") == b"abcdefabcd"
        assert fsck(fs).clean

    def test_truncate_extends_sparsely(self, fs):
        fs.create("/a", b"ab")
        fs.truncate("/a", 100)
        data = fs.read_file("/a")
        assert data[:2] == b"ab"
        assert data[2:] == bytes(98)

    def test_truncate_zeroes_partial_tail(self, fs):
        fs.create("/a", b"z" * BLOCK_SIZE)
        fs.truncate("/a", 100)
        fs.truncate("/a", BLOCK_SIZE)
        assert fs.read_file("/a") == b"z" * 100 + bytes(BLOCK_SIZE - 100)

    def test_read_directory_as_file_rejected(self, fs):
        fs.mkdir("/d")
        with pytest.raises(IsADirectoryError_):
            fs.read_file("/d")

    def test_write_directory_rejected(self, fs):
        fs.mkdir("/d")
        with pytest.raises(IsADirectoryError_):
            fs.write_file("/d", b"x")

    def test_deleted_blocks_reused_after_cp(self, fs):
        fs.create("/a", b"x" * (50 * BLOCK_SIZE))
        before = fs.statfs()["free_blocks"]
        fs.unlink("/a")
        fs.consistency_point()
        fs.consistency_point()
        after = fs.statfs()["free_blocks"]
        assert after > before


class TestAttributes:
    def test_set_attrs(self, fs):
        fs.create("/a")
        fs.set_attrs("/a", perms=0o600, uid=5, gid=6, mtime=1234,
                     dos_name=b"A~1", dos_bits=7, dos_time=99)
        inode = fs.stat("/a")
        assert inode.perms == 0o600
        assert (inode.uid, inode.gid) == (5, 6)
        assert inode.mtime == 1234
        assert inode.dos_name == b"A~1"
        assert inode.dos_bits == 7
        assert inode.dos_time == 99

    def test_acl_roundtrip(self, fs):
        fs.create("/a")
        fs.set_acl("/a", b"\x01\x02SECURITY")
        assert fs.get_acl("/a") == b"\x01\x02SECURITY"

    def test_acl_replacement_frees_old_block(self, fs):
        fs.create("/a")
        fs.set_acl("/a", b"first")
        fs.set_acl("/a", b"second")
        assert fs.get_acl("/a") == b"second"
        assert fsck(fs).clean

    def test_empty_acl_clears(self, fs):
        fs.create("/a")
        fs.set_acl("/a", b"x")
        fs.set_acl("/a", b"")
        assert fs.get_acl("/a") == b""
        assert fs.inode(fs.namei("/a")).acl_block == 0

    def test_oversized_acl_rejected(self, fs):
        fs.create("/a")
        with pytest.raises(FilesystemError):
            fs.set_acl("/a", b"x" * BLOCK_SIZE)

    def test_stat_returns_detached_copy(self, fs):
        fs.create("/a", b"abc")
        copy = fs.stat("/a")
        copy.size = 999
        assert fs.inode(fs.namei("/a")).size == 3


class TestQtrees:
    def test_qtree_id_assignment(self, fs):
        ino = fs.create_qtree("proj")
        assert fs.inode(fs.namei("/proj")).qtree == ino

    def test_children_inherit_qtree(self, fs):
        qtree_id = fs.create_qtree("proj")
        fs.mkdir("/proj/sub")
        fs.create("/proj/sub/f")
        assert fs.inode(fs.namei("/proj/sub/f")).qtree == qtree_id

    def test_root_has_no_qtree(self, fs):
        fs.create("/plain")
        assert fs.inode(fs.namei("/plain")).qtree == 0


class TestWalk:
    def test_walk_visits_everything(self, fs):
        fs.mkdir("/d")
        fs.create("/d/f1")
        fs.mkdir("/d/s")
        fs.create("/d/s/f2")
        paths = {path for path, _ in fs.walk("/")}
        assert paths == {"/", "/d", "/d/f1", "/d/s", "/d/s/f2"}

    def test_walk_subtree(self, fs):
        fs.mkdir("/d")
        fs.create("/d/f")
        fs.create("/outside")
        paths = {path for path, _ in fs.walk("/d")}
        assert paths == {"/d", "/d/f"}

    def test_iter_used_inodes_ascending(self, fs):
        fs.create("/a")
        fs.create("/b")
        inos = [inode.ino for inode in fs.iter_used_inodes()]
        assert inos == sorted(inos)
        assert ROOT_INO in inos


class TestStatfs:
    def test_counts_move_with_data(self, fs):
        before = fs.statfs()
        fs.create("/a", b"x" * (10 * BLOCK_SIZE))
        fs.consistency_point()
        after = fs.statfs()
        assert after["active_blocks"] > before["active_blocks"]
        assert after["free_blocks"] < before["free_blocks"]


class TestFullVolume:
    def test_a_write_is_refused_whole(self):
        """Its data fits above the consistency-point reserve, its indirect
        block would not: refused before anything is allocated."""
        fs = make_fs(blocks_per_disk=300)
        fs.create("/f")
        fs.consistency_point()
        room = fs.blockmap.free_blocks() - fs.blockmap.cp_reserve
        with pytest.raises(NoSpaceError):
            fs.write_file("/f", bytes(room * BLOCK_SIZE))
        assert fs.read_file("/f") == b""
        report = fsck(fs)
        assert report.clean, report.errors

    @pytest.mark.parametrize("nvram", [False, True], ids=["plain", "nvram"])
    def test_a_create_too_big_to_fit_leaves_no_name(self, nvram):
        """The name and the data are one op: refused together.  With NVRAM
        the data is too big to log whole and goes in pieces after the name."""
        fs = make_fs(blocks_per_disk=600, nvram=nvram)
        data = bytes((fs.blockmap.free_blocks() + 10) * BLOCK_SIZE)
        with pytest.raises(NoSpaceError):
            fs.create("/big", data)
        assert not fs.exists("/big")
        report = fsck(fs)
        assert report.clean, report.errors


class TestRenameCycles:
    def test_rename_into_own_subtree_rejected(self, fs):
        fs.mkdir("/a")
        fs.mkdir("/a/b")
        with pytest.raises(FilesystemError):
            fs.rename("/a", "/a/b/moved")
        assert fs.exists("/a/b")
        assert fsck(fs).clean

    def test_rename_into_deep_descendant_rejected(self, fs):
        fs.mkdir("/a")
        fs.mkdir("/a/b")
        fs.mkdir("/a/b/c")
        with pytest.raises(FilesystemError):
            fs.rename("/a", "/a/b/c/moved")

    def test_rename_to_sibling_subtree_allowed(self, fs):
        fs.mkdir("/a")
        fs.mkdir("/a/b")
        fs.mkdir("/other")
        fs.rename("/a/b", "/other/b")
        assert fs.exists("/other/b")
        assert fsck(fs).clean
