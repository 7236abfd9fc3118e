"""Copy-on-write block tree behaviour (through the file system)."""

import pytest

from repro.errors import FilesystemError
from repro.wafl.blocktree import BlockTree
from repro.wafl.consts import BLOCK_SIZE, NDIRECT, PTRS_PER_BLOCK

from tests.conftest import make_fs, map_words


def tree_for(fs, path):
    return BlockTree(fs, fs.inode(fs.namei(path)))


def test_cow_relocates_on_rewrite():
    fs = make_fs()
    fs.create("/a", b"1" * BLOCK_SIZE)
    fs.consistency_point()
    before = tree_for(fs, "/a").get_pointer(0)
    fs.write_file("/a", b"2" * BLOCK_SIZE, 0)
    after = tree_for(fs, "/a").get_pointer(0)
    assert before != after  # written anywhere, never in place


def test_fresh_block_rewrite_does_not_grow_usage():
    fs = make_fs()
    fs.create("/a", b"1" * BLOCK_SIZE)  # no CP yet: block is fresh
    used = fs.statfs()["active_blocks"]
    # Rewriting a fresh block relocates it but frees the old one
    # immediately (it was never part of a committed image).
    fs.write_file("/a", b"2" * BLOCK_SIZE, 0)
    assert fs.statfs()["active_blocks"] == used
    assert fs.read_file("/a") == b"2" * BLOCK_SIZE


def test_metadata_fresh_rewrite_in_place():
    fs = make_fs()
    fs.create("/a", b"1" * BLOCK_SIZE)
    tree = tree_for(fs, "/a")
    first = tree.get_pointer(0)
    # write_fblock (the metadata/CP path) rewrites fresh blocks in place.
    tree.write_fblock(0, b"3" * BLOCK_SIZE)
    assert tree.get_pointer(0) == first
    assert fs.read_file("/a") == b"3" * BLOCK_SIZE


def test_extents_merge_contiguous_blocks():
    fs = make_fs()
    fs.create("/a", b"z" * (10 * BLOCK_SIZE))
    extents = tree_for(fs, "/a").extents()
    assert sum(count for _f, _v, count in extents) == 10
    # A fresh file system allocates contiguously: few extents.
    assert len(extents) <= 2


def test_hole_pointers_are_zero():
    fs = make_fs()
    fs.create("/a")
    fs.write_file("/a", b"x", offset=5 * BLOCK_SIZE)
    tree = tree_for(fs, "/a")
    for fbn in range(5):
        assert tree.get_pointer(fbn) == 0
    assert tree.get_pointer(5) != 0


def test_punch_hole():
    fs = make_fs()
    fs.create("/a", b"y" * (3 * BLOCK_SIZE))
    tree = tree_for(fs, "/a")
    tree.punch_hole(1)
    tree.flush()
    assert tree.get_pointer(1) == 0
    data = fs.read_file("/a")
    assert data[BLOCK_SIZE : 2 * BLOCK_SIZE] == bytes(BLOCK_SIZE)


def test_indirect_tree_shape():
    fs = make_fs(blocks_per_disk=4000)
    nblocks = NDIRECT + PTRS_PER_BLOCK + 2  # needs double indirect
    fs.create("/a", b"k" * (nblocks * BLOCK_SIZE))
    tree = tree_for(fs, "/a")
    allocated = dict(tree.allocated_fblocks())
    assert len(allocated) == nblocks
    assert sorted(allocated) == list(range(nblocks))
    meta = tree.metadata_blocks()
    # single indirect + dindirect pointer block + 1 child
    assert len(meta) == 3


def test_free_all_releases_everything():
    fs = make_fs()
    fs.create("/a", b"m" * (40 * BLOCK_SIZE))
    fs.consistency_point()
    used_before = fs.statfs()["active_blocks"]
    fs.unlink("/a")
    fs.consistency_point()
    assert fs.statfs()["active_blocks"] <= used_before - 40


def test_max_file_size_enforced():
    fs = make_fs()
    tree = tree_for(fs, "/")
    from repro.wafl.consts import MAX_FILE_BLOCKS

    with pytest.raises(FilesystemError):
        tree.get_pointer(MAX_FILE_BLOCKS)


def test_readonly_context_rejects_mutation():
    fs = make_fs()
    fs.create("/a", b"x" * BLOCK_SIZE)
    fs.snapshot_create("s")
    view = fs.snapshot_view("s")
    tree = BlockTree(view, view.inode(view.namei("/a")))
    with pytest.raises(FilesystemError):
        tree.write_fblock(0, bytes(BLOCK_SIZE))
    with pytest.raises(FilesystemError):
        tree.truncate_blocks(0)
    with pytest.raises(FilesystemError):
        tree.free_all()


def test_unaligned_write_rejected():
    fs = make_fs()
    fs.create("/a")
    tree = tree_for(fs, "/a")
    with pytest.raises(FilesystemError):
        tree.write_fblock(0, b"tiny")
    with pytest.raises(FilesystemError):
        tree.write_run(0, b"x" * 100)


def test_truncate_blocks_drops_indirect_when_empty():
    fs = make_fs()
    nblocks = NDIRECT + 4
    fs.create("/a", b"p" * (nblocks * BLOCK_SIZE))
    fs.truncate("/a", 2 * BLOCK_SIZE)
    inode = fs.inode(fs.namei("/a"))
    assert inode.indirect == 0


# -- write_cow_run against the per-block write_fblock loop it batches --------

def _cow_twin(seed):
    """A file whose blocks mix committed pointers, fresh (rewritable in
    place) pointers — some consecutive on disk, some not — and holes,
    across the direct, indirect and double-indirect levels."""
    import random

    from repro.storage.device import IoRecorder

    rng = random.Random(seed)
    fs = make_fs(ngroups=2, ndata=4, blocks_per_disk=2500)
    nblocks = NDIRECT + PTRS_PER_BLOCK + 40
    fs.create("/m")
    tree = tree_for(fs, "/m")
    committed = [fbn for fbn in range(nblocks) if rng.random() < 0.6]
    for fbn in committed:
        tree.write_fblock(fbn, bytes([fbn % 251]) * BLOCK_SIZE)
    tree.flush()
    fs.consistency_point()                  # nothing is fresh any more
    tree = tree_for(fs, "/m")
    start = 0
    while start < nblocks:                  # fresh stretches, in file order
        length = rng.randint(1, 30)
        if rng.random() < 0.5:
            tree.write_run(start, bytes([7]) * (min(length, nblocks - start)
                                                * BLOCK_SIZE))
        start += length + rng.randint(0, 20)
    tree.flush()
    fs.volume.recorder = IoRecorder()
    return fs, nblocks


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize("first", [0, NDIRECT - 3, NDIRECT + PTRS_PER_BLOCK - 5])
def test_write_cow_run_matches_per_block_write_fblock(seed, first):
    from repro.chaos.verify import volume_digest

    (batched, nblocks), (reference, _) = _cow_twin(seed), _cow_twin(seed)
    count = nblocks - first
    data = b"".join(bytes([(first + i) % 256]) * BLOCK_SIZE
                    for i in range(count))
    tree = tree_for(batched, "/m")
    tree.write_cow_run(first, data)
    tree.flush()
    ref_tree = tree_for(reference, "/m")
    for i in range(count):
        ref_tree.write_fblock(first + i,
                              data[i * BLOCK_SIZE : (i + 1) * BLOCK_SIZE])
    ref_tree.flush()
    assert batched.volume.recorder.drain() == reference.volume.recorder.drain()
    assert ([tree.get_pointer(f) for f in range(nblocks)]
            == [ref_tree.get_pointer(f) for f in range(nblocks)])
    assert (map_words(batched.blockmap).tobytes()
            == map_words(reference.blockmap).tobytes())
    assert batched.blockmap._starts == reference.blockmap._starts
    assert batched._fresh_blocks == reference._fresh_blocks
    assert volume_digest(batched.volume) == volume_digest(reference.volume)
    assert (sorted(batched.volume.cache._blocks)
            == sorted(reference.volume.cache._blocks))
    assert tree_for(batched, "/m").read_fblock(nblocks - 1) == data[-BLOCK_SIZE:]
