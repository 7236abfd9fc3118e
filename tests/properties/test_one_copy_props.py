"""Property tests pinning the one-copy file paths to what they replaced.

A file read gathers every extent's blocks into one list and joins it
once; a block-aligned ``write_file`` goes to the block tree unstaged.
The read oracle below is the assembly the read path replaced — each
extent joined, copied into a zero-filled bytearray, copied out and
trimmed — kept here so the gather must return the same bytes *and* touch
the buffer cache, the I/O recorder and the member disks exactly as the
assembly did.
"""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.chaos.verify import volume_digest
from repro.storage.device import IoRecorder
from repro.nvram.log import OP_OVERHEAD
from repro.wafl.blocktree import BlockTree
from repro.wafl.consts import BLOCK_SIZE, NDIRECT, PTRS_PER_BLOCK

from tests.conftest import make_fs

_slow = settings(max_examples=20, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow,
                                        HealthCheck.data_too_large])

NFILES = 4


def _payload(seed: int, nbytes: int) -> bytes:
    return bytes((seed * 131 + i * 7) % 251 + 1 for i in range(nbytes))


def _old_read_tree_bytes(fs, inode) -> bytes:
    """The read assembly the gather replaced, verbatim."""
    extents = BlockTree(fs, inode).extents()
    if (len(extents) == 1 and extents[0][0] == 0
            and extents[0][2] * BLOCK_SIZE >= inode.size):
        return fs.volume.read_run(extents[0][1], extents[0][2])[: inode.size]
    nblocks = (inode.size + BLOCK_SIZE - 1) // BLOCK_SIZE
    out = bytearray(nblocks * BLOCK_SIZE)
    for extent_fbn, extent_vbn, extent_len in extents:
        data = fs.volume.read_run(extent_vbn, extent_len)
        out[extent_fbn * BLOCK_SIZE : extent_fbn * BLOCK_SIZE + len(data)] = data
    return bytes(out)[: inode.size]


class _EventRecorder(IoRecorder):
    """Keeps every access as it came, before any coalescing."""

    def __init__(self):
        super().__init__()
        self.events = []

    def on_read(self, start_block: int, nblocks: int = 1) -> None:
        self.events.append(("read", start_block, nblocks))
        super().on_read(start_block, nblocks)

    def on_write(self, start_block: int, nblocks: int = 1) -> None:
        self.events.append(("write", start_block, nblocks))
        super().on_write(start_block, nblocks)


def _aged_fs():
    """A small-cache file system whose free space is fragmented: every
    other file of a populated directory is deleted, so a file written
    afterwards lands in several extents."""
    fs = make_fs(cache_blocks=48)
    fs.mkdir("/age")
    for index in range(24):
        fs.create("/age/f%d" % index, _payload(index, (index % 5 + 1) * BLOCK_SIZE))
    fs.consistency_point()
    for index in range(0, 24, 2):
        fs.unlink("/age/f%d" % index)
    fs.consistency_point()
    return fs


file_ops = st.lists(
    st.tuples(
        st.sampled_from(["write", "write", "hole", "truncate"]),
        st.integers(0, NFILES - 1),
        st.integers(0, 24 * BLOCK_SIZE),   # offset, or the truncate size
        st.integers(1, 20 * BLOCK_SIZE),   # length of a write
        st.integers(0, 255),
    ),
    min_size=1, max_size=14,
)


@_slow
@given(file_ops, st.lists(st.integers(0, 2 * BLOCK_SIZE), min_size=NFILES,
                          max_size=NFILES))
def test_a_file_read_is_the_old_assembly_to_the_byte_and_the_touch(ops, cuts):
    fs = _aged_fs()
    paths = ["/f%d" % index for index in range(NFILES)]
    model = {path: bytearray() for path in paths}
    for path in paths:
        fs.create(path)
    for kind, index, offset, length, seed in ops:
        path = paths[index]
        if kind == "truncate":
            fs.truncate(path, offset)
            del model[path][offset:]
            model[path].extend(bytes(offset - len(model[path])))
            continue
        if kind == "hole":
            # A sparse write far out: holes, then indirect blocks.
            offset += (NDIRECT + (PTRS_PER_BLOCK if seed % 2 else 0)) * BLOCK_SIZE
            length = min(length, 3 * BLOCK_SIZE)
        data = _payload(seed, length)
        fs.write_file(path, data, offset)
        content = model[path]
        if len(content) < offset + length:
            content.extend(bytes(offset + length - len(content)))
        content[offset : offset + length] = data
    # Extents past the size: an inode cut short without freeing its
    # blocks, as a restore leaves a file between its block writes and
    # its truncate.
    for path, cut in zip(paths, cuts):
        inode = fs.inode(fs.namei(path))
        inode.size = max(0, inode.size - cut)
        del model[path][inode.size:]

    def observe(clone, by_path, by_ino):
        volume = clone.volume
        volume.recorder = _EventRecorder()
        got = []
        for _round in range(2):   # the second round hits what survived
            for path in paths:
                got.append(by_path(clone, path))
                got.append(by_ino(clone, clone.namei(path)))
        cache = volume.cache
        members = [disk.reads for group in volume.groups
                   for disk in group.data_disks + [group.parity_disk]]
        return (got, list(cache._blocks), cache.hits, cache.misses,
                cache.evictions, volume.recorder.events, members)

    new = observe(fs.clone_volume(),
                  lambda clone, path: clone.read_file(path),
                  lambda clone, ino: clone.read_by_ino(ino))
    old = observe(fs.clone_volume(),
                  lambda clone, path: _old_read_tree_bytes(
                      clone, clone.inode(clone.namei(path))),
                  lambda clone, ino: _old_read_tree_bytes(
                      clone, clone.inode(ino)))
    assert new[0] == old[0]
    assert new[0][:2 * NFILES] == [bytes(model[path])
                                   for path in paths for _twice in "ab"]
    assert new[1:] == old[1:]


@_slow
@given(st.integers(1, 6), st.integers(1, BLOCK_SIZE - 1),
       st.integers(1, BLOCK_SIZE - 1), st.integers(0, 4), st.integers(0, 255))
def test_an_aligned_write_lands_like_its_twin_with_unaligned_edges(
        nblocks, head, tail, first, seed):
    """``write_file`` of whole blocks goes down unstaged; the same blocks
    written as a buffer whose edges stop short of the block boundaries
    (the missing edge bytes already on disk) are staged and merged.  Both
    must leave the same disk bytes, parity and allocation, and each
    logged op must count its whole payload."""
    assume(head + tail < nblocks * BLOCK_SIZE)
    base = _payload(seed, (first + nblocks + 2) * BLOCK_SIZE)
    data = bytearray(_payload(seed + 1, nblocks * BLOCK_SIZE))
    offset = first * BLOCK_SIZE
    data[:head] = base[offset : offset + head]
    data[-tail:] = base[offset + len(data) - tail : offset + len(data)]
    data = bytes(data)
    twins = []
    for buffer, at in ((data, offset),
                       (data[head:-tail], offset + head)):
        fs = make_fs(nvram=True)
        fs.create("/f", base)
        fs.consistency_point()
        fs.write_file("/f", buffer, at)
        logged = fs.nvram.pending_ops()[-1]
        assert logged.nbytes == OP_OVERHEAD + len("/f") + len(buffer)
        assert fs.read_file("/f") == base[:offset] + data + base[offset + len(data):]
        twins.append((volume_digest(fs.volume), fs.volume.verify_parity(),
                      BlockTree(fs, fs.inode(fs.namei("/f"))).extents(),
                      fs.statfs()))
        fs.consistency_point()
        twins.append(volume_digest(fs.volume))
    aligned, aligned_cp, staged, staged_cp = twins
    assert aligned == staged
    assert aligned[1]
    assert aligned_cp == staged_cp
