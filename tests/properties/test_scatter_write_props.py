"""A run written as a list of buffers lands exactly as its join does.

The volume write path takes a buffer, or a list of buffers whose join is
the run (a block-map run comes as its slabs' pieces).  Whatever the
split — across chunk and RAID-group seams, with empty pieces and
read-only views of zeros — the list write must leave the same chunks and
bytes, per-column ``reads``/``writes``, bad-block marks, recorder events
and cache residency as the joined buffer, and an armed write fuse must
tear the same block with the same bytes and raise the same error.  It
takes as many stripe-writer passes (``_write_rows``, ``_write_full``,
``_write_partial``) as the joined buffer does: the pieces of a list go
down in one pass, not a pass each.
"""

import random
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos.verify import volume_digest
from repro.errors import PowerLossError, RaidError
from repro.raid.group import RaidGroup
from repro.raid.layout import make_geometry
from repro.raid.volume import RaidVolume
from repro.storage.device import IoRecorder
from repro.storage.disk import CHUNK_BLOCKS
from repro.wafl.blocktree import BlockTree
from repro.wafl.buffercache import BlockCache
from repro.wafl.consts import BLOCK_SIZE

from tests.conftest import make_fs, map_words

_fast = settings(max_examples=40, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow,
                                        HealthCheck.data_too_large])

SMALL = 64   # block size of the volume cases: many cases, tiny volumes


def _payload(rng, nblocks, bs):
    """``nblocks`` blocks, each all zeros or random bytes."""
    return b"".join(bytes(bs) if rng.random() < 0.4 else rng.randbytes(bs)
                    for _block in range(nblocks))


def _split(rng, data):
    """``data`` cut at random byte offsets into a list of pieces, some
    empty; an all-zero piece is sometimes a read-only view of zeros."""
    cuts = sorted(rng.randint(0, len(data))
                  for _cut in range(rng.randint(0, 12)))
    zeros = memoryview(bytes(len(data)))
    pieces = []
    for lo, hi in zip([0] + cuts, cuts + [len(data)]):
        piece = data[lo:hi]
        if not piece.strip(b"\0") and rng.random() < 0.7:
            pieces.append(zeros[: hi - lo])
        else:
            pieces.append(piece)
    assert b"".join(pieces) == data
    return pieces


@contextmanager
def _stripe_passes():
    """Count the calls of each stripe writer of every group."""
    calls = {}
    names = ("_write_rows", "_write_full", "_write_partial")
    originals = {name: getattr(RaidGroup, name) for name in names}

    def counted(name):
        def call(self, *args):
            calls[name] = calls.get(name, 0) + 1
            return originals[name](self, *args)
        return call

    for name in names:
        setattr(RaidGroup, name, counted(name))
    try:
        yield calls
    finally:
        for name, original in originals.items():
            setattr(RaidGroup, name, original)


def _outcome(write):
    try:
        write()
    except (PowerLossError, RaidError) as error:
        return type(error).__name__, str(error)
    return None


def _volume_state(volume):
    """Everything a write may change: each group's chunks and bytes,
    counters and fault marks, then the recorder's events and the cache."""
    groups = []
    for group in volume.groups:
        store = group.store
        groups.append((
            [(ci, store._chunks[ci].tobytes()) for ci in sorted(store._chunks)],
            list(store.reads), list(store.writes), group.bad_blocks()))
    return (groups, volume.recorder.drain(), list(volume.cache._blocks),
            volume.cache.hits, volume.cache.misses)


@st.composite
def _volume_cases(draw):
    ndata = draw(st.sampled_from([3, 4, 5, 7]))
    ngroups = draw(st.integers(1, 3))
    per_disk = draw(st.integers(4, 40))
    nblocks = ngroups * ndata * per_disk
    # A run from just before a chunk or RAID-group seam (a chunk holds
    # CHUNK_BLOCKS // ndata stripes, storage/disk.py).
    group_blocks = ndata * per_disk
    span = min(CHUNK_BLOCKS // ndata, per_disk) * ndata
    seam = draw(st.sampled_from([group * group_blocks + block
                                 for group in range(ngroups)
                                 for block in range(0, group_blocks, span)]))
    start = max(0, seam - draw(st.integers(0, 2 * ndata)))
    count = draw(st.integers(1, nblocks - start))
    fuse = draw(st.one_of(st.none(), st.integers(1, count + 2)))
    faults = draw(st.lists(st.tuples(st.integers(0, nblocks - 1),
                                     st.booleans()), max_size=2))
    return ndata, ngroups, per_disk, start, count, fuse, faults, draw(
        st.integers(0, 2 ** 32))


@_fast
@given(_volume_cases())
def test_volume_list_write_equals_its_join(case):
    ndata, ngroups, per_disk, start, count, fuse, faults, seed = case
    rng = random.Random(seed)
    base = RaidVolume(make_geometry(ngroups, ndata, per_disk,
                                    block_size=SMALL), name="v")
    # Some chunks held with data, the rest absent.
    for _write in range(rng.randint(0, 4)):
        at = rng.randrange(base.nblocks)
        length = rng.randint(1, min(40, base.nblocks - at))
        base.write_run(at, _payload(rng, length, SMALL))
    for block, parity in faults:
        where = base.locate(block)
        group = base.groups[where.group_index]
        disk = (group.parity_disk if parity
                else group.data_disks[where.disk_index])
        disk.fail_block(where.disk_block)
    lead, trail = rng.randint(0, 3), rng.randint(0, 2)
    data = _payload(rng, lead + count + trail, SMALL)
    pieces = _split(rng, data)
    twins = []
    for run in (data, pieces):
        volume = base.clone()
        volume.cache = BlockCache(64)
        volume.recorder = IoRecorder()
        if fuse is not None:
            volume.arm_write_fuse(fuse)
        with _stripe_passes() as passes:
            outcome = _outcome(lambda: volume.write_run(
                start, run, lead * SMALL, count))
        twins.append((outcome, _volume_state(volume), passes))
    assert twins[0] == twins[1]
    if faults:
        return
    # Against the bytes themselves: the blocks that landed are the run's,
    # and a torn block is half new, half what it held.
    volume.disarm_write_fuse()
    landed = count if fuse is None or fuse > count else fuse - 1
    new = data[lead * SMALL :]
    if landed:
        assert volume.read_run(start, landed) == new[: landed * SMALL]
    if landed < count:
        assert outcome == ("PowerLossError", "torn write at block %d of 'v'"
                           % (start + landed))
        half = SMALL // 2
        torn = volume.read_block(start + landed)
        assert torn[:half] == new[landed * SMALL : landed * SMALL + half]
        assert torn[half:] == base.read_block(start + landed)[half:]


@_fast
@given(st.sampled_from([3, 4, 5, 7]), st.integers(0, 2 ** 32))
def test_volume_list_write_without_a_count_takes_the_whole_list(ndata, seed):
    rng = random.Random(seed)
    joined, listed = (RaidVolume(make_geometry(2, ndata, 30, block_size=SMALL),
                                 name="v") for _twin in range(2))
    start = rng.randrange(joined.nblocks)
    data = _payload(rng, rng.randint(1, joined.nblocks - start), SMALL)
    with _stripe_passes() as joined_passes:
        joined.write_run(start, data)
    with _stripe_passes() as listed_passes:
        listed.write_run(start, _split(rng, data))
    assert listed_passes == joined_passes
    assert volume_digest(joined) == volume_digest(listed)
    assert listed.read_run(start, len(data) // SMALL) == data


def test_a_list_too_short_for_its_run_raises_before_anything_moves():
    volume = RaidVolume(make_geometry(2, 3, 30, block_size=SMALL), name="v")
    volume.write_run(0, bytes([9]) * (8 * SMALL))
    volume.cache, volume.recorder = BlockCache(64), IoRecorder()
    before = _volume_state(volume)
    pieces = [bytes([1]) * (5 * SMALL), memoryview(bytes(SMALL))]
    with pytest.raises(RaidError, match="past the end"):
        volume.write_run(1, pieces, 0, 7)
    assert _volume_state(volume) == before


def _cow_fs(ndata, seed):
    """A small file system holding a file whose blocks mix committed
    pointers, fresh (rewritable in place) pointers and holes."""
    rng = random.Random(seed)
    fs = make_fs(ngroups=2, ndata=ndata, blocks_per_disk=160,
                 cache_blocks=256)
    fs.create("/m")
    tree = BlockTree(fs, fs.inode(fs.namei("/m")))
    nblocks = 120
    for fbn in range(nblocks):
        if rng.random() < 0.5:
            tree.write_fblock(fbn, bytes([fbn % 251 + 1]) * BLOCK_SIZE)
    tree.flush()
    fs.consistency_point()
    tree = BlockTree(fs, fs.inode(fs.namei("/m")))
    fbn = 0
    while fbn < nblocks:
        length = rng.randint(1, 20)
        if rng.random() < 0.5:
            tree.write_run(fbn, bytes([7]) * (min(length, nblocks - fbn)
                                              * BLOCK_SIZE))
        fbn += length + rng.randint(0, 10)
    tree.flush()
    fs.volume.recorder = IoRecorder()
    return fs, tree


@_fast
@given(st.sampled_from([3, 4, 5, 7]), st.integers(0, 2 ** 32),
       st.integers(0, 2 ** 32))
def test_cow_run_list_write_equals_its_join(ndata, fs_seed, seed):
    rng = random.Random(seed)
    first = rng.randrange(110)
    count = rng.randint(1, 130 - first)
    data = _payload(rng, count, BLOCK_SIZE)
    pieces = _split(rng, data)
    twins = []
    for run in (data, pieces):
        fs, tree = _cow_fs(ndata, fs_seed)
        tree.write_cow_run(first, run)
        tree.flush()
        twins.append((
            fs.volume.recorder.drain(),
            [tree.get_pointer(fbn) for fbn in range(first + count)],
            map_words(fs.blockmap).tobytes(), sorted(fs._fresh_blocks),
            volume_digest(fs.volume),
            [(group.store.reads, group.store.writes)
             for group in fs.volume.groups],
            list(fs.volume.cache._blocks)))
        assert (b"".join(tree.read_fblock(fbn)
                         for fbn in range(first, first + count)) == data)
    assert twins[0] == twins[1]
