"""Property tests pinning the extent-based data plane to per-block oracles.

The chunked ``VirtualDisk`` store, the batched RAID partial-stripe
read-modify-write, and the run-carrying dump-stream writer all replaced
per-block/per-kilobyte loops; each must stay bit-identical to the simple
loop it replaced, across randomized geometries and failure injections.
"""

import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos.verify import volume_digest
from repro.errors import PowerLossError, StorageError
from repro.obs.metrics import REGISTRY
from repro.raid.layout import make_geometry
from repro.raid.volume import RaidVolume
from repro.storage.device import IoRecorder
from repro.storage import disk as disk_module
from repro.storage.disk import CHUNK_BLOCKS, VirtualDisk
from repro.wafl.buffercache import BlockCache

from tests.conftest import make_drive, version_1_image

_fast = settings(max_examples=25, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

BS = 64          # small blocks keep randomized cases cheap
NBLOCKS = 2500   # many chunks, the last one partial: runs cross seams
assert NBLOCKS > 2 * CHUNK_BLOCKS and NBLOCKS % CHUNK_BLOCKS


def _payload(seed: int, nbytes: int) -> bytes:
    return bytes((seed * 31 + i) % 256 for i in range(nbytes))


# ---------------------------------------------------------------------------
# Chunked VirtualDisk vs a plain per-block dict
# ---------------------------------------------------------------------------

write_ops = st.lists(
    st.tuples(st.integers(0, NBLOCKS - 1), st.integers(1, 200),
              st.integers(0, 255)),
    min_size=1, max_size=30,
)


@_fast
@given(write_ops, st.integers(0, NBLOCKS - 1), st.integers(1, 300))
def test_chunked_store_matches_per_block_dict(ops, read_start, read_len):
    disk = VirtualDisk(NBLOCKS, block_size=BS, name="prop")
    reference = {}
    for start, length, seed in ops:
        length = min(length, NBLOCKS - start)
        data = _payload(seed, length * BS)
        disk.write_run(start, data)
        for i in range(length):
            reference[start + i] = data[i * BS : (i + 1) * BS]
    read_len = min(read_len, NBLOCKS - read_start)
    got = bytes(disk.read_run(read_start, read_len))
    expected = b"".join(
        reference.get(read_start + i, b"\0" * BS) for i in range(read_len)
    )
    assert got == expected
    # Per-block reads agree too (and never materialize zero chunks).
    for block in (read_start, read_start + read_len - 1):
        assert disk.read_block(block) == reference.get(block, b"\0" * BS)


def _disk_of(ops):
    disk = VirtualDisk(NBLOCKS, block_size=BS, name="prop")
    for start, length, seed in ops:
        length = min(length, NBLOCKS - start)
        disk.write_run(start, _payload(seed, length * BS))
    return disk


@_fast
@given(write_ops, st.integers(0, NBLOCKS - 1))
def test_chunked_store_pack_unpack_round_trip(ops, detour):
    disk = _disk_of(ops)
    image = disk.pack_chunks()
    # One codec, two readers: unpack_chunks and a per-block replay of
    # nonzero_blocks() rebuild the same disk, and every rebuild packs
    # back to the same image.
    unpacked = VirtualDisk(NBLOCKS, block_size=BS, name="prop")
    unpacked.unpack_chunks(image)
    assert bytes(unpacked.read_run(0, NBLOCKS)) == bytes(disk.read_run(0, NBLOCKS))
    replayed = VirtualDisk(NBLOCKS, block_size=BS, name="prop")
    for block, data in disk.nonzero_blocks():
        replayed.write_block(block, data)
    for rebuilt in (unpacked, replayed):
        assert list(rebuilt.nonzero_blocks()) == list(disk.nonzero_blocks())
        assert rebuilt.pack_chunks() == image
    # The image is a function of contents, not of history: a clone that
    # diverges (privatising — or, where ``detour`` lands in a virgin
    # chunk, materialising — a chunk) and converges again packs like the
    # disk that never took the detour.
    original = disk.read_block(detour)
    wanderer = disk.clone()
    wanderer.write_block(detour, bytes(b ^ 0xFF for b in original))
    assert wanderer.pack_chunks() != image
    wanderer.write_block(detour, original)
    assert wanderer.pack_chunks() == image
    assert disk.pack_chunks() == image
    # The unpacked disk is writable (views are rebuilt over mutable
    # buffers).
    unpacked.write_block(0, b"\xa5" * BS)
    assert unpacked.read_block(0) == b"\xa5" * BS


def test_written_then_zeroed_chunk_packs_like_a_virgin_one():
    touched = VirtualDisk(NBLOCKS, block_size=BS, name="prop")
    touched.write_block(3, b"\x07" * BS)
    touched.write_block(3, bytes(BS))
    virgin = VirtualDisk(NBLOCKS, block_size=BS, name="prop")
    assert list(touched.nonzero_blocks()) == list(virgin.nonzero_blocks())
    assert touched.pack_chunks() == virgin.pack_chunks()
    # ... and a disk rebuilt from it has no backing store for the empty
    # chunk.
    rebuilt = VirtualDisk(NBLOCKS, block_size=BS, name="prop")
    rebuilt.unpack_chunks(touched.pack_chunks())
    assert rebuilt._store._chunks == {}


def _patched(image, offset, fmt, *values):
    patched = bytearray(image)
    struct.pack_into(fmt, patched, offset, *values)
    return bytes(patched)


@_fast
@given(write_ops, st.integers(1, 2 ** 31), st.integers(0, 10 ** 6),
       st.binary(min_size=1, max_size=9))
def test_malformed_disk_images_are_rejected(ops, bump, cut, junk):
    disk = _disk_of(ops)
    disk.write_run(0, b"\x01" * (2 * BS))        # at least three non-zero
    disk.write_block(NBLOCKS - 1, b"\x02" * BS)  # blocks, ends included
    image = disk.pack_chunks()
    # (nblocks, count) | count ascending uint64 block indices | count rows
    nblocks, count = struct.unpack_from("<QQ", image, 0)
    indices = struct.unpack_from("<%dQ" % count, image, 16)
    assert nblocks == NBLOCKS and count >= 3
    assert len(image) == 16 + count * (8 + BS)
    assert list(indices) == [block for block, _ in disk.nonzero_blocks()]
    last = 16 + 8 * (count - 1)
    malformed = {
        "nblocks": _patched(image, 0, "<Q", NBLOCKS + bump),
        "block count high": _patched(image, 8, "<Q", count + bump),
        "block count low": _patched(image, 8, "<Q", count - 1),
        "block count absurd": _patched(image, 8, "<Q", 2 ** 64 - bump),
        "index past the disk": _patched(image, last, "<Q", NBLOCKS - 1 + bump),
        "duplicate index": _patched(image, 16, "<QQ", 0, 0),
        "unsorted indices": _patched(image, 16, "<QQ", 1, 0),
        "missing row": image[:-BS],
        "missing index and row": image[:16 + 8 * (count - 1)]
        + image[16 + 8 * count:-BS],
        "truncated": image[:cut % len(image)],
        "trailing bytes": image + junk,
        "version-1 layout": version_1_image(disk),
        "version-1 layout of an empty disk": version_1_image(
            VirtualDisk(NBLOCKS, block_size=BS)),
    }
    target = _disk_of(ops[:3])
    before = target.pack_chunks()
    for what, payload in malformed.items():
        with pytest.raises(StorageError) as refused:
            target.unpack_chunks(payload)
            pytest.fail("accepted an image with a bad %s" % what)
        assert "\n" not in str(refused.value), what
        # A refused image leaves the disk as it was.
        assert target.pack_chunks() == before, what
    target.unpack_chunks(image)
    assert target.pack_chunks() == image


def _chunked(chunk_blocks, nblocks=NBLOCKS):
    """An empty disk whose store is cut into ``chunk_blocks``-block chunks."""
    with mock.patch.object(disk_module, "CHUNK_BLOCKS", chunk_blocks):
        disk = VirtualDisk(nblocks, block_size=BS, name="prop")
    assert disk._store.chunk_stripes == chunk_blocks
    return disk


@_fast
@given(write_ops, st.sampled_from([1, 7, 64, NBLOCKS]),
       st.sampled_from([1, 7, 64, NBLOCKS]),
       st.integers(0, NBLOCKS - 1), st.integers(1, 300))
def test_an_image_does_not_know_how_its_writer_was_chunked(
        ops, written_in, read_in, read_start, read_len):
    """One image, whatever the chunk size on either side: a container or
    an env cache written today loads after the constant moves."""
    reference = _disk_of(ops)
    writer = _chunked(written_in)
    for start, length, seed in ops:
        length = min(length, NBLOCKS - start)
        writer.write_run(start, _payload(seed, length * BS))
    image = writer.pack_chunks()
    assert image == reference.pack_chunks()
    reader = _chunked(read_in)
    reader.unpack_chunks(image)
    assert reader.pack_chunks() == image
    assert list(reader.nonzero_blocks()) == list(reference.nonzero_blocks())
    read_len = min(read_len, NBLOCKS - read_start)
    expected = reference.read_run(read_start, read_len)
    assert writer.read_run(read_start, read_len) == expected
    assert reader.read_run(read_start, read_len) == expected
    # Only chunks holding a non-zero block got backing store.
    assert sorted(reader._store._chunks) == sorted(
        {block // read_in for block, _ in reference.nonzero_blocks()})


@_fast
@given(st.integers(0, NBLOCKS - 1), st.integers(0, NBLOCKS - 1),
       st.integers(1, 64))
def test_failed_blocks_poison_runs_and_heal(bad, start, length):
    disk = VirtualDisk(NBLOCKS, block_size=BS, name="prop")
    disk.write_run(0, _payload(1, 8 * BS))
    disk.fail_block(bad)
    length = min(length, NBLOCKS - start)
    covered = start <= bad < start + length
    if covered:
        with pytest.raises(StorageError):
            disk.read_run(start, length)
        with pytest.raises(StorageError):
            disk.read_block(bad)
    else:
        disk.read_run(start, length)
    disk.heal_block(bad)
    disk.read_run(start, length)


# ---------------------------------------------------------------------------
# A strided RAID column into the chunk store vs the same bytes contiguous
# ---------------------------------------------------------------------------

def _disk_state(disk):
    store = disk._store
    return (bytes(disk.read_run(0, disk.nblocks)) if not store._bad else None,
            sorted(store._chunks), sorted(store._shared), sorted(store._bad),
            disk.writes)


@_fast
@given(st.integers(0, NBLOCKS - 1), st.integers(1, 1400), st.integers(1, 5),
       st.integers(0, 4), st.integers(0, 255), st.booleans(),
       st.lists(st.integers(0, NBLOCKS - 1), max_size=4))
def test_strided_column_write_matches_contiguous_bytes(
        start, nrows, ndisks, column, seed, share, bad):
    """``mid[:, disk, :]`` of a striped buffer, handed over as a strided
    ``(n, block_size)`` array, lands exactly as its gathered bytes do:
    across chunk seams, onto clone-shared chunks (which go private; the
    source keeps its bytes) and over failed blocks (cleared)."""
    nrows = min(nrows, NBLOCKS - start)
    column %= ndisks
    striped = np.frombuffer(_payload(seed, nrows * ndisks * BS),
                            dtype=np.uint8).reshape(nrows, ndisks, BS)
    strided = striped[:, column, :]
    gathered = strided.tobytes()
    disks = []
    for _ in range(2):
        disk = VirtualDisk(NBLOCKS, block_size=BS, name="prop")
        disk.write_run(1000, _payload(9, 60 * BS))   # across a chunk seam
        source = disk.clone() if share else None
        for block in bad:
            disk.fail_block(block)
        disks.append((disk, source))
    (via_rows, rows_source), (via_bytes, bytes_source) = disks
    via_rows.write_run(start, strided)
    via_bytes.write_run(start, gathered)
    assert _disk_state(via_rows) == _disk_state(via_bytes)
    assert not any(start <= b < start + nrows for b in via_rows._store._bad)
    if share:
        expected = bytearray(NBLOCKS * BS)
        expected[1000 * BS : 1060 * BS] = _payload(9, 60 * BS)
        assert bytes(rows_source.read_run(0, NBLOCKS)) == bytes(expected)
        assert bytes(bytes_source.read_run(0, NBLOCKS)) == bytes(expected)


def test_all_zero_column_leaves_a_virgin_chunk_unmaterialized():
    nrows = CHUNK_BLOCKS + CHUNK_BLOCKS // 2      # all of chunk 0, half of 1
    disk = VirtualDisk(3 * CHUNK_BLOCKS, block_size=BS, name="prop")
    striped = np.zeros((nrows, 3, BS), dtype=np.uint8)
    striped[:, 0, :] = 0x5A                       # only column 0 has data
    striped[CHUNK_BLOCKS + 5:, 2, 5] = 1          # column 2: chunk 1 only
    disk.write_run(0, striped[:, 1, :])
    assert not disk._store._chunks and disk.writes == nrows
    disk.write_run(0, striped[:, 2, :])
    assert sorted(disk._store._chunks) == [1]
    assert bytes(disk.read_run(0, nrows)) == striped[:, 2, :].tobytes()
    with pytest.raises(StorageError):
        disk.write_run(0, np.zeros(BS + 1, dtype=np.uint8))


# ---------------------------------------------------------------------------
# verify_parity a chunk at a time vs one stripe at a time
# ---------------------------------------------------------------------------

def stripewise_verify_parity(group) -> bool:
    """The per-stripe loop ``RaidGroup.verify_parity`` replaced: XOR the
    members block by block; a stripe with an unreadable member (data or
    parity) cannot be cross-checked and is skipped."""
    for stripe in range(group.geometry.blocks_per_disk):
        acc = bytes(group.block_size)
        try:
            for disk in group.data_disks:
                acc = bytes(a ^ b for a, b in
                            zip(acc, disk.read_block(stripe)))
            parity = group.parity_disk.read_block(stripe)
        except StorageError:
            continue
        if acc != parity:
            return False
    return True


parity_faults = st.lists(
    st.tuples(st.integers(0, 1), st.integers(-1, 2), st.integers(0, 1299)),
    max_size=4)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(st.integers(0, 7799), st.integers(1, 400),
                          st.integers(0, 255)), min_size=1, max_size=6),
       parity_faults,
       st.one_of(st.none(), st.tuples(st.integers(0, 1), st.integers(0, 1299),
                                      st.integers(0, 7))),
       st.booleans())
def test_chunkwise_verify_parity_matches_stripewise_loop(
        writes, faults, flip, cloned):
    # 1300 stripes a disk: many chunks, the last one partial.
    volume = RaidVolume(make_geometry(2, 3, 1300, block_size=8), name="p")
    bs = volume.block_size
    for start, length, seed in writes:
        length = min(length, volume.nblocks - start)
        volume.write_run(start, _payload(seed, length * bs))
    if cloned:
        parent, volume = volume, volume.clone()
        volume.write_run(17, _payload(3, 40 * bs))
    for gi, disk_index, stripe in faults:
        group = volume.groups[gi]
        disk = (group.parity_disk if disk_index < 0
                else group.data_disks[disk_index])
        disk.fail_block(stripe)
    if flip is not None:
        gi, stripe, byte = flip
        parity = volume.groups[gi].parity_disk
        bad = (-1, stripe) in volume.groups[gi].bad_blocks()
        block = bytearray(parity.read_block(stripe)) if not bad else None
        if block is not None:
            block[byte] ^= 0x40
            parity.write_block(stripe, bytes(block))
    for group in volume.groups:
        assert group.verify_parity() == stripewise_verify_parity(group)
    assert volume.verify_parity() == all(
        stripewise_verify_parity(group) for group in volume.groups)
    if cloned:
        assert parent.verify_parity()


# ---------------------------------------------------------------------------
# Batched partial-stripe RMW vs scalar write_block
# ---------------------------------------------------------------------------

raid_writes = st.lists(
    st.tuples(st.integers(0, 239), st.integers(1, 60), st.integers(0, 255)),
    min_size=1, max_size=12,
)


def _volume_image(volume):
    """Raw bytes of every data and parity disk (the full physical state)."""
    chunks = []
    for group in volume.groups:
        for disk in list(group.data_disks) + [group.parity_disk]:
            chunks.append(bytes(disk.read_run(0, disk.nblocks)))
    return b"".join(chunks)


# Three data disks, and four: a stripe's width decides which runs are
# partial, and the RMW stacks as many columns as it covers.
raid_geometries = st.sampled_from([(2, 3, 40), (2, 4, 30)])


def _write_from_view(volume, start, data, lead):
    """``data`` as the RAID layer gets it from a block tree: a memoryview
    of a larger buffer, at an offset into it."""
    buffer = memoryview(bytes(lead) + data + bytes(volume.block_size))
    volume.write_run(start, buffer, lead, len(data) // volume.block_size)


@_fast
@given(raid_writes, raid_geometries, st.integers(0, 3 * BS))
def test_write_run_matches_scalar_write_block(writes, geometry, lead):
    batched = RaidVolume(make_geometry(*geometry), name="a")
    reference = RaidVolume(make_geometry(*geometry), name="b")
    bs = batched.block_size
    for start, length, seed in writes:
        length = min(length, batched.nblocks - start)
        data = _payload(seed, length * bs)
        _write_from_view(batched, start, data, lead)
        for i in range(length):
            reference.write_block(start + i, data[i * bs : (i + 1) * bs])
    assert _volume_image(batched) == _volume_image(reference)
    assert batched.verify_parity() and reference.verify_parity()


@_fast
@given(raid_writes, st.integers(0, 239), raid_geometries, st.integers(0, 3 * BS))
def test_write_run_matches_scalar_under_media_failure(writes, bad_block,
                                                      geometry, lead):
    """A failed old column forces the per-block reconstruct fallback; the
    final physical state must match the scalar path hitting the same
    failure."""
    volumes = [RaidVolume(make_geometry(*geometry), name=n) for n in "ab"]
    bs = volumes[0].block_size
    seed_data = _payload(7, volumes[0].nblocks * bs)
    for volume in volumes:
        volume.write_run(0, seed_data)
        loc = volume.locate(bad_block)
        group = volume.groups[loc.group_index]
        stripe = loc.group_block // len(group.data_disks)
        column = loc.group_block % len(group.data_disks)
        group.data_disks[column].fail_block(stripe)
    batched, reference = volumes
    for start, length, seed in writes:
        length = min(length, batched.nblocks - start)
        data = _payload(seed, length * bs)
        _write_from_view(batched, start, data, lead)
        for i in range(length):
            reference.write_block(start + i, data[i * bs : (i + 1) * bs])
    for volume in volumes:
        loc = volume.locate(bad_block)
        group = volume.groups[loc.group_index]
        stripe = loc.group_block // len(group.data_disks)
        column = loc.group_block % len(group.data_disks)
        group.data_disks[column].heal_block(stripe)
    assert _volume_image(batched) == _volume_image(reference)


# ---------------------------------------------------------------------------
# One block path: the scalar names vs the run form at n = 1
# ---------------------------------------------------------------------------

def _scalar_route(volume, op, block, data):
    if op == "read":
        return volume.read_block(block)
    volume.write_block(block, data)


def _run_route(volume, op, block, data):
    if op == "read":
        return volume.read_run(block, 1)
    volume.write_run(block, data)


def _offset_route(volume, op, block, data):
    """The block sits inside a larger buffer, as a file's tail block does."""
    if op == "read":
        return volume.read_run(block, 1)
    pad = len(data) * (block % 3)
    volume.write_run(block, bytearray(pad) + data + bytes(len(data)), pad, 1)


def _single_block_trace(volume, route, ops, fuse):
    """Everything observable after ``ops`` went down one route."""
    volume.recorder = IoRecorder()
    if fuse:
        volume.arm_write_fuse(fuse)
    REGISTRY.reset()
    REGISTRY.enabled = True
    results = []
    try:
        for op, block, seed in ops:
            try:
                results.append(route(
                    volume, op, block, _payload(seed, volume.block_size)))
            except PowerLossError as exc:
                results.append(str(exc))
        metrics = REGISTRY.snapshot()
    finally:
        REGISTRY.reset()
        REGISTRY.enabled = False
    cache = volume.cache
    return (results, volume_digest(volume),
            [(disk.reads, disk.writes) for group in volume.groups
             for disk in group.data_disks + [group.parity_disk]],
            volume.recorder._pending,
            cache is not None and (cache.hits, cache.misses, cache.evictions,
                                   list(cache._blocks)),
            metrics)


@_fast
@given(st.lists(st.tuples(st.sampled_from(["read", "write"]),
                          st.integers(0, 59), st.integers(0, 255)),
                min_size=1, max_size=40),
       st.sampled_from([(2, 3), (1, 1), (3, 2)]),
       st.sampled_from([None, 4, 64]), st.booleans(),
       st.one_of(st.none(), st.integers(0, 59)),
       st.one_of(st.none(), st.integers(1, 12)))
def test_scalar_names_are_the_run_form_at_one_block(
        ops, shape, cache_blocks, uncached_reads, bad_block, fuse):
    ngroups, ndata = shape
    origin = RaidVolume(
        make_geometry(ngroups, ndata, 60 // (ngroups * ndata), block_size=BS),
        name="one")
    origin.write_run(0, _payload(3, origin.nblocks * BS))
    if cache_blocks:
        origin.cache = BlockCache(cache_blocks)
        origin.read_run(5, 8)  # resident blocks for the routes to hit
    origin.uncached_reads = uncached_reads
    before = volume_digest(origin)
    traces = []
    for route in (_scalar_route, _run_route, _offset_route):
        volume = origin.clone()  # chunk-sharing: nobody may write through
        if bad_block is not None:
            loc = volume.locate(bad_block)
            volume.groups[loc.group_index].data_disks[loc.disk_index] \
                .fail_block(loc.disk_block)
        traces.append(_single_block_trace(volume, route, ops, fuse))
    assert traces[0] == traces[1] == traces[2]
    assert volume_digest(origin) == before


def _member_counts(volume):
    return ([disk.reads for group in volume.groups
             for disk in group.data_disks + [group.parity_disk]],
            [group.reconstructed_reads for group in volume.groups])


@_fast
@given(st.integers(0, 119), st.integers(1, 120),
       st.sampled_from([(2, 3), (1, 1), (3, 2), (1, 4)]),
       st.one_of(st.none(), st.integers(0, 119)), st.booleans())
def test_a_run_read_is_its_block_reads_hit_or_miss(
        start, length, shape, bad_block, resident):
    """One gather serves hits and misses.  A run read returns what its
    block reads return — across chunk seams, unmaterialized chunks, RAID
    groups and an unreadable member; a miss counts on every member what
    the block reads count; a hit counts and reconstructs nothing."""
    ngroups, ndata = shape
    with mock.patch.object(disk_module, "CHUNK_BLOCKS", 4):
        volume = RaidVolume(
            make_geometry(ngroups, ndata, 120 // (ngroups * ndata),
                          block_size=BS), name="run")
    length = min(length, volume.nblocks - start)
    volume.write_run(0, _payload(5, 50 * BS))     # the rest stays sparse
    volume.write_run(90, _payload(9, 30 * BS))
    if bad_block is not None:
        loc = volume.locate(bad_block)
        volume.groups[loc.group_index].data_disks[loc.disk_index] \
            .fail_block(loc.disk_block)
    blockwise = volume.clone()
    expected = b"".join(blockwise.read_block(start + index)
                        for index in range(length))
    untouched = _member_counts(volume)
    if resident:
        volume.cache = BlockCache(256)
        volume.cache.put_run(start, length)
    volume.recorder = IoRecorder()
    assert volume.read_run(start, length) == expected
    if resident:
        assert _member_counts(volume) == untouched
        assert volume.recorder.drain() == []
    else:
        assert _member_counts(volume) == _member_counts(blockwise)
        assert volume.recorder.drain() == [("read", start, length)]


def test_only_the_buffer_cache_reads_its_own_dict():
    """``BlockCache._blocks`` is private to its module: the volume goes
    through ``get``/``get_run``/``put_run`` like everyone else."""
    import pathlib

    import repro

    root = pathlib.Path(repro.__file__).parent
    offenders = [
        "%s:%d" % (path.relative_to(root), number)
        for path in sorted(root.rglob("*.py"))
        if path.relative_to(root).as_posix() != "wafl/buffercache.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if "._blocks" in line]
    assert offenders == []


def _plain_put_run(cache, start_vbn, nblocks):
    """``put_run`` as the plain loop: every block goes in, oldest first
    out — whatever the run's length against the cache's."""
    blocks = cache._blocks
    for vbn in range(start_vbn, start_vbn + nblocks):
        if vbn in blocks:
            blocks.move_to_end(vbn)
        blocks[vbn] = None
    while len(blocks) > cache.capacity:
        blocks.popitem(last=False)
        cache.evictions += 1


def _plain_get_run(cache, start_vbn, nblocks):
    """``get_run`` block by block: all resident or one miss, and only a
    hit refreshes anything."""
    blocks = cache._blocks
    run = range(start_vbn, start_vbn + nblocks)
    if not all(vbn in blocks for vbn in run):
        cache.misses += 1
        return False
    for vbn in run:
        blocks.move_to_end(vbn)
    cache.hits += nblocks
    return True


def _cache_state(cache):
    return (cache.hits, cache.misses, cache.evictions, list(cache._blocks),
            len(cache), cache.hit_rate)


@_fast
@given(st.sampled_from([1, 3, 8, 32]),
       st.lists(st.tuples(st.sampled_from(["put", "put", "get", "get_run"]),
                          st.integers(0, 70), st.integers(1, 80)),
                min_size=1, max_size=25))
def test_a_run_longer_than_the_cache_goes_in_like_the_plain_loop(
        capacity, ops):
    """Only a long run's tail is inserted; residency, LRU order and every
    counter cannot tell — against the per-block model, lookups included
    (``get`` is the model's one-block ``get_run``)."""
    cache, plain = BlockCache(capacity), BlockCache(capacity)
    for op, start, nblocks in ops:
        if op == "put":
            cache.put_run(start, nblocks)
            _plain_put_run(plain, start, nblocks)
        elif op == "get":
            assert cache.get(start) is _plain_get_run(plain, start, 1)
        else:
            assert cache.get_run(start, nblocks) is _plain_get_run(
                plain, start, nblocks)
        assert _cache_state(cache) == _cache_state(plain)


# ---------------------------------------------------------------------------
# Run-carrying dump records vs the per-kilobyte compat path
# ---------------------------------------------------------------------------

segment_shapes = st.lists(
    st.tuples(st.booleans(), st.integers(1, 40), st.integers(0, 255)),
    min_size=1, max_size=10,
)


@_fast
@given(segment_shapes)
def test_run_fed_records_match_per_kilobyte_feed(shape):
    import io

    from repro.dumpfmt.records import RecordHeader, TapeLabel
    from repro.dumpfmt.spec import SEGMENT_SIZE, TS_INODE
    from repro.dumpfmt.stream import (
        DumpStreamReader,
        DumpStreamWriter,
        runs_to_data,
        segments_to_runs,
    )
    from repro.wafl.inode import FileType

    segments = []
    for is_hole, count, seed in shape:
        for i in range(count):
            segments.append(
                None if is_hole else _payload(seed + i, SEGMENT_SIZE))
    if segments[-1] is None:
        segments.append(_payload(3, SEGMENT_SIZE))
    size = len(segments) * SEGMENT_SIZE

    def dump(feed):
        drive = make_drive()
        writer = DumpStreamWriter(drive, date=100, ddate=0)
        writer.write_tape_header(TapeLabel("prop", "fs", "/", 0, 2, 8))
        writer.write_clri([], 8)
        writer.write_bits([2], 8)
        header = RecordHeader(TS_INODE, 2)
        header.size = size
        header.ftype = FileType.REGULAR
        writer.begin_inode(header)
        feed(writer)
        writer.end_inode()
        writer.write_end()
        return drive.stream_bytes()

    def feed_runs(writer):
        for count, buf in segments_to_runs(segments):
            if buf is None:
                writer.feed_holes(count)
            else:
                writer.feed_data(buf, count)

    def feed_segments(writer):
        writer.feed_segments(segments)

    run_stream = dump(feed_runs)
    segment_stream = dump(feed_segments)
    assert run_stream == segment_stream

    reader = DumpStreamReader(io.BytesIO(run_stream))
    reader.read_preamble()
    entry = reader.next_inode()
    expected = b"".join(s if s is not None else b"\0" * SEGMENT_SIZE
                        for s in segments)
    assert runs_to_data(entry.runs, size) == expected
