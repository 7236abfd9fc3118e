"""Property tests pinning the extent-based data plane to per-block oracles.

The chunked ``VirtualDisk`` store, the batched RAID partial-stripe
read-modify-write, and the run-carrying dump-stream writer all replaced
per-block/per-kilobyte loops; each must stay bit-identical to the simple
loop it replaced, across randomized geometries and failure injections.
"""

import pickle
import struct

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
from repro.storage.disk import VirtualDisk
from repro.wafl.buffercache import BlockCache

_fast = settings(max_examples=25, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

BS = 64          # small blocks keep randomized cases cheap
NBLOCKS = 2500   # > one chunk (1024 blocks), so runs cross chunk seams


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
def test_chunked_store_pickle_round_trip(ops, detour):
    disk = _disk_of(ops)
    image = disk.pack_chunks()
    clone = pickle.loads(pickle.dumps(disk))
    assert bytes(clone.read_run(0, NBLOCKS)) == bytes(disk.read_run(0, NBLOCKS))
    # One codec, three readers: the pickle, unpack_chunks, and a
    # per-block replay of nonzero_blocks() rebuild the same disk, and
    # every rebuild packs back to the same image.
    unpacked = VirtualDisk(NBLOCKS, block_size=BS, name="prop")
    unpacked.unpack_chunks(image)
    replayed = VirtualDisk(NBLOCKS, block_size=BS, name="prop")
    for block, data in disk.nonzero_blocks():
        replayed.write_block(block, data)
    for rebuilt in (clone, unpacked, replayed):
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
    # The clone is writable (views must be rebuilt over mutable buffers).
    clone.write_block(0, b"\xa5" * BS)
    assert clone.read_block(0) == b"\xa5" * BS


def test_written_then_zeroed_chunk_packs_like_a_virgin_one():
    touched = VirtualDisk(NBLOCKS, block_size=BS, name="prop")
    touched.write_block(3, b"\x07" * BS)
    touched.write_block(3, bytes(BS))
    virgin = VirtualDisk(NBLOCKS, block_size=BS, name="prop")
    assert list(touched.nonzero_blocks()) == list(virgin.nonzero_blocks())
    assert touched.pack_chunks() == virgin.pack_chunks()
    # The pickle carries that image (beside the I/O counters, which
    # do record history).
    assert touched.__getstate__()["_chunks"] == virgin.pack_chunks()
    # ... and the rebuilt disk has no backing store for the empty chunk.
    assert pickle.loads(pickle.dumps(touched))._chunks == {}


def _patched(image, offset, fmt, *values):
    patched = bytearray(image)
    struct.pack_into(fmt, patched, offset, *values)
    return bytes(patched)


@_fast
@given(write_ops, st.integers(1, 2 ** 31), st.integers(0, 10 ** 6),
       st.binary(min_size=1, max_size=9))
def test_malformed_disk_images_are_rejected(ops, bump, cut, junk):
    disk = _disk_of(ops)
    disk.write_run(0, b"\x01" * (2 * BS))        # chunk 0 and chunk 2 both
    disk.write_block(NBLOCKS - 1, b"\x02" * BS)  # hold data: >= 2 entries
    image = disk.pack_chunks()
    nchunks = struct.unpack_from("<I", image, 12)[0]
    entries = []                     # (offset, nonzero rows) per chunk
    offset = 16
    for _ in range(nchunks):
        index, rows, nnz = struct.unpack_from("<III", image, offset)
        assert rows == 1024
        entries.append((offset, nnz))
        offset += 12 + nnz * (4 + BS)
    assert offset == len(image) and nchunks >= 2
    (first, nnz0), (second, _), (last, nnz_last) = (
        entries[0], entries[1], entries[-1])
    malformed = {
        "nblocks": _patched(image, 0, "<Q", NBLOCKS + bump),
        "chunk blocks": _patched(image, 8, "<I", 1024 + bump),
        "chunk count high": _patched(image, 12, "<I", nchunks + bump),
        "chunk count low": _patched(image, 12, "<I", nchunks - 1),
        "chunk index past the disk": _patched(
            image, first, "<I", 3 + bump % 1000),
        "duplicate chunk index": _patched(image, second, "<I", 0),
        "unsorted chunk indices": _patched(
            _patched(image, first, "<I", 1), second, "<I", 0),
        "row count": _patched(image, first + 4, "<I", 1025 + bump % 1000),
        "nonzero count": _patched(image, first + 8, "<I", nnz0 + bump),
        "row index past the chunk": _patched(
            image, first + 12 + 4 * (nnz0 - 1), "<I", 1025 + bump % 1000),
        "duplicate row index": _patched(image, first + 12, "<II", 0, 0),
        "unsorted row indices": _patched(image, first + 12, "<II", 1, 0),
        "row index past the disk": _patched(
            image, last + 12 + 4 * (nnz_last - 1), "<I",
            NBLOCKS - 2 * 1024),
        "truncated": image[:cut % len(image)],
        "trailing bytes": image + junk,
    }
    target = _disk_of(ops[:3])
    before = target.pack_chunks()
    for what, payload in malformed.items():
        with pytest.raises(StorageError):
            target.unpack_chunks(payload)
            pytest.fail("accepted an image with a bad %s" % what)
        # A refused image leaves the disk as it was.
        assert target.pack_chunks() == before, what
    target.unpack_chunks(image)
    assert target.pack_chunks() == image


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
    return (bytes(disk.read_run(0, disk.nblocks)) if not disk._bad else None,
            sorted(disk._chunks), sorted(disk._shared), sorted(disk._bad),
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
        disk.write_run(1000, _payload(9, 60 * BS))   # chunks 0 and 1 exist
        source = disk.clone() if share else None
        for block in bad:
            disk.fail_block(block)
        disks.append((disk, source))
    (via_rows, rows_source), (via_bytes, bytes_source) = disks
    via_rows.write_run(start, strided)
    via_bytes.write_run(start, gathered)
    assert _disk_state(via_rows) == _disk_state(via_bytes)
    assert not any(start <= b < start + nrows for b in via_rows._bad)
    if share:
        expected = bytearray(NBLOCKS * BS)
        expected[1000 * BS : 1060 * BS] = _payload(9, 60 * BS)
        assert bytes(rows_source.read_run(0, NBLOCKS)) == bytes(expected)
        assert bytes(bytes_source.read_run(0, NBLOCKS)) == bytes(expected)


def test_all_zero_column_leaves_a_virgin_chunk_unmaterialized():
    disk = VirtualDisk(3 * 1024, block_size=BS, name="prop")
    striped = np.zeros((1500, 3, BS), dtype=np.uint8)
    striped[:, 0, :] = 0x5A                       # only column 0 has data
    striped[1100:, 2, 5] = 1                      # column 2: chunk 1 only
    disk.write_run(0, striped[:, 1, :])
    assert not disk._chunks and disk.writes == 1500
    disk.write_run(0, striped[:, 2, :])
    assert sorted(disk._chunks) == [1]
    assert bytes(disk.read_run(0, 1500)) == striped[:, 2, :].tobytes()
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
    # 1300 stripes a disk: two chunks, the second one partial.
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
        bad = stripe in parity._bad
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


@_fast
@given(raid_writes)
def test_write_run_matches_scalar_write_block(writes):
    batched = RaidVolume(make_geometry(2, 3, 40), name="a")
    reference = RaidVolume(make_geometry(2, 3, 40), name="b")
    bs = batched.block_size
    for start, length, seed in writes:
        length = min(length, batched.nblocks - start)
        data = _payload(seed, length * bs)
        batched.write_run(start, data)
        for i in range(length):
            reference.write_block(start + i, data[i * bs : (i + 1) * bs])
    assert _volume_image(batched) == _volume_image(reference)
    assert batched.verify_parity() and reference.verify_parity()


@_fast
@given(raid_writes, st.integers(0, 239))
def test_write_run_matches_scalar_under_media_failure(writes, bad_block):
    """A failed old column forces the per-block reconstruct fallback; the
    final physical state must match the scalar path hitting the same
    failure."""
    volumes = [RaidVolume(make_geometry(2, 3, 40), name=n) for n in "ab"]
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
        batched.write_run(start, data)
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
        origin.read_run(5, 8)  # lazy entries for the routes to materialize
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
        sink = io.BytesIO()
        writer = DumpStreamWriter(sink, date=100, ddate=0)
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
        return sink.getvalue()

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
