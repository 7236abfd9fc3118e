"""Each byte is resident once per device it lives on.

The simulated disks and tapes are themselves memory, so a second copy of
their contents anywhere — in the buffer cache, in a tape's backing
buffer beside the records it was handed — is resident memory for
nothing.  Wall clock cannot gate that on a shared sandbox;
``tracemalloc`` can (numpy reports its buffers to it).
"""

from __future__ import annotations

import tracemalloc

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.raid.layout import make_geometry
from repro.raid.volume import RaidVolume
from repro.wafl.buffercache import BlockCache

from tests.conftest import make_drive


def test_a_cached_read_leaves_residency_behind_not_bytes():
    nblocks = 2000
    volume = RaidVolume(make_geometry(2, 4, 400), name="resident")
    payload = bytes(range(256)) * (nblocks * volume.block_size // 256)
    volume.write_run(100, payload)
    volume.cache = BlockCache(4096)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cold = volume.read_run(100, nblocks)
        warm = volume.read_run(100, nblocks)
        assert cold == warm == payload
        assert (volume.cache.misses, volume.cache.hits) == (1, nblocks)
        del cold, warm
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(volume.cache) == nblocks
    assert held < 200 * nblocks          # the run itself is 8 MB


def test_a_tape_holds_each_record_it_was_handed_once():
    drive = make_drive(tapes=1)
    sizes = [1024, 60 * 1024, 37 * 4096, 5, 1024 + 4096 * 2] * 40
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        records = [bytes([index % 251]) * size
                   for index, size in enumerate(sizes)]
        for record in records:
            drive.write(record)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    total = sum(sizes)
    assert drive.stacker.cartridges[0].used == total
    # The caller's objects are the tape's: nothing was copied.
    assert held <= 1.02 * total + 200 * len(sizes)
    drive.rewind()
    for record in records:
        assert drive.read(len(record)) is record


CAPACITY = 1000


def _reference_step(drive, stream, position, op, a, b):
    """Apply one op to the drive and to the ``bytearray`` model; returns
    the new read position."""
    if op == "write":
        size = min(a, 6 * CAPACITY - len(stream))
        chunk = bytes((b + index) % 256 for index in range(size))
        drive.write(chunk)
        stream.extend(chunk)
    elif op == "read":
        size = min(a, len(stream) - position)
        assert drive.read(size) == bytes(stream[position : position + size])
        position += size
    elif stream:  # overwrite: media damage somewhere on one cartridge
        offset = (a * 7919) % len(stream)
        slot, within = divmod(offset, CAPACITY)
        cartridge = drive.stacker.cartridges[slot]
        damage = bytes([b]) * min(1 + a % 40, cartridge.used - within)
        cartridge.overwrite(within, damage)
        stream[offset : offset + len(damage)] = damage
    return position


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["write", "write", "read",
                                           "overwrite"]),
                          st.integers(0, 1500), st.integers(0, 255)),
                min_size=1, max_size=30))
# Three records, the middle one across a cartridge change, read unaligned.
@example([("write", 900, 1), ("write", 300, 2), ("write", 50, 3),
          ("read", 10, 0), ("overwrite", 5, 9), ("read", 1235, 0)])
def test_tape_reads_equal_the_bytearray_stream(ops):
    """Any interleaving of writes, sequential reads and in-place damage
    reads back as one growing ``bytearray`` would, across record and
    cartridge boundaries."""
    drive = make_drive(tapes=6, capacity=CAPACITY)
    stream = bytearray()
    position = 0
    for op, a, b in ops:
        position = _reference_step(drive, stream, position, op, a, b)
    assert drive.stream_bytes() == bytes(stream)
    assert sum(c.used for c in drive.stacker.cartridges) == len(stream)
    drive.rewind()
    assert drive.read(len(stream)) == bytes(stream)
