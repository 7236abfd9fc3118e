"""Property-based tests for RAID parity and reconstruction."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import RaidError
from repro.raid.layout import make_geometry
from repro.raid.volume import RaidVolume

BS = 4096

_fast = settings(max_examples=25, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def _block(payload: bytes) -> bytes:
    return (payload * (BS // max(1, len(payload)) + 1))[:BS]


@_fast
@given(st.lists(st.tuples(st.integers(0, 239), st.binary(min_size=1, max_size=16)),
                min_size=1, max_size=40))
def test_parity_invariant_under_any_write_sequence(writes):
    volume = RaidVolume(make_geometry(2, 3, 40), name="v")
    for block, payload in writes:
        volume.write_block(block, _block(payload))
    assert volume.verify_parity()


@_fast
@given(st.lists(st.tuples(st.integers(0, 239), st.binary(min_size=1, max_size=16)),
                min_size=1, max_size=30),
       st.integers(0, 2))
def test_any_single_disk_failure_is_survivable(writes, failed_disk):
    volume = RaidVolume(make_geometry(2, 3, 40), name="v")
    expected = {}
    for block, payload in writes:
        data = _block(payload)
        volume.write_block(block, data)
        expected[block] = data
    for group in volume.groups:
        disk = group.data_disks[failed_disk]
        for stripe in range(disk.nblocks):
            disk.fail_block(stripe)
    for block, data in expected.items():
        assert volume.read_block(block) == data


@_fast
@given(st.integers(0, 239), st.integers(1, 30))
def test_run_read_equals_block_reads(start, length):
    volume = RaidVolume(make_geometry(2, 3, 40), name="v")
    length = min(length, volume.nblocks - start)
    payload = b"".join(_block(bytes([i % 256])) for i in range(length))
    volume.write_run(start, payload)
    joined = b"".join(volume.read_block(start + i) for i in range(length))
    assert volume.read_run(start, length) == joined == payload


# ---------------------------------------------------------------------------
# Run writes vs one write_block per block, across chunk and group seams
# ---------------------------------------------------------------------------

SMALL = 64   # block size: the cases below are many, each volume is tiny


def _images(volume):
    """Every member's disk image, parity included."""
    return [disk.pack_chunks() for group in volume.groups
            for disk in group.data_disks + [group.parity_disk]]


def _seeded(ndata):
    """Two groups of 40 stripes whose every block holds data already, so
    each partial stripe read-modify-writes real bytes."""
    volume = RaidVolume(make_geometry(2, ndata, 40, block_size=SMALL), name="v")
    volume.write_run(0, bytes((i * 7 + 3) % 251 for i in range(volume.nblocks * SMALL)))
    return volume


@pytest.mark.parametrize("ndata", [3, 4])
def test_run_writes_equal_block_writes_at_every_alignment_and_length(ndata):
    base = _seeded(ndata)
    group_blocks = base.groups[0].data_blocks
    chunk_blocks = base.groups[0].store.span
    assert chunk_blocks < group_blocks          # a chunk seam inside a group
    for seam in (chunk_blocks, group_blocks):
        for length in range(1, 3 * ndata + 2):
            for align in range(ndata):
                start = seam - length // 2
                start -= (start - align) % ndata
                data = bytes((start * 31 + length + i) % 256
                             for i in range(length * SMALL))
                by_run, by_block = base.clone(), base.clone()
                by_run.write_run(start, data)
                for i in range(length):
                    by_block.write_block(start + i,
                                         data[i * SMALL : (i + 1) * SMALL])
                assert _images(by_run) == _images(by_block), (seam, start, length)
                assert by_run.verify_parity()
                assert by_run.read_run(start, length) == data
    assert _images(base) == _images(_seeded(ndata))


_sides = st.lists(
    st.tuples(st.sampled_from(["source", "clone"]),
              st.sampled_from(["write", "write_run", "fail", "fail_parity"]),
              st.integers(0, 239), st.integers(0, 255)),
    min_size=1, max_size=20)


def _state(volume):
    return _images(volume), [group.bad_blocks() for group in volume.groups]


@_fast
@given(_sides)
def test_group_store_clones_never_leak_either_way(ops):
    """A write or ``fail_block`` on one side of a clone is invisible to
    the other, whichever side made it and in whatever order."""
    source = _seeded(3)
    sides = {"source": source, "clone": source.clone()}
    expected = {name: _state(volume) for name, volume in sides.items()}
    for side, op, block, seed in ops:
        volume = sides[side]
        other = "clone" if side == "source" else "source"
        loc = volume.locate(block)
        group = volume.groups[loc.group_index]
        length = min(7, volume.nblocks - block) if op == "write_run" else 1
        if op.startswith("write"):
            try:
                volume.write_run(block, bytes([seed]) * (length * SMALL))
            except RaidError:
                pass     # a data and the parity block lost in one stripe
        elif op == "fail":
            group.data_disks[loc.disk_index].fail_block(loc.disk_block)
        else:
            group.parity_disk.fail_block(loc.disk_block)
        assert _state(sides[other]) == expected[other]
        expected[side] = _state(volume)
