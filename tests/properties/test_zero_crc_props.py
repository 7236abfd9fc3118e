"""A chunk's CRC over shared zero fill, computed without reading it.

``crc32_of`` CRCs a view of a shared zero buffer (``storage.disk.zeros``)
in closed form, as zlib's ``crc32_combine`` would, and reads every other
piece with ``zlib.crc32``.  From any start CRC, over any mix of zero
views (whole buffers and slices, block multiples or not, either side of
the size below which zlib reads them) and random ``bytes``, the result
must be ``zlib.crc32`` of the join.
"""

import random
import zlib

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.backup.physical.image import _ZERO_CRC_MIN, crc32_of
from repro.storage.disk import is_zero_fill, zeros

_SIZES = st.one_of(st.integers(0, 3 * 4096 + 5),
                   st.integers(_ZERO_CRC_MIN - 3, _ZERO_CRC_MIN + 3),
                   st.sampled_from([4096, 60 * 4096, 64 * 4096]))


@st.composite
def _pieces(draw):
    """A zero view, a slice of a larger shared zero buffer, or bytes."""
    kind = draw(st.sampled_from(["zero", "slice", "bytes"]))
    size = draw(_SIZES)
    if kind == "zero":
        return memoryview(zeros(size))
    if kind == "slice":
        at = draw(st.integers(0, 4096))
        return memoryview(zeros(65 * 4096))[at : at + size]
    return random.Random(draw(st.integers(0, 2**32))).randbytes(size)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(_pieces(), max_size=8))
@example(0xFFFFFFFF, [memoryview(zeros(64 * 4096))])
@example(0, [b"x", memoryview(zeros(_ZERO_CRC_MIN)), b"y"])
def test_crc_of_pieces_is_zlib_crc_of_their_join(start, pieces):
    joined = b"".join(pieces)
    assert crc32_of(pieces, start) == zlib.crc32(joined, start)
    if len(pieces) == 1:
        assert crc32_of(pieces[0], start) == zlib.crc32(joined, start)


@given(st.integers(1, 3 * _ZERO_CRC_MIN))
def test_only_the_shared_buffer_is_zero_fill(size):
    assert is_zero_fill(memoryview(zeros(size))[size // 2 :])
    assert zeros(size) is zeros(size)
    # Zeros made any other way — a reloaded or damaged record — are read.
    assert not is_zero_fill(bytes(size))
    assert not is_zero_fill(memoryview(bytearray(size)))
