"""Image-stream verification: compare a tape against a volume.

The read-back check an administrator runs after cutting an image tape:
walk the stream and compare every chunk against the volume's current
blocks, without writing anything.  (For a *snapshot* image this is valid
as long as the snapshot still exists — its blocks are copy-on-write
protected, so they cannot have changed.)
"""

from __future__ import annotations

from typing import List

from repro.errors import FormatError
from repro.backup.physical.image import read_chunks, read_image_header
from repro.backup.verify import diff_blocks, same_bytes


def compare_image(volume, drives) -> List[str]:
    """Differences between an image stream and the volume (empty = match).

    A chunk that fails its CRC, and a stream whose trailer disagrees with
    its chunks, are reported as problems rather than raised.
    """
    if not isinstance(drives, (list, tuple)):
        drives = [drives]
    problems: List[str] = []
    block_size = volume.block_size
    for drive in drives:
        header = read_image_header(drive)
        if volume.geometry != header.geometry:
            problems.append("geometry differs from the image")
            return problems
        try:
            for start, count, data, intact in read_chunks(drive, block_size):
                if not intact:
                    problems.append("chunk at block %d corrupt on tape" % start)
                    continue
                pieces = data if isinstance(data, list) else [data]
                live: list = []
                volume.read_run(start, count, live)
                if same_bytes(pieces, live):
                    continue
                ours, theirs = b"".join(pieces), b"".join(live)
                if diff_blocks(problems, (
                        (start + index,
                         ours[index * block_size : (index + 1) * block_size],
                         theirs[index * block_size : (index + 1) * block_size])
                        for index in range(count))):
                    return problems
        except FormatError as error:
            problems.append(str(error))
    return problems


__all__ = ["compare_image"]
