"""Incremental image-dump semantics: Table 1 of the paper.

Given a full dump based on snapshot A and a newer snapshot B, the
incremental must contain exactly the blocks marked in B's bit plane but
not in A's::

    A  B   state
    0  0   not in either snapshot
    0  1   newly written - include in incremental
    1  0   deleted, no need to include
    1  1   needed, but not changed since full dump

Higher-level incrementals work the same way (a level-2 whose snapshot is C
over a level-1 whose snapshot is B dumps ``C − B``, because anything in A
that is also in C is guaranteed to be in B as well).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.errors import IncrementalError
from repro.wafl.blockmap import BlockMap

NOT_IN_EITHER = "not in either snapshot"
NEWLY_WRITTEN = "newly written - include in incremental"
DELETED = "deleted, no need to include"
UNCHANGED = "needed, but not changed since full dump"

#: Table 1, keyed by (bit in plane A, bit in plane B).
BLOCK_STATES = {
    (0, 0): NOT_IN_EITHER,
    (0, 1): NEWLY_WRITTEN,
    (1, 0): DELETED,
    (1, 1): UNCHANGED,
}


def block_state(bit_a: int, bit_b: int) -> str:
    """Classify one block per Table 1."""
    key = (1 if bit_a else 0, 1 if bit_b else 0)
    return BLOCK_STATES[key]


def incremental_block_set(blockmap: BlockMap, plane_b: int, plane_a: int) -> np.ndarray:
    """The block numbers an incremental dump of B over A must include."""
    if plane_a == plane_b:
        raise IncrementalError("base and incremental snapshots are the same")
    return blockmap.plane_difference(plane_b, plane_a)


def incremental_run_list(blockmap: BlockMap, plane_b: int,
                         plane_a: int) -> List[Tuple[int, int]]:
    """The ``(start, count)`` runs an incremental dump of B over A must
    include — the run-based form of :func:`incremental_block_set`."""
    if plane_a == plane_b:
        raise IncrementalError("base and incremental snapshots are the same")
    return blockmap.plane_difference_runs(plane_b, plane_a)


def split_runs(runs: List[Tuple[int, int]],
               max_run: int = 0) -> List[Tuple[int, int]]:
    """Bound run length to ``max_run`` blocks (0 = unbounded).

    Produces exactly the runs :func:`coalesce_block_array` would for the
    equivalent block array, without ever materializing one.
    """
    if not max_run:
        return list(runs)
    out: List[Tuple[int, int]] = []
    for start, count in runs:
        while count > max_run:
            out.append((start, max_run))
            start += max_run
            count -= max_run
        out.append((start, count))
    return out


def classify_all(blockmap: BlockMap, plane_a: int, plane_b: int) -> dict:
    """Counts of every Table 1 state across the whole volume, slab by
    slab: a block outside the map's materialized slabs is in neither."""
    newly = deleted = unchanged = 0
    for _lo, words in blockmap.held_slabs():
        in_a = (words & np.uint32(1 << plane_a)) != 0
        in_b = (words & np.uint32(1 << plane_b)) != 0
        newly += int(np.count_nonzero(~in_a & in_b))
        deleted += int(np.count_nonzero(in_a & ~in_b))
        unchanged += int(np.count_nonzero(in_a & in_b))
    return {
        NOT_IN_EITHER: blockmap.nblocks - newly - deleted - unchanged,
        NEWLY_WRITTEN: newly,
        DELETED: deleted,
        UNCHANGED: unchanged,
    }


def coalesce_block_array(blocks: np.ndarray, max_run: int = 0) -> List[Tuple[int, int]]:
    """Turn a sorted block-number array into ``(start, count)`` runs.

    ``max_run`` bounds run length (0 = unbounded) so the dump pipeline's
    buffer stays bounded.
    """
    runs: List[Tuple[int, int]] = []
    if len(blocks) == 0:
        return runs
    values = np.asarray(blocks, dtype=np.int64)
    breaks = np.flatnonzero(np.diff(values) != 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [len(values) - 1]))
    for s, e in zip(starts, ends):
        start = int(values[s])
        count = int(e - s + 1)
        if max_run and count > max_run:
            offset = 0
            while offset < count:
                piece = min(max_run, count - offset)
                runs.append((start + offset, piece))
                offset += piece
        else:
            runs.append((start, count))
    return runs


def spans_with_readthrough(
    runs: List[Tuple[int, int]],
    gap_threshold: int = 64,
    max_span: int = 2048,
) -> List[Tuple[int, int, List[Tuple[int, int]]]]:
    """Group allocated runs into disk-read spans that stream through
    small free gaps.

    Skipping a 10-block hole costs a head settle; reading through it
    costs 10 block times — far less.  This is what lets image dump run
    the disks "essentially sequentially" (Section 5.3) even on a mature,
    fragmented file system.  Returns ``(span_start, span_len, runs)``
    triples; only the run blocks go to tape.
    """
    runs = list(runs)
    n = len(runs)
    if n == 0:
        return []
    # Vectorized: one np.diff finds every gap-rule break, then each
    # gap-contiguous segment is chunked to max_span with searchsorted
    # (ends are monotonic inside a segment because gaps are >= 0 there),
    # so the cost is O(spans log runs) instead of a per-run Python loop.
    starts = np.fromiter((run[0] for run in runs), dtype=np.int64, count=n)
    counts = np.fromiter((run[1] for run in runs), dtype=np.int64, count=n)
    ends = starts + counts
    gaps = starts[1:] - ends[:-1]
    breaks = np.flatnonzero((gaps < 0) | (gaps > gap_threshold))
    bounds = np.concatenate((breaks + 1, [n]))
    spans: List[Tuple[int, int, List[Tuple[int, int]]]] = []
    first = 0
    for bound in bounds:
        index = first
        while index < bound:
            # Furthest run still within max_span of this span's start; the
            # first run is always taken even if it alone exceeds max_span.
            last = index + int(np.searchsorted(
                ends[index:bound], starts[index] + max_span, side="right"
            )) - 1
            if last < index:
                last = index
            spans.append((int(starts[index]),
                          int(ends[last] - starts[index]),
                          runs[index : last + 1]))
            index = last + 1
        first = int(bound)
    return spans


__all__ = [
    "BLOCK_STATES",
    "DELETED",
    "NEWLY_WRITTEN",
    "NOT_IN_EITHER",
    "UNCHANGED",
    "block_state",
    "classify_all",
    "coalesce_block_array",
    "incremental_block_set",
    "incremental_run_list",
    "spans_with_readthrough",
    "split_runs",
]
