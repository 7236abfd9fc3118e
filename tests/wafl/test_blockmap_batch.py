"""Vectorized block-map kernels against their per-block references.

``free_active_many`` and the numpy ``commit_deferred_reuse`` replaced
per-block loops; these tests drive both implementations over the same
randomized alloc/free churn and require identical words, free counts,
and extent indexes.  ``spans_with_readthrough`` gets the same treatment
against a straight-line sequential re-implementation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backup.physical.incremental import (
    coalesce_block_array,
    spans_with_readthrough,
)
from repro.errors import FilesystemError
from repro.wafl.blockmap import BlockMap, runs_from_blocks
from tests.conftest import map_words


def snapshot_state(blockmap):
    return (
        map_words(blockmap).tobytes(),
        blockmap.free_blocks(),
        list(blockmap._starts),
        dict(blockmap._lengths),
        set(blockmap.reuse_excluded),
        set(blockmap.dirty_fblocks),
    )


def churned_pair(seed, nblocks=4096, reserved=16):
    """Two identically-populated maps ready for a free comparison."""
    rng = np.random.RandomState(seed)
    maps = [BlockMap(nblocks, reserved=reserved) for _ in range(2)]
    cursor = reserved
    allocated = []
    for _ in range(40):
        want = int(rng.randint(1, 64))
        start, count = maps[0].allocate_run(want, cursor)
        other = maps[1].allocate_run(want, cursor)
        assert other == (start, count)
        allocated.extend(range(start, start + count))
        cursor = start + count
    return maps, allocated, rng


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("defer", [False, True])
def test_free_active_many_matches_per_block_loop(seed, defer):
    (batched, reference), allocated, rng = churned_pair(seed)
    victims = [b for b in allocated if rng.rand() < 0.5]
    rng.shuffle(victims)

    batched.free_active_many(victims, defer_reuse=defer)
    for block in victims:
        reference.free_active(block, defer_reuse=defer)

    assert snapshot_state(batched) == snapshot_state(reference)
    if defer:
        assert batched.commit_deferred_reuse() \
            == reference_commit(reference)
        assert snapshot_state(batched) == snapshot_state(reference)


def reference_commit(blockmap):
    """The original per-block commit loop, kept as the test oracle."""
    count = 0
    words = map_words(blockmap)
    for block in sorted(blockmap.reuse_excluded):
        if words[block] == 0:
            blockmap._extent_add(block)
            count += 1
    blockmap.reuse_excluded.clear()
    return count


def test_free_active_many_detects_double_free_in_batch():
    (batched, _), allocated, _ = churned_pair(7)
    with pytest.raises(FilesystemError):
        batched.free_active_many([allocated[0], allocated[0]])


def test_free_active_many_duplicate_detection_single_diff(monkeypatch):
    """The duplicate check reuses one ``np.diff`` result for detection and
    error reporting (it used to compute the diff twice on the error path),
    and names the *first* duplicate in sorted order."""
    (batched, _), allocated, _ = churned_pair(9)
    calls = {"count": 0}
    real_diff = np.diff

    def counting_diff(*args, **kwargs):
        calls["count"] += 1
        return real_diff(*args, **kwargs)

    monkeypatch.setattr(np, "diff", counting_diff)
    first_dup = sorted(allocated)[0]
    batch = [allocated[3], first_dup, allocated[5], first_dup,
             allocated[5]]
    with pytest.raises(FilesystemError) as excinfo:
        batched.free_active_many(batch)
    assert "double free of block %d" % first_dup in str(excinfo.value)
    assert calls["count"] == 1
    # The failed batch must not have touched any state.
    assert bool((map_words(batched)[np.asarray(batch)]
                 & np.uint32(1)).all())


def test_pop_dirty_run_matches_repeated_min():
    """Heap-backed drain == min()+discard extended over consecutive
    members, including mid-drain dirtying."""
    blockmap = BlockMap(10 * 1024, reserved=16)
    for fbn in (3, 5, 6, 8):
        blockmap.set_active(fbn * 1024)
    assert blockmap.pop_dirty_run() == (3, 1)
    # Dirty an fblock *below* the drain position mid-drain: the next pop
    # must return it, exactly as a fresh min() over the set would.
    blockmap.set_active(1 * 1024)
    assert blockmap.pop_dirty_run() == (1, 1)
    assert blockmap.pop_dirty_run() == (5, 2)
    # Re-dirtying an fblock already drained — as a run's start or as a
    # member the run swallowed — surfaces it again.
    blockmap.set_active(3 * 1024 + 1)
    blockmap.set_active(6 * 1024 + 1)
    assert blockmap.pop_dirty_run() == (3, 1)
    assert blockmap.pop_dirty_run() == (6, 1)
    assert blockmap.pop_dirty_run() == (8, 1)
    assert blockmap.pop_dirty_run() is None
    assert not blockmap.dirty_fblocks


def test_pop_dirty_run_survives_direct_set_mutation():
    """Code (and tests) that mutate ``dirty_fblocks`` directly must not
    desync the drain: the heap is rebuilt from the set when stale."""
    blockmap = BlockMap(4096, reserved=16)
    blockmap.allocate_run(10, 16)
    blockmap.dirty_fblocks.clear()          # bypass the heap
    assert blockmap.pop_dirty_run() is None
    blockmap.dirty_fblocks.update({7, 3, 4, 9})  # bypass the heap again
    assert [blockmap.pop_dirty_run() for _ in range(4)] == [
        (3, 2), (7, 1), (9, 1), None]


def test_nothing_outside_the_block_map_writes_its_dirty_set():
    """The rebuild above is a safety net, not an interface: product code
    dirties fblocks through the map's own methods (``mark_all_dirty``,
    the allocator), which keep the heap mirror in step."""
    import pathlib
    import re

    import repro

    mutation = re.compile(
        r"dirty_fblocks\s*(=[^=]|\.(add|update|discard|remove|clear|pop|"
        r"difference_update|intersection_update|symmetric_difference_update)"
        r"\b|[|&^-]=)")
    root = pathlib.Path(repro.__file__).parent
    offenders = [
        "%s:%d" % (path.relative_to(root), number)
        for path in sorted(root.rglob("*.py")) if path.name != "blockmap.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if mutation.search(line)]
    assert offenders == []


def test_mark_all_dirty_keeps_the_heap_mirror_whole():
    blockmap = BlockMap(5 * 1024 + 3, reserved=16)
    blockmap.allocate_run(10, 3000)         # fblock 2 dirty, heap = [2]
    assert blockmap.pop_dirty_run() == (2, 1)
    blockmap.mark_all_dirty()
    assert blockmap.dirty_fblocks == set(range(6))
    assert blockmap._dirty_heap == list(range(6))
    assert blockmap.pop_dirty_run() == (0, 6)
    assert blockmap.pop_dirty_run() is None


def test_block_counts_match_full_scan():
    """Incremental active/used counters == the original word-array scans."""
    rng = np.random.RandomState(33)
    blockmap = BlockMap(4096, reserved=16)

    def check():
        words = map_words(blockmap)
        active_scan = int(((words & np.uint32(1)) != 0).sum())
        used_scan = int((words != 0).sum())
        assert blockmap.active_block_count() == active_scan
        assert blockmap.used_block_count() == used_scan

    cursor = 16
    allocated = []
    for _ in range(25):
        start, count = blockmap.allocate_run(int(rng.randint(1, 60)), cursor)
        allocated.extend(range(start, start + count))
        cursor = start + count
    check()
    blockmap.snapshot_create(1)
    check()
    victims = [b for b in allocated if rng.rand() < 0.4]
    blockmap.free_active_many(victims, defer_reuse=True)
    check()
    blockmap.commit_deferred_reuse()
    check()
    survivors = [b for b in allocated if b not in set(victims)]
    blockmap.free_active(survivors[0])
    check()
    blockmap.set_active(survivors[0])
    check()
    blockmap.snapshot_delete(1)
    check()
    # Round trip through the on-disk form recomputes the same counters.
    raw = b"".join(blockmap.serialize_fblock(fb)
                   for fb in range(blockmap.n_fblocks()))
    clone = BlockMap.deserialize(blockmap.nblocks, blockmap.reserved,
                                 [(0, raw)])
    assert clone.active_block_count() == blockmap.active_block_count()
    assert clone.used_block_count() == blockmap.used_block_count()


def test_free_active_many_rejects_unallocated_block():
    blockmap = BlockMap(512, reserved=8)
    start, count = blockmap.allocate_run(4, 8)
    with pytest.raises(FilesystemError):
        blockmap.free_active_many([start, start + count])  # one past the run


def test_free_active_many_rejects_out_of_range():
    blockmap = BlockMap(512, reserved=8)
    blockmap.allocate_run(4, 8)
    with pytest.raises(FilesystemError):
        blockmap.free_active_many([2])  # inside the reserved area


def test_free_active_many_snapshot_held_blocks_stay_unallocatable():
    blockmap = BlockMap(512, reserved=8)
    start, count = blockmap.allocate_run(8, 8)
    blockmap.snapshot_create(1)
    free_before = blockmap.free_blocks()
    blockmap.free_active_many(range(start, start + count))
    # The snapshot plane still holds every block: nothing returns.
    assert blockmap.free_blocks() == free_before
    assert blockmap.snapshot_delete(1) == count
    assert blockmap.free_blocks() == free_before + count


def test_runs_from_blocks_edge_cases():
    assert runs_from_blocks(np.array([], dtype=np.int64)) == []
    assert runs_from_blocks(np.array([5])) == [(5, 1)]
    assert runs_from_blocks(np.array([1, 2, 3, 7, 9, 10])) \
        == [(1, 3), (7, 1), (9, 2)]


def sequential_spans(runs, gap_threshold, max_span):
    """The original per-run loop, kept as the test oracle."""
    spans = []
    current_start = None
    current_end = None
    current_runs = []
    for start, count in runs:
        if current_start is None:
            current_start, current_end = start, start + count
            current_runs = [(start, count)]
            continue
        gap = start - current_end
        if 0 <= gap <= gap_threshold and (start + count) - current_start <= max_span:
            current_end = start + count
            current_runs.append((start, count))
        else:
            spans.append((current_start, current_end - current_start,
                          current_runs))
            current_start, current_end = start, start + count
            current_runs = [(start, count)]
    if current_start is not None:
        spans.append((current_start, current_end - current_start,
                      current_runs))
    return spans


@pytest.mark.parametrize("seed", [11, 12, 13, 14])
@pytest.mark.parametrize("gap_threshold,max_span", [(64, 2048), (0, 64), (8, 128)])
def test_spans_with_readthrough_matches_sequential(seed, gap_threshold,
                                                   max_span):
    rng = np.random.RandomState(seed)
    blocks = np.flatnonzero(rng.rand(20_000) < 0.4)
    runs = coalesce_block_array(blocks, max_run=int(rng.randint(16, 200)))
    assert spans_with_readthrough(runs, gap_threshold, max_span) \
        == sequential_spans(runs, gap_threshold, max_span)


def test_spans_oversized_single_run_forms_its_own_span():
    # A single run longer than max_span is still taken whole.
    assert spans_with_readthrough([(0, 5000)], max_span=2048) \
        == [(0, 5000, [(0, 5000)])]


def test_spans_empty_and_unsorted_break():
    assert spans_with_readthrough([]) == []
    # A backwards jump (negative gap) always breaks the span.
    assert spans_with_readthrough([(100, 10), (50, 10)]) \
        == [(100, 10, [(100, 10)]), (50, 10, [(50, 10)])]
