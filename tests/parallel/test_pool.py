"""TaskPool semantics: deterministic merge, failures, retries.

The worker functions live at module top level so they pickle into real
worker processes; each parametrized case runs both the serial in-process
path (``jobs=1``) and the fork-based pool (``jobs=2``), which must agree
on everything except wall-clock.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.parallel import TaskError, TaskPool, TaskSpec, fork_available

JOBS = [1] + ([2] if fork_available() else [])


def square(value):
    return value * value


def slow_square(value, delay):
    time.sleep(delay)
    return value * value


def boom(message):
    raise ValueError(message)


def fail_until_marker(marker_path):
    """Fail while the marker exists, deleting it — the retry succeeds.

    The marker file carries the state across processes, so the test
    covers parent-driven resubmission, not in-worker looping.
    """
    if os.path.exists(marker_path):
        os.unlink(marker_path)
        raise RuntimeError("first attempt fails")
    return "recovered"


@pytest.mark.parametrize("jobs", JOBS)
def test_results_come_back_in_declaration_order(jobs):
    # Later tasks finish first under the pool (earlier ones sleep), so
    # declaration-order results prove the merge ignores completion order.
    specs = [
        TaskSpec("t%d" % value, slow_square,
                 (value, 0.05 if value < 2 else 0.0))
        for value in range(6)
    ]
    results = TaskPool(jobs).run(specs)
    assert [r.name for r in results] == ["t%d" % v for v in range(6)]
    assert [r.value for r in results] == [v * v for v in range(6)]
    assert all(r.attempts == 1 for r in results)


@pytest.mark.parametrize("jobs", JOBS)
def test_map_values(jobs):
    values = TaskPool(jobs).map_values(
        [TaskSpec("s%d" % v, square, (v,)) for v in (3, 1, 4, 1, 5)]
    )
    assert values == [9, 1, 16, 1, 25]


@pytest.mark.parametrize("jobs", JOBS)
def test_worker_exception_propagates_with_traceback(jobs):
    specs = [
        TaskSpec("good", square, (2,)),
        TaskSpec("bad", boom, ("kaput",), retries=0),
    ]
    with pytest.raises(TaskError) as exc_info:
        TaskPool(jobs).run(specs)
    error = exc_info.value
    assert error.task_name == "bad"
    assert "kaput" in str(error)
    assert "ValueError" in error.worker_traceback
    assert "boom" in error.worker_traceback


@pytest.mark.parametrize("jobs", JOBS)
def test_retry_once_recovers(jobs, tmp_path):
    marker = str(tmp_path / ("fail.%d" % jobs))
    with open(marker, "w"):
        pass
    results = TaskPool(jobs).run(
        [TaskSpec("flaky", fail_until_marker, (marker,))]
    )
    assert results[0].value == "recovered"
    assert results[0].attempts == 2


@pytest.mark.parametrize("jobs", JOBS)
def test_retries_exhausted_raises(jobs, tmp_path):
    with pytest.raises(TaskError) as exc_info:
        TaskPool(jobs).run(
            [TaskSpec("hopeless", boom, ("always",), retries=1)]
        )
    assert "after 2 attempt(s)" in str(exc_info.value)


@pytest.mark.parametrize("jobs", JOBS)
def test_progress_events_stream(jobs):
    events = []
    TaskPool(jobs).run(
        [TaskSpec("p%d" % v, square, (v,)) for v in range(4)],
        progress=events.append,
    )
    assert len(events) == 4
    assert all(event.ok for event in events)
    # "done" counts up monotonically as attempts complete.
    assert sorted(event.done for event in events) == [1, 2, 3, 4]
    assert {event.name for event in events} == {"p0", "p1", "p2", "p3"}


def big_blob(seed):
    """A deterministic payload of about 1.5 MB."""
    chunk = bytes((seed * 7 + i) % 256 for i in range(4096))
    return {"seed": seed, "blob": chunk * 384}  # ~1.5 MB


@pytest.mark.parametrize("jobs", JOBS)
def test_large_results_round_trip(jobs):
    """Megabyte results come back intact through the result pipe."""
    results = TaskPool(jobs).run(
        [TaskSpec("big%d" % seed, big_blob, (seed,)) for seed in range(3)]
    )
    for seed, result in zip(range(3), results):
        assert result.value == big_blob(seed)


def test_empty_spec_list():
    assert TaskPool(1).run([]) == []


def test_bad_jobs_rejected():
    with pytest.raises(Exception):
        TaskPool(0)

