"""TaskPool semantics: deterministic merge, failures, retries, progress.

The worker functions live at module top level so they pickle into real
worker processes; each parametrized case runs both the in-process runner
(``jobs=1``) and the fork-based pool (``jobs=2``), which feed the same
attempt loop and must agree on everything except wall-clock.
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


def _run(jobs, specs):
    """Values plus every progress event of one pool run."""
    events = []
    values = TaskPool(jobs).map_values(specs, progress=events.append)
    return values, events


@pytest.mark.parametrize("jobs", JOBS)
def test_results_come_back_in_declaration_order(jobs):
    # Later tasks finish first under the pool (earlier ones sleep), so
    # declaration-order values prove the merge ignores completion order.
    specs = [
        TaskSpec("t%d" % value, slow_square,
                 (value, 0.05 if value < 2 else 0.0))
        for value in range(6)
    ]
    values, events = _run(jobs, specs)
    assert values == [v * v for v in range(6)]
    assert sorted((e.index, e.name) for e in events) \
        == [(v, "t%d" % v) for v in range(6)]
    assert all(e.ok and e.attempt == 1 for e in events)


@pytest.mark.parametrize("jobs", JOBS)
def test_map_values(jobs):
    values = TaskPool(jobs).map_values(
        [TaskSpec("s%d" % v, square, (v,)) for v in (3, 1, 4, 1, 5)]
    )
    assert values == [9, 1, 16, 1, 25]


@pytest.mark.parametrize("jobs", JOBS)
def test_worker_exception_propagates_with_traceback(jobs):
    specs = [TaskSpec("good", square, (2,)), TaskSpec("bad", boom, ("kaput",))]
    with pytest.raises(TaskError) as exc_info:
        TaskPool(jobs).map_values(specs)
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
    values, events = _run(jobs, [TaskSpec("flaky", fail_until_marker, (marker,))])
    assert values == ["recovered"]
    assert [(e.ok, e.attempt, e.will_retry, e.done) for e in events] \
        == [(False, 1, True, 0), (True, 2, False, 1)]
    assert "RuntimeError: first attempt fails" in events[0].error


@pytest.mark.parametrize("jobs", JOBS)
def test_retries_exhausted_raises(jobs):
    # A task is retried once: its second failure fails the run.
    events = []
    with pytest.raises(TaskError) as exc_info:
        TaskPool(jobs).map_values([TaskSpec("hopeless", boom, ("always",))],
                                  progress=events.append)
    assert "after 2 attempt(s)" in str(exc_info.value)
    assert [(e.ok, e.attempt, e.will_retry) for e in events] \
        == [(False, 1, True), (False, 2, False)]
    assert events[-1].error == "ValueError: always"
    assert events[0].describe() \
        == "[0/1] hopeless  retrying (attempt 1): ValueError: always"
    assert events[1].describe() \
        == "[0/1] hopeless  FAILED (attempt 2): ValueError: always"


@pytest.mark.parametrize("jobs", JOBS)
def test_progress_events_stream(jobs):
    values, events = _run(jobs, [TaskSpec("p%d" % v, square, (v,))
                                 for v in range(4)])
    assert values == [0, 1, 4, 9]
    assert len(events) == 4
    assert all(event.ok and event.total == 4 for event in events)
    # "done" counts up monotonically as attempts complete.
    assert [event.done for event in events] == [1, 2, 3, 4]
    assert {event.name for event in events} == {"p0", "p1", "p2", "p3"}
    assert events[0].describe().startswith("[1/4] p")


def big_blob(seed):
    """A deterministic payload of about 1.5 MB."""
    chunk = bytes((seed * 7 + i) % 256 for i in range(4096))
    return {"seed": seed, "blob": chunk * 384}  # ~1.5 MB


@pytest.mark.parametrize("jobs", JOBS)
def test_large_results_round_trip(jobs):
    """Megabyte results come back intact through the result pipe."""
    values = TaskPool(jobs).map_values(
        [TaskSpec("big%d" % seed, big_blob, (seed,)) for seed in range(3)]
    )
    assert values == [big_blob(seed) for seed in range(3)]


def test_empty_spec_list():
    assert TaskPool(1).map_values([]) == []


def test_bad_jobs_rejected():
    with pytest.raises(Exception):
        TaskPool(0)
