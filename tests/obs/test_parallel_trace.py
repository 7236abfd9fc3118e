"""Parallel observability: worker event shipping is jobs-invariant.

The pool runs each task under a fresh tracer (in-process and forked
alike) and ships its events home with the result.  Events merge in
*declaration* order under a synthetic pid — so a traced ``--jobs 2`` run
produces byte-for-byte the stream a serial run does.  Task functions
live at module top level so they pickle.
"""

from __future__ import annotations

import pytest

from repro.obs.trace import Tracer, get_tracer, set_tracer
from repro.parallel import TaskPool, TaskSpec, fork_available

JOBS = [1] + ([2] if fork_available() else [])


def traced_task(value):
    tracer = get_tracer()
    if tracer.enabled:
        tracer.complete("task", cat="test", ts=float(value), dur=1.0,
                        tid="lane")
        tracer.instant("mark", cat="test", ts=float(value) + 0.25,
                       tid="lane", args={"value": value})
        tracer.counter("depth", value, cat="test", ts=float(value) + 0.5,
                       tid="lane")
    return value * value


def _run_observed(jobs, nvalues=5):
    """Run the task grid under a fresh tracer; return values and events."""
    set_tracer(Tracer())
    try:
        specs = [TaskSpec("t%d" % value, traced_task, (value,))
                 for value in range(nvalues)]
        values = TaskPool(jobs).map_values(specs)
        events = get_tracer().take_events()
    finally:
        set_tracer(None)
    return values, events


@pytest.mark.parametrize("jobs", JOBS)
def test_worker_events_merge_in_declaration_order(jobs):
    values, events = _run_observed(jobs)
    assert values == [v * v for v in range(5)]
    # Three events per task, tasks in declaration order, pid = index + 1.
    assert len(events) == 15
    marks = [e for e in events if e["name"] == "mark"]
    assert [e["args"]["value"] for e in marks] == [0, 1, 2, 3, 4]
    assert [e["pid"] for e in marks] == [1, 2, 3, 4, 5]


@pytest.mark.skipif(not fork_available(), reason="needs fork")
def test_streams_and_metrics_identical_serial_vs_jobs2():
    # Values and trace events only: pool tasks ship no metrics.
    serial = _run_observed(1)
    parallel = _run_observed(2)
    assert parallel == serial


@pytest.mark.skipif(not fork_available(), reason="needs fork")
def test_run_all_reduced_trace_is_jobs_invariant(reduced_grid):
    """The full reduced grid, traced, matches byte-for-byte across jobs."""
    serial = reduced_grid[1, "cold", True]
    parallel = reduced_grid[2, "none", True]
    assert parallel.body == serial.body
    assert serial.events, "traced grid produced no events"
    assert parallel.events == serial.events


@pytest.mark.parametrize("jobs", JOBS)
def test_run_all_trace_with_env_cache_is_output_neutral(reduced_grid, jobs):
    """``run_all --env-cache F --trace T``: the grid from a cached
    environment, traced — the run completes (it used to die on the
    build-count assertion), the body equals the untraced one, and the
    stream does not depend on ``--jobs`` or on whether the cache file was
    just written or loaded."""
    cold = reduced_grid[1, "cold", True]
    warm = reduced_grid[jobs, "warm", True]
    assert warm.body == cold.body == reduced_grid[1, "none", False].body
    assert cold.events and warm.events == cold.events
