"""TaskPool semantics: deterministic merge, failures, progress.

The worker functions live at module top level so they pickle into real
worker processes; each parametrized case runs both the in-process map
(``jobs=1``) and the forked executor map (``jobs=2``), which must agree
on everything except wall-clock.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time

import pytest

from repro.parallel import TaskPool, TaskSpec, fork_available

JOBS = [1] + ([2] if fork_available() else [])
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
PYTHONPATH = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])


def square(value):
    return value * value


def slow_square(value, delay):
    time.sleep(delay)
    return value * value


def boom(message):
    raise ValueError(message)


def _run(jobs, specs):
    """Values plus every progress line of one pool run."""
    lines = []
    values = TaskPool(jobs).map_values(specs, progress=lines.append)
    return values, lines


def _names(lines):
    """``[i/n] name`` of each progress line, its wall time dropped."""
    return [line.rsplit("  ", 1)[0] for line in lines]


@pytest.mark.parametrize("jobs", JOBS)
def test_results_come_back_in_declaration_order(jobs):
    # Later tasks finish first under the pool (earlier ones sleep), so
    # declaration-order values prove the merge ignores completion order.
    specs = [
        TaskSpec("t%d" % value, slow_square,
                 (value, 0.05 if value < 2 else 0.0))
        for value in range(6)
    ]
    values, lines = _run(jobs, specs)
    assert values == [v * v for v in range(6)]
    assert _names(lines) == ["[%d/6] t%d" % (v + 1, v) for v in range(6)]


@pytest.mark.parametrize("jobs", JOBS)
def test_map_values(jobs):
    values = TaskPool(jobs).map_values(
        [TaskSpec("s%d" % v, square, (v,)) for v in (3, 1, 4, 1, 5)]
    )
    assert values == [9, 1, 16, 1, 25]


@pytest.mark.parametrize("jobs", JOBS)
def test_worker_exception_propagates_with_traceback(jobs):
    specs = [TaskSpec("good", square, (2,)), TaskSpec("bad", boom, ("kaput",))]
    with pytest.raises(ValueError, match="^kaput$") as exc_info:
        TaskPool(jobs).map_values(specs)
    if jobs > 1:
        # The stdlib carries the worker's traceback text as the cause.
        assert "boom" in str(exc_info.value.__cause__)
    else:
        assert exc_info.traceback[-1].name == "boom"


def die(code):
    os._exit(code)


@pytest.mark.skipif(not fork_available(), reason="needs fork")
def test_dead_worker_raises_instead_of_hanging():
    # A worker killed mid-task breaks the executor; the parent must
    # raise rather than wait forever.  The child process holds the
    # timeout so a hang fails the test instead of the whole suite.
    code = ("from tests.parallel.test_pool import die, square\n"
            "from repro.parallel import TaskPool, TaskSpec\n"
            "try:\n"
            "    TaskPool(2).map_values([TaskSpec('ok', square, (2,)),\n"
            "                            TaskSpec('dies', die, (3,))])\n"
            "except Exception as error:\n"
            "    print(type(error).__name__)\n")
    result = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                            env=dict(os.environ, PYTHONPATH=PYTHONPATH),
                            capture_output=True, text=True, timeout=60)
    assert result.stdout.strip() == "BrokenProcessPool", result.stderr


@pytest.mark.parametrize("jobs", JOBS)
def test_progress_events_stream(jobs):
    values, lines = _run(jobs, [TaskSpec("p%d" % v, square, (v,))
                                for v in range(4)])
    assert values == [0, 1, 4, 9]
    assert _names(lines) == ["[1/4] p0", "[2/4] p1", "[3/4] p2", "[4/4] p3"]
    assert all(re.fullmatch(r"\[\d/4\] p\d  \d+\.\ds", line)
               for line in lines)


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
