"""Process-pool experiment runner with a deterministic merge.

:meth:`TaskPool.map_values` runs a list of :class:`TaskSpec` and returns
their values in **task-declaration order**, so completion order and
worker count never leak into anything assembled from them: that keeps
``EXPERIMENTS.md`` byte-identical between ``--jobs 1`` and ``--jobs N``.

At ``jobs > 1`` (where ``fork`` exists) the specs go through a forked
``ProcessPoolExecutor.map``, otherwise through ``map`` in this process.
Every task is a deterministic simulation, so nothing is retried: a
failing task raises its own exception (from a worker, with the worker's
traceback as ``__cause__``).  Each task runs under its own tracer when
the caller's is on; its events are adopted in declaration order under
``pid = index + 1``.  Metrics stay out: no caller that enables the
registry runs a pool.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import ReproError
from repro.obs.trace import Tracer, get_tracer, set_tracer


class TaskSpec:
    """One unit of work: a top-level (picklable) function plus arguments.

    ``fn`` must be importable by the worker process (a module-level
    function), and its arguments and return value must pickle.
    """

    __slots__ = ("name", "fn", "args")

    def __init__(self, name: str, fn: Callable, args: Tuple = ()):
        self.name = name
        self.fn = fn
        self.args = tuple(args)

    def __repr__(self) -> str:
        return "<TaskSpec %s %s>" % (self.name, getattr(self.fn, "__name__", self.fn))


def fork_available() -> bool:
    """Whether POSIX fork (and thus the process pool) is usable here."""
    return hasattr(os, "fork") and "fork" in multiprocessing.get_all_start_methods()


def _call(spec: TaskSpec) -> Tuple[Any, float, Optional[list]]:
    """Run one task: ``(value, elapsed, events)``, events None untraced."""
    parent_tracer = get_tracer()
    if parent_tracer.enabled:
        set_tracer(Tracer())
    try:
        begin = time.perf_counter()
        value = spec.fn(*spec.args)
        elapsed = time.perf_counter() - begin
        events = get_tracer().take_events() if parent_tracer.enabled else None
    finally:
        set_tracer(parent_tracer)
    return value, elapsed, events


class TaskPool:
    """Map task specs over forked workers or in-process; merge in order."""

    def __init__(self, jobs: int = 1):
        if jobs < 1:
            raise ReproError("jobs must be >= 1")
        self.jobs = jobs

    def map_values(self, specs: List[TaskSpec],
                   progress: Optional[Callable[[str], None]] = None) -> List[Any]:
        """Run every spec; values and progress lines in declaration order.

        The executor is created here, inside the call, so whatever the
        parent computed before it — notably a module-level environment
        cache holding a multi-GB testbed — reaches every worker through
        ``fork``'s copy-on-write, and tasks ship only a descriptor.
        """
        specs = list(specs)
        tracer = get_tracer()
        values = []
        with contextlib.ExitStack() as stack:
            if self.jobs > 1 and len(specs) > 1 and fork_available():
                executor = stack.enter_context(ProcessPoolExecutor(
                    max_workers=min(self.jobs, len(specs)),
                    mp_context=multiprocessing.get_context("fork")))
                outcomes = executor.map(_call, specs)
            else:
                outcomes = map(_call, specs)
            for index, (value, elapsed, events) in enumerate(outcomes):
                values.append(value)
                # pid = index + 1 (a worker id, never an OS pid): the
                # merged stream is the same at any ``jobs``.
                if events:
                    tracer.add_events(events, pid=index + 1)
                if progress is not None:
                    progress("[%d/%d] %s  %.1fs" % (index + 1, len(specs),
                                                    specs[index].name, elapsed))
        return values


__all__ = ["TaskPool", "TaskSpec", "fork_available"]
