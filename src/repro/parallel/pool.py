"""Process-pool experiment runner with a deterministic merge.

A :class:`TaskSpec` names a picklable function plus its arguments;
:meth:`TaskPool.map_values` runs a list of specs and returns their values
in **task-declaration order**.  Completion order and worker count
therefore never leak into anything assembled from the results, which is
what keeps ``EXPERIMENTS.md`` byte-identical between ``--jobs 1`` and
``--jobs N``.

One attempt loop drives every run.  It is fed either by forked worker
processes (``jobs > 1`` where ``fork`` exists) or by an in-process runner
that runs one queued task each time the loop asks for an outcome, so
progress streams the same way at ``--jobs 1``.  A failed attempt is
retried once; a second failure raises :class:`TaskError` carrying the
traceback text.  The caller's ``progress`` callback gets one
:class:`TaskEvent` per finished attempt.

Each attempt runs under its own tracer; the loop adopts the events in
declaration order under ``pid = index + 1``.  Metrics stay out: no
caller that enables the registry runs a pool.
"""

from __future__ import annotations

import collections
import os
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.obs.trace import Tracer, get_tracer, set_tracer

#: Attempts after the first before a failing task fails the run.
RETRIES = 1


class TaskError(ReproError):
    """A task failed on every attempt; carries the worker traceback."""

    def __init__(self, name: str, message: str, worker_traceback: str = ""):
        super().__init__(message)
        self.task_name = name
        self.worker_traceback = worker_traceback


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


class TaskEvent:
    """One progress notification: a task attempt finished."""

    __slots__ = ("name", "index", "done", "total", "elapsed", "ok",
                 "attempt", "will_retry", "error")

    def __init__(self, name: str, index: int, done: int, total: int,
                 elapsed: float, ok: bool, attempt: int,
                 will_retry: bool = False, error: str = ""):
        self.name = name
        self.index = index
        self.done = done
        self.total = total
        self.elapsed = elapsed
        self.ok = ok
        self.attempt = attempt
        self.will_retry = will_retry
        self.error = error

    def describe(self) -> str:
        if self.ok:
            return "[%d/%d] %s  %.1fs" % (self.done, self.total, self.name,
                                          self.elapsed)
        outcome = "retrying" if self.will_retry else "FAILED"
        return "[%d/%d] %s  %s (attempt %d): %s" % (
            self.done, self.total, self.name, outcome, self.attempt,
            self.error.strip().splitlines()[-1] if self.error else "?",
        )


def fork_available() -> bool:
    """Whether POSIX fork (and thus the process pool) is usable here."""
    if not hasattr(os, "fork"):
        return False
    try:
        import multiprocessing

        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:
        return False


def _attempt(spec: TaskSpec) -> Tuple[bool, Any, float, str, Optional[list]]:
    """Run one attempt; never raises, so tracebacks survive pickling.

    Returns ``(True, value, elapsed, "", events)`` or
    ``(False, summary, elapsed, traceback_text, None)``.  ``events`` are
    the attempt's trace events, None when tracing is off.
    """
    parent_tracer = get_tracer()
    if parent_tracer.enabled:
        set_tracer(Tracer())
    begin = time.perf_counter()
    try:
        value = spec.fn(*spec.args)
        elapsed = time.perf_counter() - begin
        events = get_tracer().take_events() if parent_tracer.enabled else None
        return (True, value, elapsed, "", events)
    except BaseException as error:  # noqa: BLE001 - must cross the pipe
        return (False, "%s: %s" % (type(error).__name__, error),
                time.perf_counter() - begin, traceback.format_exc(), None)
    finally:
        set_tracer(parent_tracer)


class _InProcess:
    """Runs one queued task, in this process, each time it is asked."""

    def __init__(self, specs: List[TaskSpec]):
        self.specs = specs
        self.queue: collections.deque = collections.deque()

    def submit(self, index: int) -> None:
        self.queue.append(index)

    def __len__(self) -> int:
        return len(self.queue)

    def next_outcome(self) -> Tuple[int, tuple]:
        index = self.queue.popleft()
        return index, _attempt(self.specs[index])

    def close(self) -> None:
        self.queue.clear()


class _Forked:
    """Feeds the loop from forked workers, in completion order.

    The executor is created here, inside :meth:`TaskPool.map_values`, so
    whatever the parent computed before the call — notably a module-level
    environment cache holding a multi-GB testbed — reaches every worker
    through ``fork``'s copy-on-write, and tasks ship only a descriptor.
    """

    def __init__(self, specs: List[TaskSpec], jobs: int):
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        self.specs = specs
        self.executor = ProcessPoolExecutor(
            max_workers=min(jobs, len(specs)),
            mp_context=multiprocessing.get_context("fork"))
        self.pending: Dict[Any, int] = {}
        self.ready: collections.deque = collections.deque()

    def submit(self, index: int) -> None:
        self.pending[self.executor.submit(_attempt, self.specs[index])] = index

    def __len__(self) -> int:
        return len(self.pending)

    def next_outcome(self) -> Tuple[int, tuple]:
        from concurrent.futures import FIRST_COMPLETED, wait

        if not self.ready:
            self.ready.extend(wait(list(self.pending),
                                   return_when=FIRST_COMPLETED)[0])
        future = self.ready.popleft()
        index = self.pending.pop(future)
        error = future.exception()
        if error is not None:
            # The payload itself failed to cross the pipe (unpicklable
            # return, dead worker): treat it like an in-worker error.
            return index, (False, "%s: %s" % (type(error).__name__, error),
                           0.0, "", None)
        return index, future.result()

    def close(self) -> None:
        self.executor.shutdown(wait=True, cancel_futures=True)


class TaskPool:
    """Run task specs through one attempt loop; merge deterministically."""

    def __init__(self, jobs: int = 1):
        if jobs < 1:
            raise ReproError("jobs must be >= 1")
        self.jobs = jobs
        self.parallel = jobs > 1 and fork_available()

    def map_values(self, specs: List[TaskSpec],
                   progress: Optional[Callable[[TaskEvent], None]] = None) -> List[Any]:
        """Run every spec; its values come back in declaration order."""
        specs = list(specs)
        if not specs:
            return []
        runner = _Forked(specs, self.jobs) if self.parallel else _InProcess(specs)
        results: Dict[int, Tuple[Any, Optional[list]]] = {}
        attempts = [1] * len(specs)
        try:
            for index in range(len(specs)):
                runner.submit(index)
            while len(runner):
                index, (ok, value, elapsed, tb_text, events) = runner.next_outcome()
                name = specs[index].name
                will_retry = not ok and attempts[index] <= RETRIES
                if ok:
                    results[index] = (value, events)
                if progress is not None:
                    progress(TaskEvent(name, index, len(results), len(specs),
                                       elapsed, ok, attempts[index],
                                       will_retry, "" if ok else value))
                if will_retry:
                    attempts[index] += 1
                    runner.submit(index)
                elif not ok:
                    raise TaskError(name, "task %r failed after %d attempt(s): %s"
                                    % (name, attempts[index], value), tb_text)
        finally:
            runner.close()
        # Declaration order, and pid = index + 1 (a worker id, never an
        # OS pid): the merged stream is the same at any ``jobs``.
        tracer = get_tracer()
        for index in range(len(specs)):
            events = results[index][1]
            if tracer.enabled and events:
                tracer.add_events(events, pid=index + 1)
        return [results[index][0] for index in range(len(specs))]


__all__ = [
    "TaskError",
    "TaskEvent",
    "TaskPool",
    "TaskSpec",
    "fork_available",
]
