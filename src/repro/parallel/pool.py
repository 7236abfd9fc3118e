"""Process-pool experiment runner with a deterministic merge.

A :class:`TaskSpec` names a picklable builder function plus its
arguments; a :class:`TaskPool` runs a list of specs — serially in-process
for ``jobs=1`` (and on platforms without ``fork``), across a
``ProcessPoolExecutor`` otherwise — and always returns results in
**task-declaration order**.  Completion order and worker count therefore
never leak into anything assembled from the results, which is what keeps
``EXPERIMENTS.md`` byte-identical between ``--jobs 1`` and ``--jobs N``.

Failure semantics: a worker exception is captured with its full
traceback text and the task is retried once (``retries=1`` by default);
a second failure raises :class:`TaskError` in the caller, traceback
included.

Progress streams as workers finish: the pool invokes the caller's
``progress`` callback with one :class:`TaskEvent` per completed attempt.

Only ``run_all``'s experiment grid fans out across processes: its tasks
ship a descriptor in and a few kilobytes of table rows back, so the
executor's result pipe is the whole transport.  Campaign days and fleet
batches run on the in-process path (DESIGN.md, "Parallel where it
pays"), which still gives each task its own trace lane and metrics delta.
"""

from __future__ import annotations

import os
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.obs.metrics import REGISTRY, diff_snapshots
from repro.obs.trace import Tracer, get_tracer, set_tracer


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

    __slots__ = ("name", "fn", "args", "kwargs", "retries")

    def __init__(self, name: str, fn: Callable, args: Tuple = (),
                 kwargs: Optional[Dict[str, Any]] = None, retries: int = 1):
        if retries < 0:
            raise ReproError("retries must be >= 0")
        self.name = name
        self.fn = fn
        self.args = tuple(args)
        self.kwargs = dict(kwargs or {})
        self.retries = retries

    def __repr__(self) -> str:
        return "<TaskSpec %s %s>" % (self.name, getattr(self.fn, "__name__", self.fn))


class TaskResult:
    """Outcome of one task, returned in declaration order."""

    __slots__ = ("name", "value", "elapsed", "attempts", "pid")

    def __init__(self, name: str, value: Any, elapsed: float,
                 attempts: int, pid: int):
        self.name = name
        self.value = value
        self.elapsed = elapsed
        self.attempts = attempts
        self.pid = pid


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


def _worker(spec: TaskSpec) -> Tuple[str, Any, float, int, str, Optional[dict]]:
    """Worker entry point: never raises, so tracebacks survive pickling.

    Returns ``("ok", value, elapsed, pid, "", obs)`` or
    ``("error", summary, elapsed, pid, traceback_text, None)``.

    When the observability plane is on (the forked child inherits the
    parent's tracer/registry state), a fresh per-task tracer is installed
    for the duration of the task — in the serial path too, so both paths
    produce identically isolated per-task event streams — and ``obs``
    ships the task's events plus its metrics *delta* back to the parent.
    """
    start = time.perf_counter()
    parent_tracer = get_tracer()
    trace_on = parent_tracer.enabled
    metrics_on = REGISTRY.enabled
    metrics_before = REGISTRY.snapshot() if metrics_on else None
    if trace_on:
        set_tracer(Tracer(wall_clock=parent_tracer.wall_clock))
    try:
        begin = time.perf_counter()
        value = spec.fn(*spec.args, **spec.kwargs)
        elapsed = time.perf_counter() - begin
        obs = None
        if trace_on or metrics_on:
            obs = {}
            if trace_on:
                obs["events"] = get_tracer().take_events()
            if metrics_on:
                obs["metrics"] = diff_snapshots(metrics_before,
                                                REGISTRY.snapshot())
        return ("ok", value, elapsed, os.getpid(), "", obs)
    except BaseException as error:  # noqa: BLE001 - must cross the pipe
        return ("error", "%s: %s" % (type(error).__name__, error),
                time.perf_counter() - start, os.getpid(),
                traceback.format_exc(), None)
    finally:
        if trace_on:
            set_tracer(parent_tracer)


class TaskPool:
    """Run task specs across worker processes; merge deterministically.

    ``jobs=1`` (or no usable ``fork``) runs every spec in-process with the
    same retry semantics, so the serial path exercises exactly the code
    the parallel path does.

    Fork inheritance contract: the pool creates its executor inside
    :meth:`run`, never earlier, so anything the parent computes before
    calling ``run`` — notably a module-level environment cache holding a
    multi-GB built testbed — is inherited by every worker through
    ``fork``'s page-level copy-on-write.  Tasks then ship only a
    descriptor and find the heavy state via the inherited cache; the
    full-scale bench grid asserts this with a worker-side build counter.
    """

    def __init__(self, jobs: int = 1):
        if jobs < 1:
            raise ReproError("jobs must be >= 1")
        self.jobs = jobs
        self.parallel = jobs > 1 and fork_available()

    # -- serial path ------------------------------------------------------

    def _run_serial(self, specs: List[TaskSpec],
                    progress: Optional[Callable[[TaskEvent], None]]) -> List[TaskResult]:
        results: List[TaskResult] = []
        obs_slots: Dict[int, dict] = {}
        done = 0
        for index, spec in enumerate(specs):
            attempts = 0
            while True:
                attempts += 1
                outcome = _worker(spec)
                status, value, elapsed, pid, tb_text, obs = outcome
                ok = status == "ok"
                will_retry = not ok and attempts <= spec.retries
                self._count_attempt(ok, will_retry)
                if ok:
                    done += 1
                if progress is not None:
                    progress(TaskEvent(spec.name, index, done, len(specs),
                                       elapsed, ok, attempts, will_retry,
                                       "" if ok else value))
                if ok:
                    results.append(TaskResult(spec.name, value, elapsed,
                                              attempts, pid))
                    if obs is not None:
                        obs_slots[index] = obs
                    break
                if not will_retry:
                    raise TaskError(spec.name,
                                    "task %r failed after %d attempt(s): %s"
                                    % (spec.name, attempts, value), tb_text)
        # Serial tasks mutate the parent registry in place, so only the
        # events need adopting (identical stream to the parallel merge).
        self._merge_obs(obs_slots, len(specs), merge_metrics=False)
        return results

    # -- parallel path ----------------------------------------------------

    def _run_parallel(self, specs: List[TaskSpec],
                      progress: Optional[Callable[[TaskEvent], None]]) -> List[TaskResult]:
        import multiprocessing
        from concurrent.futures import (
            FIRST_COMPLETED,
            ProcessPoolExecutor,
            wait,
        )

        executor = ProcessPoolExecutor(
            max_workers=min(self.jobs, len(specs)),
            mp_context=multiprocessing.get_context("fork"))
        slots: Dict[int, TaskResult] = {}
        obs_slots: Dict[int, dict] = {}
        attempts = [1] * len(specs)
        done = 0
        failure: Optional[TaskError] = None
        try:
            pending = {executor.submit(_worker, spec): index
                       for index, spec in enumerate(specs)}
            while pending:
                ready, _ = wait(list(pending), return_when=FIRST_COMPLETED)
                for future in ready:
                    index = pending.pop(future)
                    spec = specs[index]
                    error = future.exception()
                    if error is not None:
                        # The payload itself failed to cross the pipe
                        # (unpicklable return, dead worker): treat it
                        # like an in-worker error.
                        outcome = ("error", "%s: %s"
                                   % (type(error).__name__, error),
                                   0.0, 0, "", None)
                    else:
                        outcome = future.result()
                    status, value, elapsed, pid, tb_text, obs = outcome
                    ok = status == "ok"
                    will_retry = (not ok
                                  and attempts[index] <= spec.retries
                                  and failure is None)
                    self._count_attempt(ok, will_retry)
                    if ok:
                        done += 1
                    if progress is not None:
                        progress(TaskEvent(spec.name, index, done, len(specs),
                                           elapsed, ok, attempts[index],
                                           will_retry, "" if ok else value))
                    if ok:
                        slots[index] = TaskResult(spec.name, value, elapsed,
                                                  attempts[index], pid)
                        if obs is not None:
                            obs_slots[index] = obs
                    elif will_retry:
                        attempts[index] += 1
                        pending[executor.submit(_worker, spec)] = index
                    elif failure is None:
                        failure = TaskError(
                            spec.name, "task %r failed after %d attempt(s): %s"
                            % (spec.name, attempts[index], value), tb_text)
        finally:
            executor.shutdown(wait=True)
        if failure is not None:
            raise failure
        # Worker registries are per-process, so their shipped deltas must
        # be folded in here (serial tasks wrote straight into ours).
        self._merge_obs(obs_slots, len(specs), merge_metrics=True)
        # Deterministic merge: declaration order, not completion order.
        return [slots[index] for index in range(len(specs))]

    # -- observability merge ----------------------------------------------

    @staticmethod
    def _count_attempt(ok: bool, will_retry: bool) -> None:
        if not REGISTRY.enabled:
            return
        REGISTRY.counter("pool.attempts").inc()
        if ok:
            REGISTRY.counter("pool.tasks").inc()
        if will_retry:
            REGISTRY.counter("pool.retries").inc()

    @staticmethod
    def _merge_obs(obs_slots: Dict[int, dict], count: int,
                   merge_metrics: bool) -> None:
        """Adopt worker observability payloads in declaration order.

        Events get ``pid = declaration index + 1`` — a deterministic
        *worker id* (never an OS pid), so merged streams are byte-equal
        between ``jobs=1`` and ``jobs=N``.
        """
        if not obs_slots:
            return
        tracer = get_tracer()
        for index in range(count):
            payload = obs_slots.get(index)
            if payload is None:
                continue
            events = payload.get("events")
            if tracer.enabled and events:
                tracer.add_events(events, pid=index + 1)
            metrics = payload.get("metrics")
            if merge_metrics and REGISTRY.enabled and metrics:
                REGISTRY.merge(metrics)

    # -- entry point ------------------------------------------------------

    def run(self, specs: List[TaskSpec],
            progress: Optional[Callable[[TaskEvent], None]] = None) -> List[TaskResult]:
        """Run every spec; results come back in declaration order."""
        specs = list(specs)
        if not specs:
            return []
        if not self.parallel:
            return self._run_serial(specs, progress)
        return self._run_parallel(specs, progress)

    def map_values(self, specs: List[TaskSpec],
                   progress: Optional[Callable[[TaskEvent], None]] = None) -> List[Any]:
        """``run`` but returning just the task values, in order."""
        return [result.value for result in self.run(specs, progress)]


__all__ = [
    "TaskError",
    "TaskEvent",
    "TaskPool",
    "TaskResult",
    "TaskSpec",
    "fork_available",
]
