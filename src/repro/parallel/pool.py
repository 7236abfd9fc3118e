"""Process-pool experiment runner with a deterministic merge.

A :class:`TaskSpec` names a picklable builder function plus its
arguments; a :class:`TaskPool` runs a list of specs — serially in-process
for ``jobs=1`` (and on platforms without ``fork``), across a
``ProcessPoolExecutor`` otherwise — and always returns results in
**task-declaration order**.  Completion order and worker count therefore
never leak into anything assembled from the results, which is what keeps
``EXPERIMENTS.md`` byte-identical between ``--jobs 1`` and ``--jobs N``.

Failure semantics:

* a worker exception is captured with its full traceback text and the
  task is retried once (``retries=1`` by default); a second failure
  raises :class:`TaskError` in the caller, traceback included;
* a per-task ``timeout`` arms ``SIGALRM`` inside the worker, so a wedged
  task dies as a normal in-worker :class:`TaskTimeout` (and takes the
  retry path) instead of hanging the whole run.

Progress streams as workers finish: the pool invokes the caller's
``progress`` callback with one :class:`TaskEvent` per completed attempt.

Large results cross back through POSIX shared memory: a worker whose
pickled return value reaches :data:`SHM_MIN_BYTES` writes the pickle
into a ``multiprocessing.shared_memory`` segment and sends only the
segment's name over the result pipe; the parent maps the segment,
unpickles, and unlinks it.  A campaign worker's value — a whole
simulated file system, disks included — runs to tens of megabytes at
paper scale, and pipe transport would move it through 64 KB pipe writes
plus an extra copy on each side.  Small values take the pipe as before,
and the serial path never ships at all.
"""

from __future__ import annotations

import os
import signal
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


class TaskTimeout(TaskError):
    """A task exceeded its per-task timeout."""


class TaskSpec:
    """One unit of work: a top-level (picklable) function plus arguments.

    ``fn`` must be importable by the worker process (a module-level
    function), and its arguments and return value must pickle.
    """

    __slots__ = ("name", "fn", "args", "kwargs", "timeout", "retries")

    def __init__(self, name: str, fn: Callable, args: Tuple = (),
                 kwargs: Optional[Dict[str, Any]] = None,
                 timeout: Optional[float] = None, retries: int = 1):
        if retries < 0:
            raise ReproError("retries must be >= 0")
        self.name = name
        self.fn = fn
        self.args = tuple(args)
        self.kwargs = dict(kwargs or {})
        self.timeout = timeout
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


# -- shared-memory payload transport -----------------------------------

#: Pickled results at or above this size bypass the executor's result
#: pipe and cross back through a POSIX shared-memory segment instead.
SHM_MIN_BYTES = 1 << 20

#: Set (via the executor initializer) in pool worker processes only, so
#: the serial path — which runs ``_worker`` in-process — never ships.
_POOL_WORKER = False


def _mark_pool_worker() -> None:
    global _POOL_WORKER
    _POOL_WORKER = True


# -- worker-resident object cache ---------------------------------------

#: Per-process resident objects: name -> (epoch, value).  Lives in the
#: process that executes tasks — a lane worker under a persistent pool,
#: the parent itself on the serial path — so a task that finds its key
#: here skips deserialising the shipped state entirely.  Keyed by name
#: with the epoch alongside (not by (name, epoch) tuples) so a new
#: epoch automatically evicts the stale generation instead of leaking it.
_RESIDENT: Dict[str, Tuple[int, Any]] = {}


def resident_lookup(name: str, epoch: int) -> Any:
    """The resident object for ``name`` iff it is at ``epoch``, else None."""
    entry = _RESIDENT.get(name)
    if entry is not None and entry[0] == epoch:
        return entry[1]
    return None


def resident_store(name: str, epoch: int, value: Any) -> None:
    """Pin ``value`` as this process's resident state for ``name``."""
    _RESIDENT[name] = (epoch, value)


def resident_fetch(name: str, epoch: int) -> Any:
    """Task entry point: ship a resident object back to the parent.

    The parent submits this to a specific lane to checkpoint state that
    lives worker-side (large values take the shared-memory path like any
    other task result).  Serial pools resolve it in-process, returning
    the very object the parent already holds — no copy, no pickle.
    """
    return resident_lookup(name, epoch)


class _ShmHandle:
    """Name and size of a shared-memory segment holding a pickled value."""

    __slots__ = ("name", "size")

    def __init__(self, name: str, size: int):
        self.name = name
        self.size = size


def _ship_value(value: Any) -> Any:
    """In a pool worker, move a large result into shared memory.

    Returns the value itself when it is small (or shared memory is
    unavailable), else a :class:`_ShmHandle` the parent redeems with
    :func:`_receive_value`.  The segment is unregistered from the
    worker-side resource tracker because the *parent* owns its lifetime:
    it unlinks after reading, and must not race a worker-exit cleanup.
    """
    if not _POOL_WORKER:
        return value
    import pickle

    try:
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return value  # let the pipe raise the pool's normal error
    if len(blob) < SHM_MIN_BYTES:
        return value
    try:
        from multiprocessing import resource_tracker, shared_memory

        segment = shared_memory.SharedMemory(create=True, size=len(blob))
    except Exception:
        return value  # no usable /dev/shm: fall back to the pipe
    try:
        segment.buf[: len(blob)] = blob
        try:
            resource_tracker.unregister(segment._name, "shared_memory")
        except Exception:
            pass
        name = segment.name
        segment.close()
        return _ShmHandle(name, len(blob))
    except Exception:
        segment.close()
        try:
            segment.unlink()
        except Exception:
            pass
        return value


def _receive_value(value: Any) -> Any:
    """Redeem a :class:`_ShmHandle` from a worker; pass others through."""
    if not isinstance(value, _ShmHandle):
        return value
    import pickle
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(name=value.name)
    try:
        return pickle.loads(segment.buf[: value.size])
    finally:
        segment.close()
        segment.unlink()


def fork_available() -> bool:
    """Whether POSIX fork (and thus the process pool) is usable here."""
    if not hasattr(os, "fork"):
        return False
    try:
        import multiprocessing

        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:
        return False


def _alarm_handler(signum, frame):
    raise TaskTimeout("task", "task exceeded its timeout")


def _invoke(spec: TaskSpec) -> Tuple[Any, float, int]:
    """Run one spec in the current process, honoring its timeout."""
    start = time.perf_counter()
    use_alarm = spec.timeout is not None and hasattr(signal, "SIGALRM")
    previous = None
    if use_alarm:
        previous = signal.signal(signal.SIGALRM, _alarm_handler)
        signal.setitimer(signal.ITIMER_REAL, spec.timeout)
    try:
        value = spec.fn(*spec.args, **spec.kwargs)
    except TaskTimeout:
        raise TaskTimeout(spec.name, "task %r exceeded its %.1fs timeout"
                          % (spec.name, spec.timeout))
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
    return value, time.perf_counter() - start, os.getpid()


def _worker(spec: TaskSpec) -> Tuple[str, Any, float, int, str, Optional[dict]]:
    """Worker entry point: never raises, so tracebacks survive pickling.

    Returns ``("ok", value, elapsed, pid, "", obs)`` or
    ``("timeout"|"error", summary, elapsed, pid, traceback_text, None)``.

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
        value, elapsed, pid = _invoke(spec)
        obs = None
        if trace_on or metrics_on:
            obs = {}
            if trace_on:
                obs["events"] = get_tracer().take_events()
            if metrics_on:
                obs["metrics"] = diff_snapshots(metrics_before,
                                                REGISTRY.snapshot())
        return ("ok", _ship_value(value), elapsed, pid, "", obs)
    except TaskTimeout as error:
        return ("timeout", str(error), time.perf_counter() - start,
                os.getpid(), traceback.format_exc(), None)
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
    same timeout/retry semantics, so the serial path exercises exactly the
    code the parallel path does.

    Fork inheritance contract: a non-persistent pool creates its executor
    inside :meth:`run`, never earlier, so anything the parent computes
    before calling ``run`` — notably a module-level environment cache
    holding a multi-GB built testbed — is inherited by every worker
    through ``fork``'s page-level copy-on-write.  Tasks then ship only a
    descriptor and find the heavy state via the inherited cache; the
    full-scale bench grid asserts this with a worker-side build counter.

    A long-lived scheduler (the fleet service) passes ``persistent=True``
    to reuse its executors across many :meth:`run` calls instead of paying
    a fork-and-teardown per batch; call :meth:`close` (or use the pool as
    a context manager) when done.  Because workers fork when an executor
    is first created, anything they must inherit from the parent — an
    enabled tracer, registry state — must be in place before the first
    persistent ``run``; per-batch state must travel in the spec arguments.

    A persistent pool pins work to *lanes*: ``run(..., lanes=[...])``
    (required once the pool is parallel) routes each spec to a dedicated
    single-worker executor chosen by ``lane % jobs``.  The same lane
    always reaches the same
    worker process, which is what lets workers keep tenant state resident
    (:func:`resident_store`) across batches — and because lane numbering
    is part of the scheduler's deterministic output, the routing is
    identical run to run.
    """

    def __init__(self, jobs: int = 1, persistent: bool = False):
        if jobs < 1:
            raise ReproError("jobs must be >= 1")
        self.jobs = jobs
        self.parallel = jobs > 1 and fork_available()
        self.persistent = persistent
        self._lane_executors: Dict[int, Any] = {}

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
                self._count_attempt(status, will_retry)
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
                    klass = TaskTimeout if status == "timeout" else TaskError
                    raise klass(spec.name,
                                "task %r failed after %d attempt(s): %s"
                                % (spec.name, attempts, value), tb_text)
        # Serial tasks mutate the parent registry in place, so only the
        # events need adopting (identical stream to the parallel merge).
        self._merge_obs(obs_slots, len(specs), merge_metrics=False)
        return results

    # -- parallel path ----------------------------------------------------

    def _make_executor(self, max_workers: int):
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(max_workers=max_workers,
                                   mp_context=multiprocessing.get_context("fork"),
                                   initializer=_mark_pool_worker)

    def executor_index(self, lane: int) -> int:
        """Which worker slot a scheduler lane maps to (``lane % jobs``).

        Lanes are numbered by the *scheduler* (0..drives-1) independent
        of ``--jobs``, so the mapping folds however many lanes exist onto
        however many workers this pool actually has.  Serial pools map
        everything to slot 0 — the parent process itself.
        """
        if not self.parallel:
            return 0
        return lane % self.jobs

    def _lane_executor(self, index: int):
        executor = self._lane_executors.get(index)
        if executor is None:
            executor = self._make_executor(1)
            self._lane_executors[index] = executor
        return executor

    def _run_parallel(self, specs: List[TaskSpec],
                      progress: Optional[Callable[[TaskEvent], None]],
                      lanes: Optional[List[int]] = None) -> List[TaskResult]:
        if lanes is not None:
            routes = [self.executor_index(lane) for lane in lanes]
            return self._drain(
                lambda i: self._lane_executor(routes[i]), specs, progress)
        executor = self._make_executor(min(self.jobs, len(specs)) or 1)
        try:
            return self._drain(lambda i: executor, specs, progress)
        finally:
            executor.shutdown(wait=True)

    def _drain(self, executor_of, specs: List[TaskSpec],
               progress: Optional[Callable[[TaskEvent], None]]) -> List[TaskResult]:
        from concurrent.futures import FIRST_COMPLETED, wait

        slots: Dict[int, TaskResult] = {}
        obs_slots: Dict[int, dict] = {}
        attempts = [0] * len(specs)
        done = 0
        failure: Optional[TaskError] = None
        pending = {executor_of(index).submit(_worker, spec): index
                   for index, spec in enumerate(specs)}
        for index in pending.values():
            attempts[index] += 1
        while pending:
            ready, _ = wait(list(pending), return_when=FIRST_COMPLETED)
            for future in ready:
                index = pending.pop(future)
                spec = specs[index]
                error = future.exception()
                if error is not None:
                    # The payload itself failed to cross the pipe
                    # (unpicklable return, dead worker): treat it like
                    # an in-worker error.
                    outcome = ("error", "%s: %s"
                               % (type(error).__name__, error),
                               0.0, 0, "", None)
                else:
                    outcome = future.result()
                status, value, elapsed, pid, tb_text, obs = outcome
                if status == "ok":
                    try:
                        value = _receive_value(value)
                    except Exception as error:
                        status = "error"
                        value = "%s: %s" % (type(error).__name__, error)
                        tb_text = traceback.format_exc()
                ok = status == "ok"
                will_retry = (not ok
                              and attempts[index] <= spec.retries
                              and failure is None)
                self._count_attempt(status, will_retry)
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
                    pending[executor_of(index).submit(_worker, spec)] = index
                elif failure is None:
                    klass = (TaskTimeout if status == "timeout"
                             else TaskError)
                    failure = klass(
                        spec.name, "task %r failed after %d attempt(s): %s"
                        % (spec.name, attempts[index], value), tb_text)
        if failure is not None:
            raise failure
        # Worker registries are per-process, so their shipped deltas must
        # be folded in here (serial tasks wrote straight into ours).
        self._merge_obs(obs_slots, len(specs), merge_metrics=True)
        # Deterministic merge: declaration order, not completion order.
        return [slots[index] for index in range(len(specs))]

    # -- observability merge ----------------------------------------------

    @staticmethod
    def _count_attempt(status: str, will_retry: bool) -> None:
        if not REGISTRY.enabled:
            return
        REGISTRY.counter("pool.attempts").inc()
        if status == "ok":
            REGISTRY.counter("pool.tasks").inc()
        if status == "timeout":
            REGISTRY.counter("pool.timeouts").inc()
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
            progress: Optional[Callable[[TaskEvent], None]] = None,
            lanes: Optional[List[int]] = None) -> List[TaskResult]:
        """Run every spec; results come back in declaration order.

        ``lanes`` (persistent pools only) pins ``specs[i]`` to the worker
        that owns ``lanes[i]`` — the sticky-affinity transport.  Serial
        pools ignore it: everything already runs in the one process that
        holds all resident state.
        """
        specs = list(specs)
        if not specs:
            return []
        if lanes is not None and len(lanes) != len(specs):
            raise ReproError("lanes must parallel specs")
        if not self.parallel:
            return self._run_serial(specs, progress)
        if lanes is not None and not self.persistent:
            raise ReproError("lane routing requires a persistent pool")
        if lanes is None and self.persistent:
            raise ReproError("a persistent pool requires lane routing")
        return self._run_parallel(specs, progress, lanes)

    def map_values(self, specs: List[TaskSpec],
                   progress: Optional[Callable[[TaskEvent], None]] = None,
                   lanes: Optional[List[int]] = None) -> List[Any]:
        """``run`` but returning just the task values, in order."""
        return [result.value for result in self.run(specs, progress,
                                                    lanes=lanes)]

    def fetch_resident(self, name: str, epoch: int, lane: int) -> Any:
        """Pull a resident object home from the worker owning ``lane``.

        Returns the worker's copy of ``name`` at ``epoch``, or ``None``
        if that worker holds nothing current.  This is a side channel —
        no retries, no progress events, and deliberately no attempt
        counters or observability merge, so fetching state does not
        perturb the metrics that serial and parallel runs byte-compare.
        """
        if not self.parallel:
            return resident_lookup(name, epoch)
        if not self.persistent:
            raise ReproError("resident fetch requires a persistent pool")
        executor = self._lane_executor(self.executor_index(lane))
        spec = TaskSpec("fetch.%s" % name, resident_fetch, (name, epoch),
                        retries=0)
        status, value, _elapsed, _pid, tb_text, _obs = executor.submit(
            _worker, spec).result()
        if status != "ok":
            raise TaskError(spec.name,
                            "resident fetch for %r failed: %s"
                            % (name, value), tb_text)
        return _receive_value(value)

    # -- lifetime ----------------------------------------------------------

    def close(self) -> None:
        """Shut down persistent executors; idempotent, serial-safe."""
        lane_executors, self._lane_executors = self._lane_executors, {}
        for executor in lane_executors.values():
            executor.shutdown(wait=True)

    def __enter__(self) -> "TaskPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = [
    "SHM_MIN_BYTES",
    "TaskError",
    "TaskEvent",
    "TaskPool",
    "TaskResult",
    "TaskSpec",
    "TaskTimeout",
    "fork_available",
    "resident_fetch",
    "resident_lookup",
    "resident_store",
]
