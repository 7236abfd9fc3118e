"""Core of the discrete-event simulation kernel.

The model follows SimPy's architecture in miniature:

* A :class:`Simulation` owns a heap of ``(time, sequence, event)`` entries.
* An :class:`Event` is a one-shot occurrence with a value and a callback
  list.  Succeeding an event schedules it on the heap; when the simulation
  pops it, its callbacks run at that simulated instant.
* A :class:`Process` wraps a generator.  The generator yields events; the
  process resumes (``send``/``throw``) when the yielded event fires.  A
  process is itself an event, so processes can wait on each other.

Simulated time is a ``float`` number of seconds.  There is no wall-clock
component anywhere: a run over hours of simulated tape traffic completes in
milliseconds of real time.

One rule lets a process skip the heap: :meth:`Simulation.ahead`.  While
the loop dispatches an event with exactly one callback, a wait of
``delay`` whose end is *strictly* earlier than the heap's head (or the
heap is empty) would be popped next anyway — a new entry's sequence
number exceeds every queued one, so a time tie goes to the queued event.
``ahead`` then advances ``now`` in place and the caller runs on; nobody
else runs in between and every later event keeps its relative order, so
the run is the one the heap would have produced.  ``events_scheduled``
counts the heap entries actually pushed.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, List, Optional, Tuple


class SimError(Exception):
    """Raised for misuse of the simulation kernel."""


class Event:
    """A one-shot occurrence in simulated time.

    Events move through three states: *pending* (created, not yet
    triggered), *triggered* (scheduled on the heap with a value), and
    *processed* (callbacks have run).  ``succeed`` and ``fail`` trigger the
    event; failing makes the value an exception that is re-raised in any
    waiting process.
    """

    def __init__(self, sim: "Simulation"):
        self.sim = sim
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self.triggered = False
        self.processed = False

    @property
    def value(self) -> Any:
        return self._value

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimError("event has not been triggered")
        return self._ok

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully after ``delay`` seconds."""
        if self.triggered:
            raise SimError("event already triggered")
        self.triggered = True
        self._ok = True
        self._value = value
        self.sim._schedule(self, delay)
        return self

    def succeed_ahead(self, value: Any = None) -> "Event":
        """Trigger the event now; when :meth:`Simulation.ahead` holds it is
        *processed* in place instead of passing through the heap.

        For an event the calling process waits on at once: it checks
        ``processed`` and yields the event only if it is not.
        """
        if self.triggered or not self.sim.ahead(0.0):
            return self.succeed(value)  # raises if already triggered
        self.triggered = self.processed = True
        self._ok = True
        self._value = value
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception.

        The exception propagates (is raised) inside every process waiting
        on the event.
        """
        if self.triggered:
            raise SimError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimError("fail() requires an exception instance")
        self.triggered = True
        self._ok = False
        self._value = exception
        self.sim._schedule(self, delay)
        return self

class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    def __init__(self, sim: "Simulation", delay: float, value: Any = None):
        if delay < 0:
            raise SimError("negative timeout delay %r" % (delay,))
        # Initialized flat (no Event.__init__) — a Timeout is born triggered
        # and this constructor is the hottest allocation in the kernel.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self.triggered = True
        self.processed = False
        self.delay = delay
        sim._schedule(self, delay)


class Process(Event):
    """A generator-based simulated process.

    The generator yields :class:`Event` instances and is resumed with the
    event's value when it fires.  When the generator returns, the process
    (itself an event) succeeds with the generator's return value, waking
    anything that was waiting on it.
    """

    def __init__(self, sim: "Simulation", generator: Generator, name: str = ""):
        super().__init__(sim)
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimError("Process requires a generator, got %r" % (generator,))
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        # Bootstrap: resume the process at the current simulated instant.
        bootstrap = Event(sim)
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed()

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def _resume(self, event: Event) -> None:
        # Runs once per yield of every process in the system.
        if self.triggered:
            return
        try:
            if event._ok is False:
                target = self._generator.throw(event._value)
            else:
                target = self._generator.send(event._value)
        except StopIteration as stop:
            self.succeed(getattr(stop, "value", None))
            return
        if not isinstance(target, Event):
            self._generator.close()
            self.fail(SimError("process yielded non-event %r" % (target,)))
            return
        if target.processed:
            # Already fired: resume immediately (still via the event loop so
            # that resumption order stays deterministic).
            immediate = Event(self.sim)
            immediate.callbacks.append(
                lambda _evt, tgt=target: self._resume(tgt)
            )
            immediate.succeed()
        else:
            target.callbacks.append(self._resume)


class Simulation:
    """The event loop: a heap of scheduled events and a simulated clock."""

    def __init__(self):
        self._heap: List[Tuple[float, int, Event]] = []
        self._sequence = 0
        self.now = 0.0
        # True only while run() dispatches the callback of an event that
        # has exactly one.
        self._sole = False

    @property
    def events_scheduled(self) -> int:
        """Heap entries ever pushed (the sequence counter); waits that
        :meth:`ahead` completed in place are not among them."""
        return self._sequence

    # -- scheduling -----------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        self._sequence += 1
        heapq.heappush(self._heap, (self.now + delay, self._sequence, event))

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def ahead(self, delay: float) -> bool:
        """Complete a wait of ``delay`` in place if the heap would pop it
        next anyway; return False (changing nothing) otherwise.

        Holds only inside the sole callback of the event being
        dispatched, and only if ``now + delay`` is strictly earlier than
        the heap's head.  The caller then continues at the advanced
        ``now`` exactly as if a timeout had been scheduled and popped.
        """
        if delay < 0:
            raise SimError("negative timeout delay %r" % (delay,))
        if not self._sole:
            return False
        when = self.now + delay
        heap = self._heap
        if heap and heap[0][0] <= when:
            return False
        self.now = when
        return True

    # -- execution ------------------------------------------------------

    def run(self) -> None:
        """Run until the heap drains."""
        # This loop pops hundreds of thousands of events per experiment,
        # so attribute lookups are hoisted out of it.
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap:
                when, _seq, event = pop(heap)
                if when < self.now:
                    raise SimError(
                        "time went backwards: %r < %r" % (when, self.now))
                self.now = when
                # An event nothing waits on just flips to processed.
                event.processed = True
                callbacks = event.callbacks
                if callbacks:
                    event.callbacks = []
                    self._sole = len(callbacks) == 1
                    for callback in callbacks:
                        callback(event)
        finally:
            self._sole = False
