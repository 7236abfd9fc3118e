"""Resource primitives for the simulation kernel.

:class:`Resource` models a server with fixed capacity (a CPU, a disk
channel, a tape drive) with FIFO queueing.  :class:`Store` is a bounded
buffer used to join the producer (disk-side) and consumer (tape-side)
halves of a backup pipeline.

Neither keeps an account of the work it served: the executor
(:mod:`repro.perf.executor`) records each op's time and bytes itself.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.sim.core import Event, SimError, Simulation


class Request(Event):
    """A pending claim on a :class:`Resource` (also the release token)."""

    def __init__(self, resource: "Resource", amount: int = 1):
        super().__init__(resource.sim)
        self.resource = resource
        self.amount = amount
        self.released = False


class Resource:
    """A capacity-limited resource with FIFO admission.

    Usage from a process::

        req = resource.acquire()
        if not req.processed:
            yield req
        try:
            if not sim.ahead(service_time):
                yield sim.timeout(service_time)
        finally:
            resource.release(req)

    ``acquire`` returns an event whose value is the request token itself.
    An uncontended grant comes back already processed when
    :meth:`Simulation.ahead` holds; yielding it anyway also works.
    """

    def __init__(self, sim: Simulation, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimError("resource capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._queue: Deque[Request] = deque()

    def acquire(self, amount: int = 1) -> Request:
        if amount < 1 or amount > self.capacity:
            raise SimError(
                "cannot acquire %d units of %r (capacity %d)"
                % (amount, self.name, self.capacity)
            )
        request = Request(self, amount)
        if not self._queue and self.in_use + amount <= self.capacity:
            # Uncontended fast path: grant immediately, with the same state
            # mutations the queued path would perform; the grant skips the
            # heap when the heap would deliver it next anyway.
            self.in_use += amount
            request.succeed_ahead(request)
            return request
        self._queue.append(request)
        self._grant()
        return request

    def hold(self, delay: float) -> bool:
        """Acquire one unit, hold it ``delay`` seconds and release it, all
        in place, when the grant is uncontended and
        :meth:`Simulation.ahead` covers the hold; return False (changing
        nothing) otherwise.  The clock and ``in_use`` end where
        ``acquire``/``release`` would leave them."""
        if self._queue or self.in_use >= self.capacity:
            return False
        return self.sim.ahead(delay)

    def release(self, request: Request) -> None:
        if request.released:
            raise SimError("double release on %r" % (self.name,))
        if not request.triggered:
            # Cancelled while still queued.
            request.released = True
            self._queue.remove(request)
            return
        request.released = True
        self.in_use -= request.amount
        self._grant()

    def _grant(self) -> None:
        while self._queue:
            head = self._queue[0]
            if self.in_use + head.amount > self.capacity:
                return
            self._queue.popleft()
            self.in_use += head.amount
            head.succeed(head)


class Store:
    """A bounded FIFO buffer connecting producer and consumer processes.

    ``put`` blocks (the returned event stays pending) while the store is
    full; ``get`` blocks while it is empty.  Item count may be weighted:
    a put of ``weight=n`` occupies n slots, which lets the backup pipeline
    buffer be sized in blocks while items are multi-block extents.
    """

    def __init__(self, sim: Simulation, capacity: float = float("inf"), name: str = ""):
        if capacity <= 0:
            raise SimError("store capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.level = 0.0
        self._items: Deque[Any] = deque()
        self._putters: Deque[Event] = deque()
        self._getters: Deque[Event] = deque()

    def put(self, item: Any, weight: float = 1.0) -> Event:
        if weight <= 0:
            raise SimError("put weight must be positive")
        if weight > self.capacity:
            raise SimError(
                "item weight %r exceeds store capacity %r" % (weight, self.capacity)
            )
        event = Event(self.sim)
        if not self._putters and self.level + weight <= self.capacity:
            # Uncontended fast path: admit directly (the queued path would
            # admit this putter first and then serve getters — identical
            # succeed() order).  The putter triggers before a served
            # getter's event reaches the heap, where ahead() would see it.
            self.level += weight
            self._items.append((item, weight))
            event.succeed_ahead()
            if self._getters:
                self._drain()
            return event
        event._put_item = (item, weight)  # type: ignore[attr-defined]
        self._putters.append(event)
        self._drain()
        return event

    def get(self) -> Event:
        event = Event(self.sim)
        if not self._putters and self._items:
            # Items present implies no queued getters (drain pairs them up),
            # so this get is served first either way.
            item, weight = self._items.popleft()
            self.level -= weight
            event.succeed_ahead(item)
            return event
        self._getters.append(event)
        self._drain()
        return event

    def _drain(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            # Admit putters while space allows.
            while self._putters:
                putter = self._putters[0]
                item, weight = putter._put_item  # type: ignore[attr-defined]
                if self.level + weight > self.capacity:
                    break
                self._putters.popleft()
                self.level += weight
                self._items.append((item, weight))
                putter.succeed()
                progressed = True
            # Serve getters while items exist.
            while self._getters and self._items:
                getter = self._getters.popleft()
                item, weight = self._items.popleft()
                self.level -= weight
                getter.succeed(item)
                progressed = True

    def __len__(self) -> int:
        return len(self._items)


__all__ = ["Request", "Resource", "Store"]
