"""Unit tests for Resource and Store."""

import pytest

from repro.sim import Resource, SimError, Simulation, Store


def test_resource_serializes_capacity_one():
    sim = Simulation()
    resource = Resource(sim, capacity=1)
    finish = []

    def worker(tag):
        request = yield resource.acquire()
        yield sim.timeout(2)
        resource.release(request)
        finish.append((tag, sim.now))

    sim.process(worker("a"))
    sim.process(worker("b"))
    sim.run()
    assert finish == [("a", 2), ("b", 4)]


def test_resource_parallel_capacity_two():
    sim = Simulation()
    resource = Resource(sim, capacity=2)
    finish = []

    def worker(tag):
        request = yield resource.acquire()
        yield sim.timeout(2)
        resource.release(request)
        finish.append((tag, sim.now))

    for tag in "abc":
        sim.process(worker(tag))
    sim.run()
    assert finish == [("a", 2), ("b", 2), ("c", 4)]


def test_resource_weighted_acquire_blocks_narrow():
    sim = Simulation()
    resource = Resource(sim, capacity=4)
    events = []

    def wide():
        request = yield resource.acquire(4)
        events.append(("wide-start", sim.now))
        yield sim.timeout(5)
        resource.release(request)

    def narrow():
        yield sim.timeout(1)
        request = yield resource.acquire(1)
        events.append(("narrow-start", sim.now))
        resource.release(request)

    sim.process(wide())
    sim.process(narrow())
    sim.run()
    assert events == [("wide-start", 0), ("narrow-start", 5)]


def test_resource_over_capacity_rejected():
    sim = Simulation()
    resource = Resource(sim, capacity=2)
    with pytest.raises(SimError):
        resource.acquire(3)


def test_resource_double_release_rejected():
    sim = Simulation()
    resource = Resource(sim, capacity=1)

    def worker():
        request = yield resource.acquire()
        resource.release(request)
        with pytest.raises(SimError):
            resource.release(request)

    process = sim.process(worker())
    sim.run()
    assert process.ok


def test_store_fifo_order():
    sim = Simulation()
    store = Store(sim, capacity=10)
    received = []

    def producer():
        for item in range(3):
            yield store.put(item)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            received.append(item)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert received == [0, 1, 2]


def test_store_blocks_producer_when_full():
    sim = Simulation()
    store = Store(sim, capacity=2)
    times = []

    def producer():
        for item in range(4):
            yield store.put(item)
            times.append(sim.now)

    def consumer():
        while True:
            yield sim.timeout(5)
            yield store.get()

    sim.process(producer())
    sim.process(consumer())
    sim.run()  # drains once the consumer blocks on the empty store
    # First two fit immediately; the rest wait for consumption.
    assert times[:2] == [0, 0]
    assert times[2] == 5
    assert times[3] == 10


def test_store_blocks_consumer_when_empty():
    sim = Simulation()
    store = Store(sim, capacity=10)
    got = []

    def consumer():
        item = yield store.get()
        got.append((item, sim.now))

    def producer():
        yield sim.timeout(7)
        yield store.put("late")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == [("late", 7)]


def test_store_weighted_items():
    sim = Simulation()
    store = Store(sim, capacity=100)

    def producer():
        yield store.put("big", weight=70)
        yield store.put("small", weight=40)  # must wait: 70+40 > 100

    def consumer():
        yield sim.timeout(3)
        item = yield store.get()
        assert item == "big"

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert store.level == 40


def test_store_overweight_item_rejected():
    sim = Simulation()
    store = Store(sim, capacity=10)
    with pytest.raises(SimError):
        store.put("x", weight=11)
