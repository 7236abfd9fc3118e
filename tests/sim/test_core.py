"""Unit tests for the DES kernel."""

import pytest

from repro.sim import Simulation, SimError


def test_timeout_advances_clock():
    sim = Simulation()

    def proc():
        yield sim.timeout(5.0)
        return "done"

    process = sim.process(proc())
    sim.run()
    assert process.value == "done"
    assert sim.now == 5.0


def test_timeouts_fire_in_order():
    sim = Simulation()
    order = []

    def proc(delay, tag):
        yield sim.timeout(delay)
        order.append(tag)

    sim.process(proc(3, "c"))
    sim.process(proc(1, "a"))
    sim.process(proc(2, "b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_equal_time_events_fifo():
    sim = Simulation()
    order = []

    def proc(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in range(5):
        sim.process(proc(tag))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_negative_timeout_rejected():
    sim = Simulation()
    with pytest.raises(SimError):
        sim.timeout(-1)


def test_process_waits_on_process():
    sim = Simulation()

    def child():
        yield sim.timeout(4)
        return 42

    def parent():
        value = yield sim.process(child())
        return value + 1

    process = sim.process(parent())
    sim.run()
    assert process.value == 43
    assert sim.now == 4


def test_process_return_value_none_by_default():
    sim = Simulation()

    def proc():
        yield sim.timeout(1)

    process = sim.process(proc())
    sim.run()
    assert process.ok and process.value is None


def test_event_succeed_wakes_waiter():
    sim = Simulation()
    gate = sim.event()
    seen = []

    def waiter():
        value = yield gate
        seen.append(value)

    def opener():
        yield sim.timeout(2)
        gate.succeed("open")

    sim.process(waiter())
    sim.process(opener())
    sim.run()
    assert seen == ["open"]
    assert sim.now == 2


def test_event_fail_raises_in_waiter():
    sim = Simulation()
    gate = sim.event()

    def waiter():
        yield gate

    sim.process(waiter())
    gate.fail(ValueError("boom"))
    with pytest.raises(ValueError):
        sim.run()


def test_event_double_trigger_rejected():
    sim = Simulation()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimError):
        event.succeed(2)


def test_deadlock_detected():
    """``run()`` returns when the heap drains; a process still alive then
    is blocked for good, which is how ``perf/executor.py`` reports it."""
    sim = Simulation()
    gate = sim.event()  # never triggered

    def waiter():
        yield gate

    process = sim.process(waiter())
    sim.run()
    assert process.is_alive


def test_yield_non_event_fails_process():
    sim = Simulation()

    def proc():
        yield 42

    process = sim.process(proc())
    sim.run()
    assert not process.ok
    assert isinstance(process.value, SimError)


def test_waiting_on_already_processed_event():
    sim = Simulation()
    event = sim.event()
    event.succeed("early")
    sim.run()  # process the event fully

    def late_waiter():
        value = yield event
        return value

    process = sim.process(late_waiter())
    sim.run()
    assert process.value == "early"
