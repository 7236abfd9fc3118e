"""Additional DES kernel edge cases."""

import pytest

from repro.sim import Simulation, SimError
from repro.sim.core import Process


def test_process_requires_generator():
    sim = Simulation()
    with pytest.raises(SimError):
        Process(sim, lambda: None)  # not a generator


def test_fail_requires_exception_instance():
    sim = Simulation()
    event = sim.event()
    with pytest.raises(SimError):
        event.fail("not an exception")


def test_process_failure_propagates_to_waiter():
    sim = Simulation()

    def broken():
        yield sim.timeout(1)
        raise ValueError("inner")

    def outer():
        yield sim.process(broken())

    sim.process(outer())
    with pytest.raises(ValueError):
        sim.run()


def test_value_passed_through_timeout():
    sim = Simulation()

    def proc():
        value = yield sim.timeout(1, value="ping")
        return value

    process = sim.process(proc())
    sim.run()
    assert process.value == "ping"


def test_event_ok_before_trigger_raises():
    sim = Simulation()
    event = sim.event()
    with pytest.raises(SimError):
        _ = event.ok


def test_nested_processes_three_deep():
    sim = Simulation()

    def level3():
        yield sim.timeout(1)
        return 3

    def level2():
        value = yield sim.process(level3())
        return value + 2

    def level1():
        value = yield sim.process(level2())
        return value + 1

    process = sim.process(level1())
    sim.run()
    assert process.value == 6
