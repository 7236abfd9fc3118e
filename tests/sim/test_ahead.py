"""``Simulation.ahead``: a wait completes in place only when the heap would
have popped it next anyway."""

import pytest

from repro.sim import Resource, SimError, Simulation, Store


def test_ahead_holds_when_strictly_earlier_than_the_head():
    sim = Simulation()
    seen = []

    def other():
        yield sim.timeout(1.0)

    def proc():
        seen.append((sim.ahead(0.5), sim.now))
        yield sim.timeout(1.0)
        seen.append((sim.ahead(2.0), sim.now))   # heap empty

    sim.process(other())
    sim.process(proc())
    sim.run()
    assert seen == [(True, 0.5), (True, 3.5)]
    assert sim.now == 3.5


def test_ahead_refuses_a_time_tie_with_a_queued_event():
    """The queued event has the smaller sequence number, so it runs first."""
    sim = Simulation()
    seen = []

    def other():
        yield sim.timeout(1.0)

    def proc():
        seen.append(sim.ahead(1.0))
        seen.append(sim.now)
        yield sim.timeout(0.0)

    sim.process(other())
    sim.process(proc())
    sim.run()
    assert seen == [False, 0.0]


def test_ahead_refuses_while_a_multi_callback_event_is_dispatched():
    """A second callback of the same event must still run at this instant."""
    sim = Simulation()
    gate = sim.event()
    seen = []

    def waiter():
        yield gate
        seen.append(sim.ahead(1.0))

    sim.process(waiter())
    sim.process(waiter())
    gate.succeed()
    sim.run()
    assert seen == [False, False]
    assert sim.now == 0.0


def test_ahead_refuses_outside_run():
    sim = Simulation()
    assert sim.ahead(0.0) is False
    assert sim.ahead(1.0) is False
    assert sim.now == 0.0

    def broken():
        yield sim.timeout(0.0)
        raise ValueError("inner")

    sim.process(broken())
    with pytest.raises(ValueError):
        sim.run()
    # A callback that raised out of run() does not leave the flag set.
    assert sim.ahead(1.0) is False


def test_ahead_rejects_negative_delay():
    sim = Simulation()
    with pytest.raises(SimError):
        sim.ahead(-1.0)


def test_uncontended_grant_and_store_ops_complete_in_place():
    sim = Simulation()
    resource = Resource(sim)
    store = Store(sim, capacity=2)
    seen = {}

    def proc():
        request = resource.acquire()
        seen["grant"] = request.processed and request.value is request
        resource.release(request)
        seen["put"] = store.put("x").processed
        got = store.get()
        seen["get"] = (got.processed, got.value)
        # Yielding a processed event still works (immediate path).
        value = yield store.put("y")
        seen["yielded"] = value

    sim.process(proc())
    sim.run()
    assert seen == {"grant": True, "put": True, "get": (True, "x"),
                    "yielded": None}
    # Outside run() nothing completes in place.
    assert not resource.acquire().processed


def test_hold_records_the_steps_acquire_and_release_would():
    def worker(sim, resource, in_place):
        if in_place:
            assert resource.hold(2.0)
        else:
            request = yield resource.acquire()
            yield sim.timeout(2.0)
            resource.release(request)
        yield sim.timeout(1.0)

    ends = []
    for in_place in (True, False):
        sim = Simulation()
        resource = Resource(sim, capacity=2)
        sim.process(worker(sim, resource, in_place))
        sim.run()
        ends.append((resource.in_use, sim.now))
    assert ends[0] == ends[1] == (0, 3.0)


def test_hold_refuses_a_contended_resource():
    sim = Simulation()
    resource = Resource(sim)
    seen = []

    def owner():
        request = resource.acquire()
        if not request.processed:
            yield request
        seen.append(resource.hold(1.0))
        resource.release(request)
        seen.append(resource.hold(1.0))

    sim.process(owner())
    sim.run()
    assert seen == [False, True]
    assert resource.in_use == 0
