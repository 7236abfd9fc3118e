"""Tracer semantics: ordering, merge, JSONL sink and its input check."""

from __future__ import annotations

import json

import pytest

from repro.errors import ReproError
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    get_tracer,
    read_jsonl,
    set_tracer,
)


def test_events_sort_by_ts_then_seq():
    tracer = Tracer()
    tracer.instant("late", ts=5.0)
    tracer.instant("early", ts=1.0)
    tracer.instant("early-too", ts=1.0)
    names = [e["name"] for e in tracer.events()]
    # Equal timestamps keep emission (seq) order — the sort is stable.
    assert names == ["early", "early-too", "late"]


def test_missing_ts_falls_back_to_sequence():
    tracer = Tracer()
    first = tracer.instant("one")
    second = tracer.instant("two")
    assert first["ts"] == first["seq"] == 0
    assert second["ts"] == second["seq"] == 1


def test_take_events_drains():
    tracer = Tracer()
    tracer.instant("x", ts=0.0)
    assert [e["name"] for e in tracer.take_events()] == ["x"]
    assert tracer.events() == []


def test_add_events_resequences_and_overrides_pid():
    worker = Tracer()
    worker.complete("op", cat="op", ts=3.0, dur=1.0, tid="job")
    worker.instant("mark", ts=4.0, tid="job")
    shipped = worker.take_events()

    parent = Tracer()
    parent.instant("before", ts=0.0)
    parent.add_events(shipped, pid=7)
    events = parent.events()
    assert [e["seq"] for e in events] == [0, 1, 2]
    assert [e.get("pid") for e in events] == [0, 7, 7]
    # The shipped dicts were copied, not adopted.
    assert shipped[0]["pid"] == 0


def test_jsonl_round_trip_and_footer(tmp_path):
    tracer = Tracer()
    tracer.complete("op", cat="op", ts=1.5, dur=0.5, tid="j",
                    args={"stage": "s"})
    tracer.instant("mark", cat="sim", ts=2.0, tid="sim")
    tracer.counter("queue", 3, cat="fleet", ts=2.5, tid="sched")
    path = str(tmp_path / "t.jsonl")
    assert tracer.write_jsonl(path) == 3
    events = read_jsonl(path)
    assert events == tracer.events()
    assert [event["ph"] for event in events] == ["X", "i", "C"]
    with open(path) as handle:
        lines = handle.read().splitlines()
    assert len(lines) == 4
    footer = json.loads(lines[-1])
    assert footer == {"events": 3, "ph": "footer", "schema": 1}
    # Keys are sorted in every line — byte-stable output.
    for line in lines:
        assert line == json.dumps(json.loads(line), sort_keys=True)


def test_read_jsonl_rejects_bad_footer(tmp_path):
    path = str(tmp_path / "bad.jsonl")
    with open(path, "w") as handle:
        handle.write('{"ph": "i", "name": "x", "ts": 0, "seq": 0}\n')
    with pytest.raises(ReproError, match="no footer"):
        read_jsonl(path)
    with open(path, "a") as handle:
        handle.write('{"ph": "footer", "events": 5, "schema": 1}\n')
    with pytest.raises(ReproError, match="footer says 5 events, found 1"):
        read_jsonl(path)


@pytest.mark.parametrize("line, message", [
    ('{"ph": "i", "name": "x", "ts": 0', "line 1 is not JSON"),
    ('{"ph": "B", "name": "x", "ts": 0}', "line 1 has phase 'B'"),
    ('{"ph": "E", "name": "x", "ts": 0}', "line 1 has phase 'E'"),
    ('["X"]', "line 1 has phase None"),
    ('{"ph": "i", "name": "\xff"}', "line 1 is not JSON"),
    ('{"ph": "i", "name": "x"}', "line 1 needs a numeric ts"),
    ('{"ph": "X", "name": "x", "ts": 0, "dur": "1"}',
     "line 1 needs a numeric ts"),
], ids=["not-json", "phase-B", "phase-E", "not-an-object", "not-utf8",
        "no-ts", "text-dur"])
def test_read_jsonl_rejects_bad_lines(tmp_path, line, message):
    path = str(tmp_path / "bad.jsonl")
    with open(path, "w", encoding="latin-1") as handle:
        handle.write(line + '\n{"ph": "footer", "events": 1, "schema": 1}\n')
    with pytest.raises(ReproError, match=message):
        read_jsonl(path)


def test_null_tracer_is_inert():
    null = NullTracer()
    assert null.enabled is False
    assert null.complete("x") is None
    assert null.instant("x") is None
    assert null.events() == [] and null.take_events() == []
    null.add_events([{"ph": "i"}])
    with pytest.raises(RuntimeError):
        null.write_jsonl("/dev/null")


def test_global_tracer_install_and_reset():
    assert get_tracer() is NULL_TRACER
    tracer = Tracer()
    set_tracer(tracer)
    assert get_tracer() is tracer
    set_tracer(None)
    assert get_tracer() is NULL_TRACER
