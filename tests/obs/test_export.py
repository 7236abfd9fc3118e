"""Chrome trace_event export: tid mapping, metadata, schema validation."""

from __future__ import annotations

import json

import pytest

from repro.errors import ReproError
from repro.obs.export import (
    export_chrome_trace,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.obs.trace import Tracer


def sample_events():
    tracer = Tracer()
    tracer.complete("outer", cat="stage", ts=0.0, dur=1.0, tid="dump")
    tracer.complete("DiskReadOp", cat="op", ts=0.25, dur=0.125, tid="dump",
                    args={"stage": "Dumping files"})
    tracer.instant("sim.run_complete", cat="sim", ts=1.0, tid="sim")
    tracer.counter("queue", 2, cat="fleet", ts=1.0, tid="sim")
    return tracer.events()


def test_chrome_mapping_tids_and_timestamps():
    doc = to_chrome_trace(sample_events())
    events = doc["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    body = [e for e in events if e["ph"] != "M"]
    # Metadata first: one process_name plus one thread_name per lane.
    assert events[: len(meta)] == meta
    names = {(e["name"], e["args"]["name"]) for e in meta}
    assert ("process_name", "repro") in names
    assert ("thread_name", "dump") in names
    assert ("thread_name", "sim") in names
    # Lanes numbered in first-appearance order, starting at 1.
    assert [e["tid"] for e in body] == [1, 1, 2, 2]
    # Simulated seconds become integer microseconds.
    assert [e["ts"] for e in body] == [0, 250000, 1000000, 1000000]
    assert body[0]["dur"] == 1000000
    complete = body[1]
    assert complete["dur"] == 125000
    assert complete["args"] == {"stage": "Dumping files"}
    instant = body[2]
    assert instant["s"] == "t"
    assert body[3]["args"] == {"value": 2}
    assert doc["displayTimeUnit"] == "ms"


def test_chrome_mapping_separates_worker_pids():
    tracer = Tracer()
    tracer.instant("a", cat="t", ts=0.0, tid="x")
    worker = Tracer()
    worker.instant("b", cat="t", ts=0.0, tid="x")
    tracer.add_events(worker.take_events(), pid=2)
    doc = to_chrome_trace(tracer.events())
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    process_names = {e["pid"]: e["args"]["name"] for e in meta
                     if e["name"] == "process_name"}
    assert process_names == {0: "repro", 2: "worker-2"}
    # Same tid string on different pids gets distinct chrome lanes.
    lanes = {(e["pid"], e["tid"]) for e in doc["traceEvents"]
             if e["ph"] == "i"}
    assert len(lanes) == 2


def test_validate_chrome_trace_accepts_own_output():
    validate_chrome_trace(to_chrome_trace(sample_events()))


@pytest.mark.parametrize("doc", [
    {},
    {"traceEvents": [{"ph": "Z", "name": "x", "pid": 0, "tid": 1,
                      "ts": 0}]},
    {"traceEvents": [{"ph": "i", "pid": 0, "tid": 1, "ts": 0}]},
    {"traceEvents": [{"ph": "i", "name": "x", "ts": 0}]},
    {"traceEvents": [{"ph": "i", "name": "x", "pid": 0, "tid": 1,
                      "ts": 0.5}]},
    {"traceEvents": [{"ph": "X", "name": "x", "pid": 0, "tid": 1,
                      "ts": 0}]},
    {"traceEvents": [{"ph": "X", "name": "x", "pid": 0, "tid": 1,
                      "ts": 0, "dur": -1}]},
    {"traceEvents": [{"ph": "B", "name": "x", "pid": 0, "tid": 1,
                      "ts": 0}]},
])
def test_validate_chrome_trace_rejects_bad_documents(doc):
    with pytest.raises(ReproError):
        validate_chrome_trace(doc)


def test_export_writes_compact_valid_json(tmp_path):
    path = str(tmp_path / "trace.chrome.json")
    foreign = {"ph": "B", "name": "x", "ts": 0.0, "pid": 0, "tid": "dump"}
    count = export_chrome_trace(sample_events() + [foreign], path)
    with open(path) as handle:
        doc = json.load(handle)
    assert len(doc["traceEvents"]) == count
    validate_chrome_trace(doc)
    # Unknown phases never reach the export.
    assert {e["ph"] for e in doc["traceEvents"]} == {"X", "i", "C", "M"}
