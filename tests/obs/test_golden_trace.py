"""Golden-file test: a traced run is byte-stable, viewable, well-formed.

The trace of a fixed workload (a logical dump, a full restore of that
tape onto a fresh volume, and an image dump of the small reference tree
on the small reference volume) is a pure function
of the workload — no wall clock, no process ids, no dict-order
dependence — so the JSONL sink must match the committed golden file
byte for byte.  Regenerate after an *intended* timing-model change
with::

    PYTHONPATH=src:. python -c "from tests.obs.test_golden_trace import \
write_reference_trace; write_reference_trace('tests/obs/golden/backup_trace.jsonl')"
"""

from __future__ import annotations

import os

from repro.backup import DumpDates, ImageDump, LogicalDump, LogicalRestore
from repro.obs.export import to_chrome_trace, validate_chrome_trace
from repro.obs.trace import Tracer, read_jsonl, set_tracer
from repro.perf.executor import TimedRun

from tests.conftest import make_drive, make_fs, populate_small_tree

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "backup_trace.jsonl")


def traced_backup_run() -> Tracer:
    """Logical dump, full restore of it, then image dump of the fixed
    tree, one shared tracer."""
    tracer = Tracer()
    fs = make_fs(name="src")
    populate_small_tree(fs)
    ltape = make_drive(name="ltape")

    set_tracer(tracer)
    try:
        logical = TimedRun()
        logical.add_job("logical-dump",
                        LogicalDump(fs, ltape, dumpdates=DumpDates()).run())
        logical.run()

        restore = TimedRun()
        restore.add_job("logical-restore",
                        LogicalRestore(make_fs(name="dst"), ltape).run())
        restore.run()

        image = TimedRun()
        image.add_job("image-dump",
                      ImageDump(fs, make_drive(name="itape")).run())
        image.run()
    finally:
        set_tracer(None)
    return tracer


def write_reference_trace(path: str) -> int:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return traced_backup_run().write_jsonl(path)


def test_traced_run_matches_committed_golden(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    traced_backup_run().write_jsonl(path)
    with open(path, "rb") as handle:
        produced = handle.read()
    with open(GOLDEN_PATH, "rb") as handle:
        golden = handle.read()
    assert produced == golden, (
        "traced run diverged from %s — if the timing model changed on"
        " purpose, regenerate the golden file (see module docstring)"
        % GOLDEN_PATH)


def test_traced_run_is_run_to_run_reproducible(tmp_path):
    first = str(tmp_path / "a.jsonl")
    second = str(tmp_path / "b.jsonl")
    traced_backup_run().write_jsonl(first)
    traced_backup_run().write_jsonl(second)
    with open(first, "rb") as fa, open(second, "rb") as fb:
        assert fa.read() == fb.read()


def test_golden_trace_is_well_formed_and_exportable():
    events = read_jsonl(GOLDEN_PATH)  # also checks phases and footer
    assert events, "golden trace is empty"
    doc = to_chrome_trace(events)
    validate_chrome_trace(doc)
    # Every event category the plane emits is represented.
    cats = {event.get("cat") for event in events}
    assert {"op", "stage", "job", "sim"} <= cats
    # Every job made it into the stream.
    tids = {event.get("tid") for event in events}
    assert {"logical-dump", "logical-restore", "image-dump", "sim"} <= tids
