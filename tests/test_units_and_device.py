"""Units formatting and I/O-recorder coalescing."""

import pytest

from repro.storage.device import IoRecorder, coalesce_runs
from repro.units import (
    GB,
    KB,
    MB,
    fmt_bytes,
    fmt_duration,
    gb_per_hour,
    mb_per_s,
)


class TestUnits:
    def test_fmt_bytes(self):
        assert fmt_bytes(512) == "512 B"
        assert fmt_bytes(2 * KB) == "2.0 KB"
        assert fmt_bytes(5 * MB) == "5.0 MB"
        assert fmt_bytes(3 * GB) == "3.0 GB"

    def test_fmt_duration(self):
        assert fmt_duration(30) == "30.0 s"
        assert fmt_duration(90) == "1.5 min"
        assert fmt_duration(7200) == "2.00 h"

    def test_rates(self):
        assert mb_per_s(10 * MB, 2.0) == pytest.approx(5.0)
        assert gb_per_hour(1 * GB, 3600.0) == pytest.approx(1.0)
        assert mb_per_s(100, 0) == 0.0
        assert gb_per_hour(100, 0) == 0.0


class TestCoalesce:
    def test_adjacent_reads_merge(self):
        runs = coalesce_runs([("read", 10, 1), ("read", 11, 2),
                              ("read", 13, 1)])
        assert runs == [("read", 10, 4)]

    def test_gap_breaks_run(self):
        runs = coalesce_runs([("read", 10, 1), ("read", 20, 1)])
        assert runs == [("read", 10, 1), ("read", 20, 1)]

    def test_kind_change_breaks_run(self):
        runs = coalesce_runs([("read", 10, 1), ("write", 11, 1)])
        assert len(runs) == 2

    def test_backward_does_not_merge(self):
        runs = coalesce_runs([("read", 10, 2), ("read", 9, 1)])
        assert len(runs) == 2

    def test_empty(self):
        assert coalesce_runs([]) == []


class TestIoRecorder:
    def test_drain_coalesces_and_clears(self):
        recorder = IoRecorder()
        recorder.on_read(5, 1)
        recorder.on_read(6, 1)
        recorder.on_write(100, 4)
        assert recorder.drain() == [("read", 5, 2), ("write", 100, 4)]
        assert recorder.drain() == []

    def test_totals_accumulate(self):
        recorder = IoRecorder()
        recorder.on_read(0, 3)
        recorder.on_write(9, 2)
        recorder.drain()
        recorder.on_read(50, 1)
        assert recorder.total_read_blocks == 4
        assert recorder.total_written_blocks == 2

    def test_discard(self):
        recorder = IoRecorder()
        recorder.on_read(1, 1)
        recorder.discard()
        assert recorder.drain() == []
