"""Helpers in repro.backup.common and perf op utilities."""

import pytest

from repro.backup.common import (
    MAX_RUN_BLOCKS,
    BackupResult,
    RecorderScope,
    chunked_cpu,
    drain_engine,
)
from repro.perf.ops import CpuOp, SleepOp

from tests.conftest import make_volume


def test_chunked_cpu_sums_to_total():
    ops = chunked_cpu(0.173, "stage", max_piece=0.05)
    assert sum(op.seconds for op in ops) == pytest.approx(0.173)
    assert all(op.seconds <= 0.05 + 1e-12 for op in ops)
    assert all(op.stage == "stage" for op in ops)


def test_chunked_cpu_zero():
    assert chunked_cpu(0.0, "s") == []


def test_drain_engine_returns_value():
    def engine():
        yield CpuOp(0.1)
        yield SleepOp(1.0)
        return "payload"

    assert drain_engine(engine()) == "payload"


def test_recorder_scope_restores_previous():
    volume = make_volume()
    outer = RecorderScope(volume)
    with outer:
        volume.write_block(10, bytes(4096))
        with RecorderScope(volume) as inner:
            volume.write_block(11, bytes(4096))
        # Inner scope captured only its own access...
        assert inner.recorder.total_written_blocks == 1
        volume.write_block(12, bytes(4096))
    # ... and the outer recorder got the rest.
    assert outer.recorder.total_written_blocks == 2
    assert volume.recorder is None


def test_recorder_scope_splits_long_runs():
    volume = make_volume(blocks_per_disk=3000)
    with RecorderScope(volume) as scope:
        volume.write_run(0, bytes((MAX_RUN_BLOCKS + 50) * 4096))
    ops = scope.drain_ops("x")
    assert len(ops) == 2
    assert ops[0].nblocks == MAX_RUN_BLOCKS
    assert ops[1].nblocks == 50


def test_backup_result_repr():
    result = BackupResult()
    result.files = 3
    assert "files=3" in repr(result)
