"""NVRAM operation log unit tests."""

import pytest

from repro.errors import FilesystemError
from repro.nvram.log import OP_OVERHEAD, LoggedOp, NvramLog


def op(payload=b"", method="create"):
    return LoggedOp(method, (payload,), {})


def test_op_size_includes_payload():
    assert op(b"x" * 100).nbytes == OP_OVERHEAD + 100
    assert LoggedOp("m", ("path",), {"data": b"12"}).nbytes == OP_OVERHEAD + 6


def test_a_view_payload_is_charged_its_bytes():
    data = b"x" * 100
    as_bytes = LoggedOp("write_file", ("/a", data), {}).nbytes
    assert as_bytes == OP_OVERHEAD + 2 + 100
    for buffer in (memoryview(data), memoryview(data).toreadonly(),
                   bytearray(data)):
        assert LoggedOp("write_file", ("/a", buffer), {}).nbytes == as_bytes


def test_a_list_payload_is_charged_the_bytes_of_its_buffers():
    pieces = [b"x" * 40, memoryview(b"y" * 50)[:30], bytearray(30)]
    op = LoggedOp("write_file", ("/a", pieces), {"offset": 4096})
    assert op.nbytes == OP_OVERHEAD + 2 + 100
    assert LoggedOp("write_file", ("/a", []), {}).nbytes == OP_OVERHEAD + 2


def test_append_until_half_full():
    log = NvramLog(capacity=4 * OP_OVERHEAD)
    assert log.try_append(op())
    assert log.try_append(op())
    assert not log.try_append(op())  # active half full


def test_switch_halves_drains():
    log = NvramLog(capacity=4 * OP_OVERHEAD)
    log.try_append(op())
    log.try_append(op())
    log.switch_halves()
    assert len(log) == 0
    assert log.try_append(op())


def test_pending_ops_in_order():
    log = NvramLog(capacity=1024 * 1024)
    for index in range(5):
        log.try_append(LoggedOp("m%d" % index, (), {}))
    assert [o.method for o in log.pending_ops()] == [
        "m0", "m1", "m2", "m3", "m4",
    ]


def test_oversized_op_rejected():
    log = NvramLog(capacity=1024)
    with pytest.raises(FilesystemError):
        log.try_append(op(b"x" * 2048))


def test_failed_nvram_swallows_ops():
    log = NvramLog(capacity=1024 * 1024)
    log.try_append(op())
    log.fail()
    assert log.try_append(op())  # accepted but not stored
    assert len(log) == 0
    assert log.pending_ops() == []


def test_tiny_capacity_rejected():
    with pytest.raises(FilesystemError):
        NvramLog(capacity=10)


def test_accounting_counters():
    log = NvramLog(capacity=1024 * 1024)
    log.try_append(op(b"abc"))
    assert log.total_ops_logged == 1
    assert log.total_bytes_logged == OP_OVERHEAD + 3
