"""The logical restore's NVRAM log holds views of the tape, not copies.

Each restore write is a list of the tape's records (or read-only views
of them) that ``write_file`` logs as it is given.  Against a test-local
copy of the writer that joined every write to ``bytes`` first, the log
must be charged the same bytes, take the same consistency points and
leave the same volume — and after the restore it must own no payload:
every buffer it holds is a tape record's (or the shared zero pad's), and
clearing it frees next to nothing, where the joining writer's log frees
every byte it was charged.
"""

import gc
import tracemalloc

import pytest

from repro.backup import DumpDates, LogicalDump, LogicalRestore, drain_engine
from repro.backup.logical import restore as restore_module
from repro.chaos.verify import volume_digest
from repro.nvram.log import NvramLog
from repro.storage.disk import is_zero_fill
from repro.units import MB
from repro.wafl.consts import BLOCK_SIZE
from repro.wafl.filesystem import WaflFilesystem
from repro.wafl.fsck import fsck

from tests.conftest import make_drive, make_fs, make_volume, populate_small_tree

_SEGMENTS_PER_BLOCK = restore_module._SEGMENTS_PER_BLOCK


def _joining_write_runs(entry):
    """The writer as it was: each stream run as ``bytes`` (what the
    reader once handed over), padded by a copy, and every write of at
    most 64 blocks joined to one ``bytes``."""
    start, parts, nblocks, block = 0, [], 0, 0
    for count, buf in entry.runs:
        bcount = -(-count // _SEGMENTS_PER_BLOCK)
        if buf is None:
            if nblocks:
                yield start, b"".join(parts), nblocks
                parts, nblocks = [], 0
            block += bcount
            continue
        buf = b"".join(buf) if isinstance(buf, list) else bytes(buf)
        view = memoryview(buf + bytes(bcount * BLOCK_SIZE - len(buf)))
        offset = 0
        while bcount:
            if not nblocks:
                start = block
            take = min(bcount, 64 - nblocks)
            parts.append(view[offset * BLOCK_SIZE : (offset + take) * BLOCK_SIZE])
            nblocks += take
            block += take
            offset += take
            bcount -= take
            if nblocks == 64:
                yield start, b"".join(parts), nblocks
                parts, nblocks = [], 0
    if nblocks:
        yield start, b"".join(parts), nblocks


def _dumped():
    source = make_fs(name="src")
    populate_small_tree(source)
    # Many-run files with partial last blocks, and writes past 64 blocks.
    for index in range(6):
        size = (37 + 29 * index) * BLOCK_SIZE + 123 * index + 1
        source.create("/big%d" % index,
                      bytes([index + 1]) * (size // 2) + bytes(range(256)) * (
                          (size - size // 2) // 256))
    drive = make_drive()
    drain_engine(LogicalDump(source, drive, level=0,
                             dumpdates=DumpDates()).run())
    return source, drive


def _tape_owned(drive):
    """The ids of every object a tape record is or views."""
    owned = set()
    for cartridge in drive.stacker.cartridges:
        for record in cartridge.records():
            owned.add(id(record))
            if isinstance(record, memoryview):
                owned.add(id(record.obj))
    return owned


def _logged_writes(nvram, owned):
    """``(bytes charged, bytes not in a tape's or the zero pad's
    buffers)`` of the log's pending ``write_file`` ops."""
    writes = [op for op in nvram.pending_ops() if op.method == "write_file"]
    foreign = 0
    for op in writes:
        data = op.args[1]
        for piece in (data if isinstance(data, list) else [data]):
            owner = piece.obj if isinstance(piece, memoryview) else piece
            if id(owner) not in owned and not is_zero_fill(piece):
                foreign += len(piece)
    return sum(op.nbytes for op in writes), foreign


def _restore(drive, traced):
    """Restore ``drive`` onto a fresh file system with a 1 MB NVRAM.
    Returns the file system, the bytes its pending ``write_file`` ops
    were charged, how many of those bytes sit in buffers that are
    neither a tape record's nor the shared zero pad, and (``traced``)
    the bytes clearing the log freed."""
    target = WaflFilesystem.format(make_volume(name="dst"),
                                   nvram=NvramLog(capacity=1 * MB))
    owned = _tape_owned(drive)
    if traced:
        tracemalloc.start()
    try:
        drain_engine(LogicalRestore(target, drive).run())
        payload, foreign = _logged_writes(target.nvram, owned)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] if traced else 0
        target.nvram.clear()
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0] if traced else 0
    finally:
        if traced:
            tracemalloc.stop()
    return target, payload, foreign, freed


def test_restore_logs_the_same_bytes_as_a_joining_writer(monkeypatch):
    source, drive = _dumped()
    ours = _restore(drive, traced=False)[0]
    with monkeypatch.context() as patch:
        patch.setattr(restore_module, "_write_runs", _joining_write_runs)
        theirs = _restore(drive, traced=False)[0]
    assert ours.nvram.total_bytes_logged == theirs.nvram.total_bytes_logged
    assert ours.nvram.total_ops_logged == theirs.nvram.total_ops_logged
    assert ours.counters["cp_count"] == theirs.counters["cp_count"] > 2
    ours.consistency_point()
    theirs.consistency_point()
    assert volume_digest(ours.volume) == volume_digest(theirs.volume)
    assert fsck(ours).clean
    for index in range(6):
        assert (ours.read_file("/big%d" % index)
                == source.read_file("/big%d" % index))


def test_the_log_owns_no_payload_after_a_restore(monkeypatch):
    _source, drive = _dumped()
    _target, payload, foreign, freed = _restore(drive, traced=True)
    assert payload > 256 * 1024
    assert foreign == 0
    assert freed < payload // 10
    with monkeypatch.context() as patch:
        patch.setattr(restore_module, "_write_runs", _joining_write_runs)
        _target, their_payload, their_foreign, their_freed = _restore(
            drive, traced=True)
    # The joining writer's log is charged the same and owns all of it.
    assert their_payload == payload
    assert their_foreign >= payload - 200 * 128
    assert their_freed >= their_foreign


@pytest.mark.parametrize("nblocks", [1, 63, 64, 65, 130])
def test_write_runs_cut_at_64_blocks_without_copying(nblocks):
    source = make_fs(name="src")
    data = bytes(range(256)) * (nblocks * BLOCK_SIZE // 256) + b"tail"
    source.create("/f", data)
    drive = make_drive()
    drain_engine(LogicalDump(source, drive, level=0,
                             dumpdates=DumpDates()).run())
    namespace = restore_module.DumpNamespace(drive).load()
    entry = next(e for e in namespace.files() if e.header.size == len(data))
    writes = list(restore_module._write_runs(entry))
    assert [(start, count) for start, _pieces, count in writes] == [
        (start, min(64, nblocks + 1 - start))
        for start in range(0, nblocks + 1, 64)]
    assert all(isinstance(pieces, list) for _start, pieces, _count in writes)
    joined = b"".join(piece for _s, pieces, _c in writes for piece in pieces)
    assert joined == data + bytes(BLOCK_SIZE - 4)
