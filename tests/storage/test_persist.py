"""Volume, environment, tenant, tape and media container persistence."""

import io
import json
import os
import pathlib
import shutil
import struct
import zlib

import pytest

from repro.bench import configs, run_all
from repro.bench.configs import EliotConfig
from repro.cli import main
from repro.errors import ReproError, StorageError, TapeError
from repro.storage import persist
from repro.storage.persist import (
    CONTAINER_VERSION,
    load_env_container,
    load_media,
    load_tape,
    load_volume,
    save_env_container,
    save_media,
    save_tape,
    save_volume,
)
from repro.storage.tape import TapeCartridge
from repro.units import KB, MB
from repro.wafl.filesystem import WaflFilesystem
from repro.wafl.fsck import fsck
from repro.workload.generator import GeneratedTree

from tests.conftest import (
    make_drive,
    make_fs,
    make_volume,
    populate_small_tree,
)


def test_volume_roundtrip_bit_identical(tmp_path):
    fs = make_fs(name="orig")
    populate_small_tree(fs)
    fs.consistency_point()
    path = str(tmp_path / "vol.bin")
    save_volume(fs.volume, path)
    loaded = load_volume(path)
    assert loaded.geometry == fs.volume.geometry
    assert loaded.name == "orig"
    for block in range(0, fs.volume.nblocks, 37):
        assert loaded.read_block(block) == fs.volume.read_block(block)
    # Parity travels too: the loaded volume still reconstructs.
    assert loaded.verify_parity()


def test_loaded_volume_mounts(tmp_path):
    fs = make_fs(name="orig")
    populate_small_tree(fs)
    fs.snapshot_create("keeper")
    fs.consistency_point()
    path = str(tmp_path / "vol.bin")
    save_volume(fs.volume, path)
    remounted = WaflFilesystem.mount(load_volume(path))
    assert remounted.read_file("/docs/readme.txt") == \
        fs.read_file("/docs/readme.txt")
    assert [s.name for s in remounted.snapshots()] == ["keeper"]
    assert fsck(remounted).clean


def test_tape_roundtrip(tmp_path):
    drive = make_drive(tapes=3, capacity=1 * MB)
    payload = bytes(range(256)) * 9000  # spans cartridges
    drive.write(payload)
    path = str(tmp_path / "tape.bin")
    save_tape(drive, path)
    loaded = load_tape(path)
    assert loaded.stream_bytes() == payload
    loaded.rewind()
    assert loaded.read(len(payload)) == payload


def test_tape_roundtrip_preserves_capacity(tmp_path):
    drive = make_drive(tapes=2, capacity=1 * MB)
    drive.write(b"abc")
    path = str(tmp_path / "tape.bin")
    save_tape(drive, path)
    loaded = load_tape(path)
    assert loaded.stacker.cartridges[0].capacity == 1 * MB
    assert len(loaded.stacker.cartridges) == 2


def test_bad_magic_rejected(tmp_path):
    path = str(tmp_path / "junk.bin")
    with open(path, "wb") as handle:
        handle.write(b"NOTAMAGIC-------")
    with pytest.raises(StorageError):
        load_volume(path)
    with pytest.raises(StorageError):
        load_tape(path)


def test_truncated_container_rejected(tmp_path):
    fs = make_fs()
    fs.consistency_point()
    path = str(tmp_path / "vol.bin")
    save_volume(fs.volume, path)
    with open(path, "rb") as handle:
        data = handle.read()
    with open(path, "wb") as handle:
        handle.write(data[: len(data) // 2])
    with pytest.raises(StorageError):
        load_volume(path)


def test_tape_roundtrip_partial_last_cartridge(tmp_path):
    """A stream ending mid-cartridge reloads with the partial tail intact."""
    drive = make_drive(tapes=4, capacity=64 * KB)
    payload = bytes(range(256)) * 600  # 150 KB: 2 full carts + a partial
    drive.write(payload)
    path = str(tmp_path / "tape.bin")
    save_tape(drive, path)
    loaded = load_tape(path)
    used = [c.used for c in loaded.stacker.cartridges]
    assert used == [64 * KB, 64 * KB, len(payload) - 128 * KB, 0]
    assert 0 < loaded.stacker.cartridges[2].remaining < 64 * KB
    # Reads cross both cartridge boundaries and stop at the true end.
    loaded.rewind()
    assert loaded.read(len(payload)) == payload
    with pytest.raises(TapeError):
        loaded.read(1)


def test_tape_append_after_reload_matches_unreloaded_drive(tmp_path):
    """Reload-then-append must continue the stream where it left off,
    not skip the partially written cartridge's tail."""
    first = b"A" * (100 * KB)
    second = b"B" * (50 * KB)

    reference = make_drive(tapes=4, capacity=64 * KB)
    reference.write(first)
    reference.write(second)

    drive = make_drive(tapes=4, capacity=64 * KB)
    drive.write(first)
    path = str(tmp_path / "tape.bin")
    save_tape(drive, path)
    resumed = load_tape(path)
    resumed.write(second)

    assert resumed.stream_bytes() == reference.stream_bytes()
    assert ([c.used for c in resumed.stacker.cartridges]
            == [c.used for c in reference.stacker.cartridges])
    resumed.rewind()
    assert resumed.read(len(first) + len(second)) == first + second


def test_tape_append_after_reload_with_exactly_full_cartridge(tmp_path):
    """When the stream ends exactly at a cartridge boundary, appends
    resume on the next blank cartridge."""
    drive = make_drive(tapes=3, capacity=64 * KB)
    drive.write(b"C" * (64 * KB))
    path = str(tmp_path / "tape.bin")
    save_tape(drive, path)
    resumed = load_tape(path)
    resumed.write(b"D" * KB)
    used = [c.used for c in resumed.stacker.cartridges]
    assert used == [64 * KB, KB, 0]


def test_media_roundtrip_keeps_labels(tmp_path):
    cartridges = [TapeCartridge(capacity=32 * KB, label="crt%04d" % i)
                  for i in range(1, 4)]
    cartridges[0].append(b"x" * (32 * KB))  # full
    cartridges[1].append(b"y" * 100)        # partial
    path = str(tmp_path / "pool.med")
    save_media(cartridges, path)
    loaded = load_media(path)
    assert [c.label for c in loaded] == ["crt0001", "crt0002", "crt0003"]
    assert [c.capacity for c in loaded] == [32 * KB] * 3
    assert loaded[0].read_at(0, loaded[0].used) == b"x" * (32 * KB)
    assert loaded[1].read_at(0, loaded[1].used) == b"y" * 100
    assert loaded[2].used == 0


def test_media_container_rejects_wrong_magic(tmp_path):
    drive = make_drive(tapes=1, capacity=32 * KB)
    tape_path = str(tmp_path / "tape.bin")
    save_tape(drive, tape_path)
    with pytest.raises(StorageError):
        load_media(tape_path)  # tape container, not a media container
    media_path = str(tmp_path / "pool.med")
    save_media([TapeCartridge(capacity=KB, label="a")], media_path)
    with pytest.raises(StorageError):
        load_tape(media_path)


def test_compression_keeps_containers_small(tmp_path):
    fs = make_fs()
    fs.create("/zeros", bytes(2 * MB))  # compresses brutally
    fs.consistency_point()
    path = str(tmp_path / "vol.bin")
    size = save_volume(fs.volume, path)
    assert size < fs.volume.size_bytes / 10


# ---------------------------------------------------------------------------
# The one container, as each of its five kinds
# ---------------------------------------------------------------------------

def _tiny_volume(name, fill):
    volume = make_volume(ngroups=1, ndata=2, blocks_per_disk=24, name=name)
    volume.write_block(5, bytes([fill]) * volume.block_size)
    volume.write_block(30, bytes([fill ^ 0xFF]) * volume.block_size)
    return volume


def _volume_state(volume):
    return (volume.name, volume.geometry,
            [bytes(volume.read_block(b)) for b in range(volume.nblocks)],
            volume.verify_parity())


def _cartridge_state(cartridges):
    return [(c.label, c.capacity, c.read_at(0, c.used)) for c in cartridges]


def _tiny_cartridges():
    cartridges = [TapeCartridge(capacity=2 * KB, label="crt%d" % i)
                  for i in range(3)]
    cartridges[0].append(b"full" * 512)
    cartridges[1].append(b"partial")
    return cartridges


def _tiny_drive():
    drive = make_drive(name="mag", tapes=3, capacity=2 * KB)
    drive.write(b"spans two cartridges " * 120)
    return drive


def _load_env_state(path, kind="env"):
    header, volumes = load_env_container(path, kind)
    return header, [_volume_state(volume) for volume in volumes]


def _load_tape_state(path):
    stacker = load_tape(path).stacker
    return (stacker.name, stacker.next_slot,
            _cartridge_state(stacker.cartridges))


#: kind -> (write(path) -> bytes written, read(path) -> comparable state).
KINDS = {
    "volume": (
        lambda path: save_volume(_tiny_volume("solo", 0x11), path),
        lambda path: _volume_state(load_volume(path))),
    "env": (
        lambda path: save_env_container(
            path, {"config": {"seed": 7}, "with_rlse": True},
            [_tiny_volume("home", 0x22), _tiny_volume("rlse", 0x33)]),
        _load_env_state),
    "tenant": (
        lambda path: save_env_container(
            path, {"tree": GeneratedTree().to_json(),
                   "kept_snapshots": [[0, "img.t.J00001", 7]]},
            [_tiny_volume("t", 0x44)], "tenant"),
        lambda path: _load_env_state(path, "tenant")),
    "tape": (lambda path: save_tape(_tiny_drive(), path), _load_tape_state),
    "media": (
        lambda path: save_media(_tiny_cartridges(), path),
        lambda path: _cartridge_state(load_media(path))),
}

each_kind = pytest.mark.parametrize("kind", sorted(KINDS))


def _written(tmp_path, kind):
    path = str(tmp_path / ("%s.bin" % kind))
    size = KINDS[kind][0](path)
    with open(path, "rb") as handle:
        data = handle.read()
    assert size == len(data)
    return path, data


def _rewrite(path, data):
    # Overwrite in place: reopening with "wb" frees the file's blocks
    # first, which on a file system mounted with ``discard`` costs tens
    # of milliseconds a call — ~100x the damaged load under test.
    with open(path, "r+b") as handle:
        handle.write(data)
        handle.truncate(len(data))


@each_kind
def test_container_round_trip(tmp_path, kind):
    path, data = _written(tmp_path, kind)
    state = KINDS[kind][1](path)
    # Equal state saved again is the same file: the bytes are a
    # function of the state alone.
    again = str(tmp_path / "again.bin")
    KINDS[kind][0](again)
    assert KINDS[kind][1](again) == state
    with open(again, "rb") as handle:
        assert handle.read() == data
    assert sorted(os.listdir(str(tmp_path))) == sorted(
        ["again.bin", "%s.bin" % kind])


def test_loaded_state_is_what_was_saved(tmp_path):
    path = str(tmp_path / "v.bin")
    volume = _tiny_volume("solo", 0x11)
    save_volume(volume, path)
    assert _volume_state(load_volume(path)) == _volume_state(volume)
    header = {"config": {"seed": 7}, "qtree_paths": ["/a", "/b"]}
    save_env_container(path, header, [volume, _tiny_volume("rlse", 0x33)])
    loaded_header, volumes = load_env_container(path)
    assert loaded_header == header
    assert [v.name for v in volumes] == ["solo", "rlse"]
    assert _volume_state(volumes[0]) == _volume_state(volume)
    cartridges = _tiny_cartridges()
    save_media(cartridges, path)
    assert _cartridge_state(load_media(path)) == _cartridge_state(cartridges)


@each_kind
def test_unknown_version_names_both_versions(tmp_path, kind):
    path, data = _written(tmp_path, kind)
    assert struct.unpack_from("<I", data, 8) == (CONTAINER_VERSION,)
    _rewrite(path, data[:8] + struct.pack("<I", CONTAINER_VERSION + 41)
             + data[12:])
    with pytest.raises(StorageError) as failure:
        KINDS[kind][1](path)
    assert "version %d" % (CONTAINER_VERSION + 41) in str(failure.value)
    assert "version %d" % CONTAINER_VERSION in str(failure.value)


@each_kind
def test_every_other_kinds_loader_refuses_the_file(tmp_path, kind):
    path, _ = _written(tmp_path, kind)
    for other in sorted(set(KINDS) - {kind}):
        with pytest.raises(StorageError) as failure:
            KINDS[other][1](path)
        assert kind in str(failure.value) and other in str(failure.value)


@each_kind
def test_truncation_at_every_offset_is_a_storage_error(tmp_path, kind):
    path, data = _written(tmp_path, kind)
    for length in range(len(data)):
        _rewrite(path, data[:length])
        with pytest.raises(StorageError):
            KINDS[kind][1](path)


@each_kind
def test_a_flipped_byte_anywhere_is_a_storage_error(tmp_path, kind):
    # Every byte of every frame (and of the preamble): zlib's checksum
    # makes any single damaged byte detectable, and the reader has to
    # turn each detection into StorageError — never zlib.error,
    # struct.error, MemoryError or a silent load.
    path, data = _written(tmp_path, kind)
    for offset in range(len(data)):
        damaged = bytearray(data)
        damaged[offset] ^= 0xFF
        _rewrite(path, bytes(damaged))
        with pytest.raises(StorageError):
            KINDS[kind][1](path)


@each_kind
def test_trailing_bytes_rejected(tmp_path, kind):
    path, data = _written(tmp_path, kind)
    _rewrite(path, data + b"\0\0\0\0")
    with pytest.raises(StorageError, match="after the last frame"):
        KINDS[kind][1](path)


@each_kind
def test_interrupted_writer_keeps_the_previous_file(tmp_path, kind,
                                                    monkeypatch):
    path, data = _written(tmp_path, kind)
    state = KINDS[kind][1](path)
    write_frame = persist._write_frame
    calls = []

    def dies_on_first_payload(handle, payload):
        calls.append(len(payload))
        if len(calls) == 2:  # the header frame went out, then the crash
            raise KeyboardInterrupt()
        write_frame(handle, payload)

    monkeypatch.setattr(persist, "_write_frame", dies_on_first_payload)
    with pytest.raises(KeyboardInterrupt):
        KINDS[kind][0](path)
    monkeypatch.undo()
    assert os.listdir(str(tmp_path)) == ["%s.bin" % kind]  # no .tmp
    with open(path, "rb") as handle:
        assert handle.read() == data
    assert KINDS[kind][1](path) == state


def test_interrupted_first_write_leaves_nothing(tmp_path):
    cartridges = _tiny_cartridges()
    # The second payload frame cannot be written.
    cartridges[1].records = lambda: iter([None])
    with pytest.raises(TypeError):
        save_media(cartridges, str(tmp_path / "new.bin"))
    assert os.listdir(str(tmp_path)) == []


def _crafted(path, header, payloads):
    """A container with well-formed frames and an arbitrary header."""
    with open(path, "wb") as handle:
        handle.write(struct.pack("<8sI", b"RPROCNTR", CONTAINER_VERSION))
        for payload in [json.dumps(header).encode("utf-8")] + payloads:
            persist._write_frame(handle, payload)


def test_header_that_lies_about_its_frames_is_rejected(tmp_path):
    path = str(tmp_path / "lies.bin")
    listed = [{"label": "a", "capacity": 64}, {"label": "b", "capacity": 64}]
    honest = {"kind": "media", "volumes": [], "cartridges": listed}
    _crafted(path, honest, [b"one", b"two"])
    assert [c.read_at(0, c.used) for c in load_media(path)] == [b"one", b"two"]
    # One cartridge too many (the file ends early), one too few (a
    # frame is left over), more bytes than the announced capacity.
    _crafted(path, honest, [b"only one"])
    with pytest.raises(StorageError, match="truncated"):
        load_media(path)
    _crafted(path, dict(honest, cartridges=listed[:1]), [b"one", b"two"])
    with pytest.raises(StorageError, match="after the last frame"):
        load_media(path)
    _crafted(path, honest, [b"one", b"x" * 65])
    with pytest.raises(StorageError):
        load_media(path)
    # Well-formed JSON that is not a header.
    for nonsense in ([], {"kind": "media"},
                     dict(honest, cartridges="nonsense"),
                     dict(honest, volumes=[{"name": "v", "geometry": "zz"}])):
        _crafted(path, nonsense, [])
        with pytest.raises(StorageError, match="header"):
            load_media(path)
    _crafted(path, dict(honest, kind="volume"), [b"one", b"two"])
    with pytest.raises(StorageError, match="holds 0 volumes"):
        load_volume(path)


# ---------------------------------------------------------------------------
# The media formats, pinned as bytes
# ---------------------------------------------------------------------------

#: ``v2.media`` and ``v2.tape`` were written from the two states below by
#: the last writer that kept a cartridge as one ``bytearray``.  How a
#: cartridge holds its stream in memory is not the file's business: the
#: record-keeping writer must produce the same bytes, and read them.
_DATA = os.path.join(os.path.dirname(__file__), "data")


def _pinned_cartridges():
    """Multi-record, empty, exactly full, partial."""
    multi = TapeCartridge(capacity=4 * KB, label="multi")
    for record in (b"label " * 10, bytes(range(256)) * 5, b"trailer"):
        multi.append(record)
    empty = TapeCartridge(capacity=1 * KB, label="empty")
    full = TapeCartridge(capacity=512, label="full")
    full.append(b"\xa5" * 300)
    full.append(b"\x5a" * 212)
    partial = TapeCartridge(capacity=2 * KB, label="partial")
    partial.append(b"seven hundred " * 50)
    return [multi, empty, full, partial]


_PINNED_RECORDS = (b"a" * 400, b"b" * 600, bytes(range(250)) * 6, b"end")


def _pinned_drive():
    """Four 1000-byte tapes: full (two records), full, partial, blank."""
    drive = make_drive(name="pinned", tapes=4, capacity=1000)
    for record in _PINNED_RECORDS:
        drive.write(record)
    return drive


def test_the_media_file_is_pinned_byte_for_byte(tmp_path):
    pinned = os.path.join(_DATA, "v2.media")
    save_media(_pinned_cartridges(), str(tmp_path / "pool.med"))
    assert (tmp_path / "pool.med").read_bytes() == pathlib.Path(pinned).read_bytes()
    loaded = load_media(pinned)
    assert _cartridge_state(loaded) == _cartridge_state(_pinned_cartridges())
    assert [c.remaining for c in loaded] == [2749, 1024, 0, 1348]
    # Loaded, changed and saved again is what the change alone would be.
    loaded[3].append(b"more")
    again = _pinned_cartridges()
    again[3].append(b"more")
    save_media(loaded, str(tmp_path / "pool.med"))
    save_media(again, str(tmp_path / "again.med"))
    assert (tmp_path / "pool.med").read_bytes() == \
        (tmp_path / "again.med").read_bytes()


def test_the_tape_file_is_pinned_byte_for_byte(tmp_path):
    pinned = os.path.join(_DATA, "v2.tape")
    save_tape(_pinned_drive(), str(tmp_path / "mon.tape"))
    assert (tmp_path / "mon.tape").read_bytes() == pathlib.Path(pinned).read_bytes()
    loaded, fresh = load_tape(pinned), _pinned_drive()
    assert loaded.stream_bytes() == b"".join(_PINNED_RECORDS)
    assert [c.used for c in loaded.stacker.cartridges] == [1000, 1000, 503, 0]
    # Appends resume on the partial third cartridge, as on the drive
    # that was never saved.
    for drive in (loaded, fresh):
        drive.write(b"z" * 600)
    assert [c.used for c in loaded.stacker.cartridges] == [1000, 1000, 1000, 103]
    assert loaded.stream_bytes() == fresh.stream_bytes()
    loaded.rewind()
    assert loaded.read(2500) == fresh.stream_bytes()[:2500]


def _old_write_frame(handle, payload):
    """``persist._write_frame`` before a blank payload had its constant
    frame: every payload through a deflater."""
    deflater = zlib.compressobj(level=1)
    compressed = [deflater.compress(piece) for piece in
                  (payload if isinstance(payload, list) else [payload])]
    compressed.append(deflater.flush())
    handle.write(struct.pack("<Q", sum(map(len, compressed))))
    handle.writelines(compressed)


def _pool():
    """The pinned cartridges among blank ones, as a media pool is."""
    blanks = [TapeCartridge(capacity=KB, label="blank%d" % index)
              for index in range(40)]
    return blanks[:20] + _pinned_cartridges() + blanks[20:]


def test_a_blank_frame_is_the_empty_zlib_stream():
    for payload in (b"", [], [b"", memoryview(b"")]):
        handle = io.BytesIO()
        persist._write_frame(handle, payload)
        assert handle.getvalue() == (b"\x08\0\0\0\0\0\0\0"
                                     b"x\x01\x03\x00\x00\x00\x00\x01")


def test_a_pool_file_is_what_every_frame_deflated_wrote(tmp_path,
                                                         monkeypatch):
    save_media(_pool(), str(tmp_path / "pool.med"))
    monkeypatch.setattr(persist, "_write_frame", _old_write_frame)
    save_media(_pool(), str(tmp_path / "old.med"))
    assert (tmp_path / "pool.med").read_bytes() == \
        (tmp_path / "old.med").read_bytes()


def test_a_load_inflates_only_frames_with_data(tmp_path, monkeypatch):
    """Blank cartridges read back with no inflater, and the file is
    measured once, not once a frame."""
    path = str(tmp_path / "pool.med")
    save_media(_pool(), path)
    counts = {"inflaters": 0, "fstat": 0}
    decompressobj, fstat = zlib.decompressobj, os.fstat

    def counting_inflater(*args):
        counts["inflaters"] += 1
        return decompressobj(*args)

    def counting_fstat(fd):
        counts["fstat"] += 1
        return fstat(fd)

    monkeypatch.setattr(persist.zlib, "decompressobj", counting_inflater)
    monkeypatch.setattr(persist.os, "fstat", counting_fstat)
    loaded = load_media(path)
    monkeypatch.undo()
    # The header, then the three pinned cartridges that hold records.
    assert counts == {"inflaters": 4, "fstat": 1}
    assert _cartridge_state(loaded) == _cartridge_state(_pool())


# ---------------------------------------------------------------------------
# Files of the previous format version
# ---------------------------------------------------------------------------

#: Containers written once by the version-1 writer (the disk image then
#: recorded the store's chunk size) and committed as bytes: a tiny
#: formatted volume, and an env container holding it.
_V1 = os.path.join(os.path.dirname(__file__), "data")
_V1_REFUSAL = "is container version 1; this reader reads version 2"


def test_a_version_1_container_is_refused_in_one_line(tmp_path, capsys):
    for name, load in (("v1.vol", load_volume), ("v1.env", load_env_container)):
        with pytest.raises(StorageError) as failure:
            load(os.path.join(_V1, name))
        assert str(failure.value).endswith(_V1_REFUSAL)
    assert main(["fsck", os.path.join(_V1, "v1.vol")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("repro-backup: error: %s %s\n"
                            % (os.path.join(_V1, "v1.vol"), _V1_REFUSAL))


def test_a_stale_env_cache_says_to_delete_it(tmp_path, capsys):
    stale = str(tmp_path / "stale.env")
    shutil.copy(os.path.join(_V1, "v1.env"), stale)
    preset = run_all.Preset(EliotConfig(scale=60000, aging_rounds=1, seed=7))
    with pytest.raises(ReproError) as failure:
        run_all.generate_body(preset, env_cache=stale, echo=lambda *_: None)
    assert str(failure.value) == ("%s %s; delete it to rebuild"
                                  % (stale, _V1_REFUSAL))
    # ... and the document driver prints that line, not a traceback.
    assert run_all.main([str(tmp_path / "out.md"), "--reduced",
                         "--env-cache", stale]) == 2
    captured = capsys.readouterr()
    assert captured.err == "run_all: error: %s\n" % failure.value
    assert not os.path.exists(str(tmp_path / "out.md"))
    with open(stale, "rb") as kept, \
            open(os.path.join(_V1, "v1.env"), "rb") as original:
        assert kept.read() == original.read()    # refused, not replaced


def test_only_the_env_cache_refusal_loses_its_traceback(tmp_path, monkeypatch):
    """A ``ReproError`` out of an experiment is a bug report: ``main``
    lets it through whole.  So is a scratch file ``build_home_env`` wrote
    itself and cannot read back — there is nothing for the user to delete."""
    def broken(*_args, **_kwargs):
        raise ReproError("verify found 3 differences")
    monkeypatch.setattr(run_all, "generate_body", broken)
    with pytest.raises(ReproError, match="verify found 3 differences"):
        run_all.main([str(tmp_path / "out.md"), "--reduced"])
    monkeypatch.undo()

    def unreadable(path):
        raise StorageError("%s is damaged" % path)
    monkeypatch.setattr(configs, "load_env", unreadable)
    preset = run_all.Preset(EliotConfig(scale=60000, aging_rounds=1, seed=7))
    with pytest.raises(StorageError, match="is damaged$"):
        run_all.generate_body(preset, echo=lambda *_: None)


def test_a_fleet_root_from_before_volume_bin_is_refused_in_one_line(
        tmp_path, capsys):
    """No reader for the old pickles: a tenant directory holding only
    ``volume.pkl`` is one error line naming ``fleet init``, exit 2, and
    nothing in it is touched."""
    from repro.fleet import FleetService, FleetSpec, TenantSpec

    root = str(tmp_path / "fleet")
    FleetService.init_fleet(root, FleetSpec(tenants=[TenantSpec(
        "solo", data_bytes=100_000, cartridges=4,
        cartridge_capacity=1_000_000, blocks_per_disk=600)]))
    tenant_dir = os.path.join(root, "tenants", "solo")
    os.rename(os.path.join(tenant_dir, "volume.bin"),
              os.path.join(tenant_dir, "volume.pkl"))

    def snapshot():
        listing = {}
        for name in sorted(os.listdir(tenant_dir)):
            with open(os.path.join(tenant_dir, name), "rb") as handle:
                listing[name] = handle.read()
        return listing

    before = snapshot()
    capsys.readouterr()
    assert main(["fleet", "run", root, "--days", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("repro-backup: error: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert "volume.pkl" in captured.err and "`fleet init`" in captured.err
    assert snapshot() == before
