"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.nvram.log import NvramLog
from repro.raid.layout import make_geometry
from repro.raid.volume import RaidVolume
from repro.storage.tape import TapeDrive, TapeStacker
from repro.units import MB
from repro.wafl import blockmap as blockmap_module
from repro.wafl.blockmap import BlockMap
from repro.wafl.filesystem import WaflFilesystem


def make_volume(ngroups=2, ndata=4, blocks_per_disk=2500, name="test"):
    """A small RAID volume (default ~78 MB of data blocks)."""
    return RaidVolume(make_geometry(ngroups, ndata, blocks_per_disk), name=name)


def make_fs(ngroups=2, ndata=4, blocks_per_disk=2500, name="test",
            nvram=False, cache_blocks=4096):
    volume = make_volume(ngroups, ndata, blocks_per_disk, name)
    log = NvramLog(capacity=4 * MB) if nvram else None
    fs = WaflFilesystem.format(volume, nvram=log, cache_blocks=cache_blocks)
    return fs


def make_drive(name="tape", tapes=8, capacity=256 * MB):
    return TapeDrive(TapeStacker.with_blank_tapes(tapes, capacity=capacity,
                                                  name=name))


def map_words(blockmap):
    """A block map's words as one dense read-only array, read through
    its on-disk form (the join of ``serialize_fblock_run``'s pieces)."""
    raw = b"".join(blockmap.serialize_fblock_run(0, blockmap.n_fblocks()))
    return np.frombuffer(raw, dtype="<u4", count=blockmap.nblocks)


def map_of(words, reserved):
    """The map a mount of the dense ``words`` builds."""
    return BlockMap.deserialize(len(words), reserved, [(0, words)])


def set_word(blockmap, block, word):
    """Overwrite one word behind the map's back: no count, index or
    dirty set follows it (a test's damage or set-up)."""
    slab = blockmap_module._SLAB_WORDS
    blockmap._writable(block // slab)[block % slab] = word


@pytest.fixture
def volume():
    return make_volume()


@pytest.fixture
def fs():
    return make_fs()


@pytest.fixture
def fs_with_nvram():
    return make_fs(nvram=True)


@pytest.fixture
def drive():
    return make_drive()


def populate_small_tree(fs, prefix=""):
    """A tiny mixed tree exercising every file-system feature."""
    fs.mkdir(prefix + "/docs")
    fs.mkdir(prefix + "/src")
    fs.mkdir(prefix + "/src/deep")
    fs.create(prefix + "/docs/readme.txt", b"hello backup world\n" * 40)
    fs.create(prefix + "/src/main.c", bytes(range(256)) * 64)
    fs.create(prefix + "/src/deep/data.bin", b"\xab" * 50000)
    fs.create(prefix + "/empty")
    fs.symlink(prefix + "/docs/link", prefix + "/src/main.c")
    fs.link(prefix + "/src/main.c", prefix + "/src/main-hard.c")
    fs.set_acl(prefix + "/src/main.c", b"ACL\x01\x02payload")
    fs.set_attrs(prefix + "/docs/readme.txt", dos_name=b"README~1.TXT"[:12],
                 dos_bits=0x21, dos_time=123456789)
    # A sparse file with a real hole.
    fs.create(prefix + "/sparse")
    fs.write_file(prefix + "/sparse", b"head", 0)
    fs.write_file(prefix + "/sparse", b"tail", 12 * 4096)
    fs.consistency_point()


def version_1_image(disk):
    """The image container version 1 carried, written out by hand: it
    recorded the writer's chunk size (1024 blocks, or the whole of a
    smaller disk) and listed rows chunk by chunk."""
    chunk_blocks = min(1024, disk.nblocks)
    by_chunk = {}
    for block, data in disk.nonzero_blocks():
        by_chunk.setdefault(block // chunk_blocks, []).append((block, data))
    parts = [struct.pack("<QII", disk.nblocks, chunk_blocks, len(by_chunk))]
    for ci, members in sorted(by_chunk.items()):
        parts.append(struct.pack("<III", ci, chunk_blocks, len(members)))
        parts.extend(struct.pack("<I", block - ci * chunk_blocks)
                     for block, _ in members)
        parts.extend(data for _, data in members)
    return b"".join(parts)


# ---------------------------------------------------------------------------
# The reduced run_all grid, generated once per session
# ---------------------------------------------------------------------------

def _reduced_run(jobs, traced, env_cache=None):
    """One ``generate_body`` of the reduced grid: its body, the plan and
    task values it was rendered from, and its trace events."""
    from types import SimpleNamespace
    from unittest import mock

    from repro.bench import run_all
    from repro.obs.trace import Tracer, get_tracer, set_tracer

    set_tracer(Tracer() if traced else None)
    try:
        with mock.patch.object(run_all, "merge_sections",
                               wraps=run_all.merge_sections) as merge:
            body = run_all.generate_body(
                run_all.Preset.named("reduced"), jobs=jobs,
                env_cache=env_cache, echo=lambda *_a, **_k: None)
        events = get_tracer().take_events() if traced else []
    finally:
        set_tracer(None)
    items, values, _scale = merge.call_args.args
    return SimpleNamespace(body=body, items=items, values=values,
                           events=events)


@pytest.fixture(scope="session")
def reduced_grid(tmp_path_factory):
    """The reduced grid under every switch that must not show in it —
    ``--jobs``, ``--env-cache`` (file just written, file loaded),
    ``--trace`` — generated once; the run_all and trace tests assert on
    these runs instead of each regenerating the grid.  Keys are
    ``(jobs, cache, traced)``; the ``--jobs 2`` runs are missing where
    the platform cannot fork."""
    from repro.bench.configs import clear_env_cache
    from repro.parallel import fork_available

    clear_env_cache()   # a test may have read, and so warmed, a cached env
    path = str(tmp_path_factory.mktemp("reduced") / "reduced.env")
    runs = {(1, "none", False): _reduced_run(1, traced=False),
            (1, "cold", True): _reduced_run(1, traced=True, env_cache=path),
            (1, "warm", True): _reduced_run(1, traced=True, env_cache=path)}
    if fork_available():
        runs[2, "none", True] = _reduced_run(2, traced=True)
        runs[2, "warm", True] = _reduced_run(2, traced=True, env_cache=path)
    return runs
