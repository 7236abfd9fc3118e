"""Property tests for the directory cache behind ``namei``.

``namei`` answers a lookup from the directory cache when the entry was
made for the directory's current block pointers, reading no bytes: the
writers of a directory keep the cache current.  Random namespace and
data operations, mixed with snapshots, consistency points, volume clones
and crash + NVRAM replay, check after every step that

* every cache entry is the parse of the directory's on-disk bytes;
* every path resolves as it does on a fresh mount of the same state;
* a lookup touches the buffer cache, the I/O recorder and the member
  disks exactly as the lookup that read and compared the bytes did
  (kept below as the oracle).
"""

import copy
import functools
import types

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.chaos.recover import recover_crash
from repro.errors import NotADirectoryError_, NotFoundError
from repro.storage.device import IoRecorder
from repro.wafl.consts import BLOCK_SIZE, MAX_NAME_LEN, NDIRECT
from repro.wafl.directory import Directory
from repro.wafl.filesystem import WaflFilesystem

from tests.conftest import make_fs

_slow = settings(max_examples=12, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

NAMES = ("a", "b", "c", "d")
#: Long names enough for /big to outgrow its direct blocks.
BIG_ENTRIES = 4 * NDIRECT * BLOCK_SIZE // (MAX_NAME_LEN + 8) // 3
SNAPSHOTS = ("s0", "s1")


def _old_dir_lookup(self, inode, name):
    """The lookup that read the directory's bytes every time, verbatim."""
    raw = self._read_tree_raw(inode)
    cached = self._dir_cache.get(inode.ino)
    if cached is None or cached[0] != raw:
        directory = Directory.parse(raw)
        cached = (raw, tuple(directory.entries()),
                  dict(directory.entries()))
        self._dir_cache[inode.ino] = cached
    return cached[2].get(name)


class _EventRecorder(IoRecorder):
    def __init__(self):
        super().__init__()
        self.events = []

    def on_read(self, start_block: int, nblocks: int = 1) -> None:
        self.events.append(("read", start_block, nblocks))
        super().on_read(start_block, nblocks)


@functools.lru_cache(maxsize=None)
def _base():
    """Nested directories, files, and one directory that needs an
    indirect block, outgrows the buffer cache (so lookups miss) and lies
    in many extents."""
    fs = make_fs(nvram=True, cache_blocks=16)
    fs.mkdir("/a")
    fs.mkdir("/a/b")
    fs.create("/a/f", b"x" * 5000)
    fs.create("/c", b"y" * 100)
    for index in range(16):
        fs.create("/a/h%d" % index, bytes(BLOCK_SIZE))
    fs.consistency_point()
    holes = fs.file_extents(fs.namei("/a/h0"))[0][1]
    for index in range(0, 16, 2):
        fs.unlink("/a/h%d" % index)
    fs.mkdir("/big")
    for index in range(BIG_ENTRIES):
        fs.create("/big/%03d" % index + "n" * (MAX_NAME_LEN - 3))
    fs.consistency_point()
    fs.fsinfo.alloc_cursor = holes
    fs.create("/big/zz")
    big = fs.inode(fs.namei("/big"))
    assert big.indirect and len(fs.file_extents(big.ino)) > 2
    return fs


def _clone(fs):
    return fs.clone_volume(nvram=copy.deepcopy(fs.nvram))


def _paths(fs):
    """Every path but most of /big's, and a few that do not exist."""
    found = [path for path, _inode in fs.walk("/")
             if not path.startswith("/big/") or path < "/big/003"]
    return found + ["/nope", "/a/nope", "/big/nope", "/a/b/nope"]


def _resolve(fs, paths):
    out = []
    for path in paths:
        try:
            out.append(fs.namei(path))
        except (NotFoundError, NotADirectoryError_):
            out.append(None)
    return out


def _check(fs):
    # Every entry is the directory's on-disk bytes, parsed (on a clone,
    # so that the reads leave the live caches alone).
    probe = fs.clone_volume()
    for ino, (raw, entries, index, *pointers) in probe._dir_cache.items():
        inode = probe._load_inode(ino)
        assert inode.is_dir
        assert pointers == [inode.direct, inode.indirect, inode.dindirect]
        on_disk = probe._read_tree_raw(inode)
        assert raw == on_disk
        assert entries == tuple(Directory.parse(on_disk).entries())
        assert index == dict(entries)
    # Every path resolves as on a fresh mount of the same state.
    paths = _paths(fs)
    fresh = WaflFilesystem.mount(fs.volume.clone(),
                                 nvram=copy.deepcopy(fs.nvram))
    assert _paths(fresh) == paths
    assert _resolve(fs.clone_volume(), paths) == _resolve(fresh, paths)
    # A lookup from the cache touches what reading the bytes touched.
    seen = []
    for side in (fs.clone_volume(), fs.clone_volume()):
        if seen:
            side._dir_lookup = types.MethodType(_old_dir_lookup, side)
        volume = side.volume
        volume.recorder = _EventRecorder()
        got = _resolve(side, paths + paths)
        cache = volume.cache
        seen.append((got, volume.recorder.events, list(cache._blocks),
                     cache.hits, cache.misses, cache.evictions,
                     [disk.reads for group in volume.groups
                      for disk in group.data_disks + [group.parity_disk]]))
    assert seen[0] == seen[1]


def _apply(fs, kind, i, j, k, size):
    """One step; operations that would fail are skipped (a failing op is
    logged before it fails, and its replay would fail the mount)."""
    listing = [(path, inode) for path, inode in fs.walk("/")
               if not path.startswith("/big/") or path < "/big/003"]
    dirs = [path for path, inode in listing if inode.is_dir]
    files = [path for path, inode in listing if inode.is_regular]
    parent = dirs[i % len(dirs)].rstrip("/")
    target = "%s/%s" % (parent, NAMES[k % len(NAMES)])
    free = not fs.exists(target)
    if kind == "create" and free:
        fs.create(target, bytes([k]) * size)
    elif kind == "mkdir" and free:
        fs.mkdir(target)
    elif kind == "link" and free and files:
        fs.link(files[j % len(files)], target)
    elif kind == "unlink" and files:
        fs.unlink(files[j % len(files)])
    elif kind == "rename":
        source = listing[1 + j % (len(listing) - 1)][0]
        inside = (target + "/").startswith(source + "/")
        if source == "/big" or inside:
            return fs
        if free:
            fs.rename(source, target)
        elif (fs.stat(target).is_regular and fs.stat(source).is_regular
              and fs.namei(source) != fs.namei(target)):
            fs.rename(source, target)
    elif kind == "rmdir":
        empty = [path for path in dirs[1:]
                 if path != "/big" and not fs.readdir(path)]
        if empty:
            fs.rmdir(empty[j % len(empty)])
    elif kind == "write" and files:
        fs.write_file(files[j % len(files)], bytes([k + 1]) * size,
                      k * BLOCK_SIZE // 2)
    elif kind == "truncate" and files:
        fs.truncate(files[j % len(files)], size)
    elif kind == "snapshot":
        name = SNAPSHOTS[k % len(SNAPSHOTS)]
        if fs.fsinfo.find_snapshot(name) is None:
            fs.snapshot_create(name)
        else:
            fs.snapshot_delete(name)
    elif kind == "cp":
        fs.consistency_point()
    elif kind == "clone":
        return _clone(fs)
    elif kind == "crash":
        volume, nvram = fs.volume, fs.nvram
        fs.crash()
        return recover_crash(volume, nvram)[0]
    return fs


steps = st.lists(
    st.tuples(
        st.sampled_from(["create", "create", "mkdir", "link", "unlink",
                         "rename", "rename", "rmdir", "write", "truncate",
                         "snapshot", "cp", "clone", "crash"]),
        st.integers(0, 50), st.integers(0, 50), st.integers(0, 7),
        st.integers(0, 3 * BLOCK_SIZE),
    ),
    min_size=1, max_size=12,
)


@_slow
@given(steps)
@example([("rmdir", 0, 0, 0, 0), ("mkdir", 1, 0, 1, 0), ("crash", 0, 0, 0, 0),
          ("rename", 1, 3, 2, 0), ("clone", 0, 0, 0, 0), ("rmdir", 0, 0, 0, 0)])
@example([("snapshot", 0, 0, 0, 0), ("link", 2, 1, 3, 0), ("unlink", 0, 1, 0, 0),
          ("write", 0, 2, 5, 3 * BLOCK_SIZE), ("truncate", 0, 2, 0, 10),
          ("cp", 0, 0, 0, 0), ("snapshot", 0, 0, 0, 0), ("crash", 0, 0, 0, 0)])
def test_the_directory_cache_is_the_on_disk_directories(ops):
    fs = _clone(_base())
    _check(fs)
    for kind, i, j, k, size in ops:
        fs = _apply(fs, kind, i, j, k, size)
        _check(fs)
