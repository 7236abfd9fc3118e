"""The write-anywhere file system.

Lifecycle
---------

``WaflFilesystem.format(volume)`` formats a volume; ``mount(volume)``
loads the most recent consistency point and replays any NVRAM log.  All
mutation goes through path-based entry points (``create``, ``write_file``,
``unlink``, ...) that log to NVRAM; :meth:`consistency_point` persists the
dirty meta-data so the on-disk image is self-consistent at all times.

Consistency points
------------------

Between consistency points, writes land in freshly allocated blocks that
no on-disk tree references yet, so they may be rewritten in place; blocks
freed by copy-on-write are *deferred* — they stay unavailable until the
next consistency point commits, because the previous on-disk tree still
references them.  A crash therefore always falls back to an intact tree,
and the NVRAM replay regenerates the lost window, exactly the recovery
story the paper tells.

Snapshots
---------

``snapshot_create`` takes a consistency point, copies the root structure
into a snapshot slot, and ORs the active bit plane into the snapshot's
plane.  ``snapshot_view`` reads the snapshot as a read-only
:class:`FileTree` over that copy, through the same read path as the
active file system.  Every block reachable from the copy is pinned by
the snapshot's plane and copy-on-write never overwrites a pinned block,
so the view stays frozen while the active file system changes.
"""

from __future__ import annotations

import copy
import heapq
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import (
    ExistsError,
    FilesystemError,
    IsADirectoryError_,
    NoSpaceError,
    NotADirectoryError_,
    NotEmptyError,
    NotFoundError,
    SnapshotError,
)
from repro.nvram.log import OP_OVERHEAD, LoggedOp, NvramLog
from repro.raid.group import run_nbytes
from repro.raid.volume import RaidVolume
from repro.wafl.blockmap import BlockMap
from repro.wafl.blocktree import BlockTree, TreeContext
from repro.wafl.consts import (
    BLOCK_SIZE,
    FIRST_USER_INO,
    INODES_PER_BLOCK,
    INODE_SIZE,
    INO_BLOCKMAP,
    NDIRECT,
    PTRS_PER_BLOCK,
    RESERVED_BLOCKS,
    ROOT_INO,
)
from repro.wafl.directory import Directory
from repro.wafl.fsinfo import FsInfo, SnapshotRecord
from repro.wafl.inode import FileType, Inode

# A hole reads as views of this, one piece at a time, not as a fresh
# allocation of the hole's size.
_HOLE = memoryview(bytes(64 * BLOCK_SIZE))


def _append_hole(buffers: list, nbytes: int) -> None:
    while nbytes > 0:
        buffers.append(_HOLE[: min(nbytes, len(_HOLE))])
        nbytes -= len(_HOLE)


class FileTree(TreeContext):
    """Read access to one file tree, rooted at an inode-file inode.

    A snapshot is one: :meth:`WaflFilesystem.snapshot_view` returns a
    read-only ``FileTree`` over the inode-file inode its record froze.
    The active file system is another — :class:`WaflFilesystem` inherits
    every read method here and adds the write side (its root lives in
    ``fsinfo``, so it passes no ``inofile_inode``).  The tree owns the
    inode cache and the directory-parse cache its reads fill.
    """

    def __init__(self, volume: RaidVolume, inofile_inode: Optional[Inode],
                 readonly: bool = True):
        super().__init__(volume, readonly=readonly)
        self._inofile_inode = inofile_inode
        self._inodes: Dict[int, Inode] = {}
        # Directory cache: ino -> (raw bytes, parsed entries, name index,
        # direct, indirect, dindirect).  _read_directory keys it on the
        # on-disk bytes, namei on the block pointers (_dir_lookup).
        self._dir_cache: Dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # Inodes
    # ------------------------------------------------------------------

    def _inofile_tree(self) -> BlockTree:
        return BlockTree(self, self._inofile_inode)

    def _load_inode(self, ino: int) -> Inode:
        if ino in self._inodes:
            return self._inodes[ino]
        if ino < 1:
            raise NotFoundError("invalid inode number %d" % ino)
        tree = self._inofile_tree()
        fbn = ino // INODES_PER_BLOCK
        data = tree.read_fblock(fbn)
        slot = ino % INODES_PER_BLOCK
        inode = Inode.unpack(ino, data[slot * INODE_SIZE : (slot + 1) * INODE_SIZE])
        self._inodes[ino] = inode
        return inode

    def inode(self, ino: int) -> Inode:
        """Public read access to an inode (raises if free)."""
        inode = self._load_inode(ino)
        if inode.is_free:
            raise NotFoundError("inode %d is free" % ino)
        return inode

    def max_ino(self) -> int:
        """Upper bound (exclusive) on in-use inode numbers."""
        return max(1, self._inofile_inode.size // INODE_SIZE)

    def iter_used_inodes(self) -> Iterator[Inode]:
        """All in-use inodes in ascending inode order (dump's walk order)."""
        for ino in range(1, self.max_ino()):
            if ino == INO_BLOCKMAP:
                continue
            inode = self._load_inode(ino)
            if not inode.is_free:
                yield inode

    # ------------------------------------------------------------------
    # Path resolution
    # ------------------------------------------------------------------

    @staticmethod
    def _split(path: str) -> List[str]:
        if not path.startswith("/"):
            raise FilesystemError("paths must be absolute: %r" % path)
        return [part for part in path.split("/") if part]

    def namei(self, path: str) -> int:
        """Resolve a path to an inode number."""
        ino = ROOT_INO
        for part in self._split(path):
            inode = self._load_inode(ino)
            if not inode.is_dir:
                raise NotADirectoryError_("%r: not a directory" % part)
            child = self._dir_lookup(inode, part)
            if child is None:
                raise NotFoundError("no such path %r" % path)
            ino = child
        return ino

    def _dir_lookup(self, inode: Inode, name: str):
        """One lookup step, answered from the directory cache.

        An entry made for the directory's current block pointers is
        current — its writers keep the cache so, as for the inode cache
        (DESIGN.md decision 23) — so a hit reads no bytes: it touches the
        extents in order, as :meth:`_read_tree_raw` reads them.  Anything
        else reads and parses the bytes.
        """
        cached = self._dir_cache.get(inode.ino)
        if cached is not None and cached[4] == inode.indirect and (
                cached[5] == inode.dindirect and cached[3] == inode.direct):
            touch = self.volume.touch_run
            for _fbn, vbn, count in self._extents(inode):
                touch(vbn, count)
            return cached[2].get(name)
        raw = self._read_tree_raw(inode)
        if cached is not None and cached[0] == raw:
            entries = cached[1]
        else:
            entries = tuple(Directory.parse(raw).entries())
        return self._cache_directory(inode, raw, entries)[2].get(name)

    def _cache_directory(self, inode: Inode, raw: bytes,
                         entries: tuple) -> tuple:
        """Enter the directory ``raw`` holds, for the inode's pointers."""
        cached = (raw, entries, dict(entries),
                  inode.direct[:], inode.indirect, inode.dindirect)
        self._dir_cache[inode.ino] = cached
        return cached

    def exists(self, path: str) -> bool:
        try:
            self.namei(path)
            return True
        except (NotFoundError, NotADirectoryError_):
            return False

    # ------------------------------------------------------------------
    # File and directory contents
    # ------------------------------------------------------------------

    def _read_blocks(self, extents, nbytes: int) -> list:
        """Buffers holding a file's first ``nbytes`` bytes, in file order.

        Every extent is read whole, in extent order, appending one buffer
        per chunk span (:meth:`RaidVolume.read_run`'s ``out``); a hole is
        views of shared zeros, and what the extents hold past ``nbytes``
        is trimmed off the tail as views.  The caller joins the list
        once, or reads it piece by piece, before anything writes.
        """
        buffers: list = []
        nblocks = 0
        for extent_fbn, extent_vbn, extent_len in extents:
            if extent_fbn > nblocks:
                _append_hole(buffers, (extent_fbn - nblocks) * BLOCK_SIZE)
            self.volume.read_run(extent_vbn, extent_len, buffers)
            nblocks = max(nblocks, extent_fbn) + extent_len
        extra = nblocks * BLOCK_SIZE - nbytes
        if extra < 0:
            _append_hole(buffers, -extra)
        while extra > 0:
            last = len(buffers[-1])
            if last <= extra:
                buffers.pop()
            else:
                buffers[-1] = memoryview(buffers[-1])[: last - extra]
            extra -= last
        return buffers

    def _extents(self, inode: Inode) -> List[Tuple[int, int, int]]:
        """:meth:`BlockTree.extents`; a direct-only tree whose memo holds
        skips even the throwaway cursor (hot on every namei step)."""
        memo = inode.extents_memo
        if (memo is not None and not memo[1] and not inode.indirect
                and not inode.dindirect and memo[0] == inode.direct):
            return memo[2]
        return BlockTree(self, inode).extents()

    def _read_tree_raw(self, inode: Inode) -> bytes:
        """Block-aligned file contents (zero padded to whole blocks).

        The directory paths key their parse cache on this padded form so
        the hot lookup never pays the byte-exact prefix copy; everything
        else goes through :meth:`_read_tree_bytes` below.
        """
        extents = self._extents(inode)
        if (len(extents) == 1 and extents[0][0] == 0
                and extents[0][2] * BLOCK_SIZE >= inode.size):
            # One contiguous extent covering the file from block zero — the
            # overwhelmingly common case for directories and small files.
            return self.volume.read_run(extents[0][1], extents[0][2])
        return b"".join(self._read_blocks(
            extents, -(-inode.size // BLOCK_SIZE) * BLOCK_SIZE))

    def _read_tree_bytes(self, inode: Inode) -> bytes:
        """The file's ``size`` bytes: its buffers joined once, the tail
        trimmed as views."""
        return b"".join(self._read_blocks(BlockTree(self, inode).extents(),
                                          inode.size))

    def _read_directory(self, inode: Inode) -> Directory:
        if not inode.is_dir:
            raise NotADirectoryError_("inode %d is not a directory" % inode.ino)
        # The raw bytes are always read through the volume (same recorder
        # events, same buffer-cache traffic as before); the cache only
        # skips re-*parsing* bytes we have parsed before.  A fresh
        # Directory is built per call, so callers may mutate freely.
        raw = self._read_tree_raw(inode)
        cached = self._dir_cache.get(inode.ino)
        if cached is not None and cached[0] == raw:
            return Directory.from_entries(cached[1])
        directory = Directory.parse(raw)
        self._cache_directory(inode, raw, tuple(directory.entries()))
        return directory

    def readlink(self, path: str) -> str:
        inode = self.inode(self.namei(path))
        if not inode.is_symlink:
            raise FilesystemError("%r is not a symlink" % path)
        return self._read_tree_bytes(inode).decode("utf-8")

    def read_file(self, path: str) -> bytes:
        inode = self.inode(self.namei(path))
        if inode.is_dir:
            raise IsADirectoryError_("read of directory %r" % path)
        return self._read_tree_bytes(inode)

    def read_by_ino(self, ino: int) -> bytes:
        return self._read_tree_bytes(self.inode(ino))

    def read_buffers_by_ino(self, ino: int) -> list:
        """:meth:`read_by_ino` unjoined: the buffers of
        :meth:`_read_blocks`, views of the live store among them, to be
        read before anything writes."""
        inode = self.inode(ino)
        return self._read_blocks(BlockTree(self, inode).extents(), inode.size)

    def file_extents(self, ino: int) -> List[Tuple[int, int, int]]:
        """Physical extents of a file: ``(fbn, vbn, nblocks)`` runs."""
        return BlockTree(self, self.inode(ino)).extents()

    def read_extent(self, vbn: int, nblocks: int, out: list,
                    keep: list) -> None:
        """Raw extent read (dump's private read path, still via the FS):
        the extent's buffers are appended to ``out`` — read-only views of
        the chunks ``keep`` froze (:meth:`RaidVolume.freeze`) and of
        zeros, ``bytes`` of reconstructed blocks, and live views of the
        store, to be copied before anything writes."""
        self.volume.read_run(vbn, nblocks, out, keep)

    # ------------------------------------------------------------------
    # Attributes
    # ------------------------------------------------------------------

    def stat(self, path: str) -> Inode:
        """A detached copy of the inode for ``path``."""
        return self.inode(self.namei(path)).copy()

    def get_acl(self, path: str) -> bytes:
        return self.get_acl_by_ino(self.namei(path))

    def get_acl_by_ino(self, ino: int) -> bytes:
        inode = self.inode(ino)
        if not inode.acl_block:
            return b""
        raw = self.volume.read_block(inode.acl_block)
        length = int.from_bytes(raw[:2], "little")
        return raw[2 : 2 + length]

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------

    def readdir(self, path: str) -> List[Tuple[str, int]]:
        inode = self.inode(self.namei(path))
        return self._read_directory(inode).children()

    def readdir_by_ino(self, ino: int) -> List[Tuple[str, int]]:
        return self._read_directory(self.inode(ino)).children()

    def walk(self, path: str = "/") -> Iterator[Tuple[str, Inode]]:
        """Depth-first traversal yielding ``(path, inode)``; includes the root."""
        start_ino = self.namei(path)
        root = self.inode(start_ino)
        base = path.rstrip("/")
        yield (path if path == "/" else base), root
        if not root.is_dir:
            return
        stack = [(base, start_ino)]
        while stack:
            prefix, dir_ino = stack.pop()
            for name, ino in sorted(self.readdir_by_ino(dir_ino)):
                child_path = "%s/%s" % (prefix, name)
                inode = self.inode(ino)
                yield child_path, inode
                if inode.is_dir:
                    stack.append((child_path, ino))


class WaflFilesystem(FileTree):
    """A mounted write-anywhere file system on a :class:`RaidVolume`.

    It is its own read-write :class:`TreeContext`: the block trees of the
    active plane allocate from, free into and dirty inodes of the file
    system they were built over.  There is deliberately no separate
    context object pointing back here — nothing a file system owns may
    refer to it, so that dropping the last reference frees it, its block
    map and its volume's private chunks at once, by reference count.
    Its root is whatever inode-file inode ``fsinfo`` holds now, and its
    inode numbers end at the allocation watermark.
    """

    # The ledger's per-layer trace (benchmarks/ledger/trace.py) patches
    # these five reads by ``vars(WaflFilesystem)[name]``, so they are
    # bound on this class as well.
    namei = FileTree.namei
    read_file = FileTree.read_file
    read_by_ino = FileTree.read_by_ino
    file_extents = FileTree.file_extents
    read_extent = FileTree.read_extent

    def __init__(self, volume: RaidVolume, fsinfo: FsInfo, blockmap: BlockMap,
                 nvram: Optional[NvramLog] = None,
                 clock: Optional[Callable[[], float]] = None):
        super().__init__(volume, None, readonly=False)
        self.fsinfo = fsinfo
        self.blockmap = blockmap
        self.nvram = nvram
        self._clock = clock
        self._dirty_inodes: Set[int] = set()
        self._fresh_blocks: Set[int] = set()
        self._in_cp = False
        self._free_ino_heap: List[int] = []
        self._ino_watermark = FIRST_USER_INO
        self._replaying = False
        # Redundant fsinfo copies rewritten at mount (torn/stale copy).
        self.fsinfo_repairs = 0
        self.counters: Dict[str, int] = {
            "cp_count": 0,
            "files_created": 0,
            "files_deleted": 0,
            "bytes_written": 0,
            "nvram_ops_skipped": 0,
        }

    # ------------------------------------------------------------------
    # Tree context of the active plane
    # ------------------------------------------------------------------

    def alloc_run(self, want: int) -> Tuple[int, int]:
        start, count = self.blockmap.allocate_run(
            want, self.fsinfo.alloc_cursor, allow_reserve=self._in_cp
        )
        self.fsinfo.alloc_cursor = (start + count) % self.blockmap.nblocks
        self._fresh_blocks.update(range(start, start + count))
        return start, count

    def free_block(self, vbn: int) -> None:
        if vbn in self._fresh_blocks:
            # Never part of a committed image: immediately reusable.
            self._fresh_blocks.discard(vbn)
            self.blockmap.free_active(vbn)
        else:
            # The bit clears now (this CP persists the free) but the block
            # is not reusable until the CP commits, because the previous
            # on-disk tree still references it.
            self.blockmap.free_active(vbn, defer_reuse=True)

    def free_blocks(self, vbns) -> None:
        """Batched free: one vectorized block-map pass per disposition."""
        if len(vbns) == 1:
            return self.free_block(vbns[0])
        fresh = [vbn for vbn in vbns if vbn in self._fresh_blocks]
        committed = [vbn for vbn in vbns if vbn not in self._fresh_blocks]
        if fresh:
            self._fresh_blocks.difference_update(fresh)
            self.blockmap.free_active_many(fresh)
        if committed:
            self.blockmap.free_active_many(committed, defer_reuse=True)

    def allows_inplace(self, vbn: int) -> bool:
        return vbn in self._fresh_blocks

    def inode_dirty(self, inode: Inode) -> None:
        # The inode file's own inode lives in fsinfo, which every
        # consistency point writes.
        if inode is not self.fsinfo.inofile_inode:
            self._dirty_inodes.add(inode.ino)

    # ------------------------------------------------------------------
    # Format and mount
    # ------------------------------------------------------------------

    @classmethod
    def format(cls, volume: RaidVolume, nvram: Optional[NvramLog] = None,
               clock: Optional[Callable[[], float]] = None,
               cache_blocks: int = 16384) -> "WaflFilesystem":
        """Format ``volume`` with an empty file system and mount it.

        ``cache_blocks`` sizes the volume's buffer cache (0 disables it),
        the stand-in for the filer's RAM.
        """
        cls._attach_cache(volume, cache_blocks)
        fsinfo = FsInfo(volume.block_size, volume.nblocks)
        fsinfo.alloc_cursor = RESERVED_BLOCKS
        blockmap = BlockMap(volume.nblocks, reserved=RESERVED_BLOCKS)
        fs = cls(volume, fsinfo, blockmap, nvram=nvram, clock=clock)
        fs._format()
        return fs

    @staticmethod
    def _attach_cache(volume: RaidVolume, cache_blocks: int) -> None:
        from repro.wafl.buffercache import BlockCache

        if cache_blocks and volume.cache is None:
            volume.cache = BlockCache(cache_blocks)

    def _format(self) -> None:
        # The block-map metafile (ino 1).
        bm_inode = Inode(INO_BLOCKMAP, FileType.REGULAR)
        bm_inode.nlink = 1
        bm_inode.generation = self._next_generation()
        bm_inode.size = self.blockmap.n_fblocks() * BLOCK_SIZE
        self._install_inode(bm_inode)
        # The root directory (ino 2).
        root = Inode(ROOT_INO, FileType.DIRECTORY)
        root.nlink = 2
        root.perms = 0o755
        root.generation = self._next_generation()
        now = self._now()
        root.atime = root.mtime = root.ctime = now
        self._install_inode(root)
        self._write_directory(root, Directory.new_empty(ROOT_INO, ROOT_INO))
        self._ino_watermark = FIRST_USER_INO
        self.blockmap.mark_all_dirty()
        self.consistency_point()

    @classmethod
    def mount(cls, volume: RaidVolume, nvram: Optional[NvramLog] = None,
              clock: Optional[Callable[[], float]] = None,
              cache_blocks: int = 16384) -> "WaflFilesystem":
        """Mount the most recent consistency point, then replay NVRAM.

        This is the boot path the paper describes: no fsck, just load the
        root structure and replay the operations logged since the last CP.
        """
        cls._attach_cache(volume, cache_blocks)
        fsinfo, fsinfo_repairs = FsInfo.read_and_repair(volume)
        if fsinfo.block_size != volume.block_size or fsinfo.nblocks != volume.nblocks:
            raise FilesystemError("volume geometry does not match fsinfo")
        # Bootstrap: the read path never consults the map, so the map
        # file is read extent by extent, and the map copies in only the
        # slabs whose words are not all zero (holes and unwritten chunks
        # read as zeros).
        fs = cls(volume, fsinfo, None, nvram=nvram, clock=clock)
        bm_inode = fs._load_inode(INO_BLOCKMAP)
        if bm_inode.size < volume.nblocks * 4:
            raise FilesystemError("block-map file too short")
        fblocks = -(-bm_inode.size // BLOCK_SIZE)

        def pieces():
            for fbn, vbn, count in BlockTree(fs, bm_inode).extents():
                if fbn + count > fblocks:
                    raise FilesystemError(
                        "block-map file extends past its size")
                buffers: list = []
                volume.read_run(vbn, count, buffers)
                for buffer in buffers:
                    yield fbn, buffer
                    fbn += memoryview(buffer).nbytes // BLOCK_SIZE

        fs.blockmap = BlockMap.deserialize(volume.nblocks, RESERVED_BLOCKS,
                                           pieces())
        fs.fsinfo_repairs = fsinfo_repairs
        fs._scan_inodes()
        if nvram is not None and len(nvram):
            fs._replay_nvram()
        return fs

    def _scan_inodes(self) -> None:
        """Rebuild the inode allocation state from the inode file."""
        used: List[int] = []
        inofile = BlockTree(self, self.fsinfo.inofile_inode)
        highest = 0
        for fbn, _vbn in inofile.allocated_fblocks():
            data = inofile.read_fblock(fbn)
            for slot in range(INODES_PER_BLOCK):
                ino = fbn * INODES_PER_BLOCK + slot
                raw = data[slot * INODE_SIZE : (slot + 1) * INODE_SIZE]
                if raw[0] != FileType.FREE:
                    used.append(ino)
                    highest = max(highest, ino)
        used_set = set(used)
        # Resume at the watermark the last CP recorded, as a filer that
        # never went down would: freed inodes at the top stay below it.
        self._ino_watermark = max(highest + 1, FIRST_USER_INO,
                                  self.fsinfo.next_ino_hint)
        self._free_ino_heap = [
            ino for ino in range(FIRST_USER_INO, self._ino_watermark)
            if ino not in used_set
        ]
        heapq.heapify(self._free_ino_heap)

    def _replay_nvram(self) -> None:
        self._replaying = True
        try:
            for op in self.nvram.pending_ops():
                # An op whose epoch predates the mounted cp_count is
                # already durable: the crash landed between the root
                # structure write and the NVRAM half switch, so replaying
                # it would apply it twice (e.g. re-create an existing
                # path).  Epoch-less ops always replay.
                epoch = getattr(op, "epoch", None)
                if epoch is not None and epoch < self.fsinfo.cp_count:
                    self.counters["nvram_ops_skipped"] += 1
                    continue
                # The log holds each op as it was asked, refused ones
                # too; from the same state replay refuses them again.
                try:
                    getattr(self, op.method)(*op.args, **op.kwargs)
                except FilesystemError:
                    pass
        finally:
            self._replaying = False

    def clone_volume(self, nvram: Optional[NvramLog] = None) -> "WaflFilesystem":
        """A writable copy of this file system on a copy-on-write volume.

        No remount: the clone reproduces the in-memory state exactly — the
        buffer cache (hits/misses/LRU order), the inode and directory parse
        caches, allocation cursors, dirty sets, counters — so running a
        workload on the clone behaves byte-for-byte like running it on the
        original.  The volume is a chunk-sharing :meth:`RaidVolume.clone`
        and the block map a slab-sharing :meth:`BlockMap.clone`, so the
        copy costs small metadata, not the data or address-space size.
        The original must keep mounted state (do not clone a crashed file
        system).
        """
        if self.fsinfo is None or self.blockmap is None:
            raise FilesystemError("cannot clone a crashed file system")
        fs = WaflFilesystem.__new__(WaflFilesystem)
        FileTree.__init__(fs, self.volume.clone(), None, readonly=False)
        fs.fsinfo = copy.deepcopy(self.fsinfo)
        fs.blockmap = self.blockmap.clone()
        fs.nvram = nvram
        fs._clock = self._clock
        fs._inodes = {ino: inode.copy() for ino, inode in self._inodes.items()}
        fs._dir_cache = dict(self._dir_cache)
        fs._dirty_inodes = set(self._dirty_inodes)
        fs._fresh_blocks = set(self._fresh_blocks)
        fs._in_cp = False
        fs._free_ino_heap = list(self._free_ino_heap)
        fs._ino_watermark = self._ino_watermark
        fs._replaying = False
        fs.fsinfo_repairs = self.fsinfo_repairs
        fs.counters = dict(self.counters)
        return fs

    def crash(self) -> None:
        """Drop all in-memory state (simulated power loss).

        The volume retains the last consistency point; remount with
        :meth:`mount` (passing the NVRAM log to recover the tail).
        """
        self._inodes.clear()
        self._dirty_inodes.clear()
        self._fresh_blocks.clear()
        self._dir_cache.clear()
        self.fsinfo = None  # type: ignore[assignment]
        self.blockmap = None  # type: ignore[assignment]

    # ------------------------------------------------------------------
    # Clock / ids
    # ------------------------------------------------------------------

    def _now(self) -> int:
        if self._clock is not None:
            return int(self._clock())
        self.fsinfo.clock_ticks += 1
        return self.fsinfo.clock_ticks

    def _next_generation(self) -> int:
        generation = self.fsinfo.next_generation
        self.fsinfo.next_generation += 1
        return generation

    # ------------------------------------------------------------------
    # Inode file plumbing
    # ------------------------------------------------------------------

    def _inofile_tree(self) -> BlockTree:
        return BlockTree(self, self.fsinfo.inofile_inode)

    def max_ino(self) -> int:
        return self._ino_watermark

    def _install_inode(self, inode: Inode) -> None:
        self._inodes[inode.ino] = inode
        self._dirty_inodes.add(inode.ino)

    def _alloc_ino(self) -> int:
        if self._free_ino_heap:
            return heapq.heappop(self._free_ino_heap)
        ino = self._ino_watermark
        self._ino_watermark += 1
        return ino

    def _free_ino(self, ino: int) -> None:
        heapq.heappush(self._free_ino_heap, ino)

    # ------------------------------------------------------------------
    # Consistency points
    # ------------------------------------------------------------------

    def at_consistency_point(self) -> bool:
        """Whether the on-disk image is current: nothing a consistency
        point would write is dirty.  Read-only — a consistency point is
        not (it bumps ``cp_count`` and commits deferred reuse)."""
        return not (self._dirty_inodes or self.blockmap.dirty_fblocks)

    def consistency_point(self) -> None:
        """Persist all dirty state; the on-disk image becomes current."""
        self._in_cp = True
        try:
            self._consistency_point_locked()
        finally:
            self._in_cp = False

    def _write_dirty_inodes(self) -> None:
        """Pack the dirty inodes into the inode file, one copy-on-write
        per inode-file block, and clear the dirty set."""
        if not self._dirty_inodes:
            return
        tree = self._inofile_tree()
        by_fbn: Dict[int, List[int]] = {}
        for ino in self._dirty_inodes:
            by_fbn.setdefault(ino // INODES_PER_BLOCK, []).append(ino)
        for fbn in sorted(by_fbn):
            data = bytearray(tree.read_fblock(fbn))
            for ino in by_fbn[fbn]:
                slot = ino % INODES_PER_BLOCK
                data[slot * INODE_SIZE : (slot + 1) * INODE_SIZE] = (
                    self._inodes[ino].pack())
            tree.write_fblock(fbn, bytes(data))
            needed = (fbn + 1) * BLOCK_SIZE
            if self.fsinfo.inofile_inode.size < needed:
                self.fsinfo.inofile_inode.size = needed
        tree.flush()
        self._dirty_inodes.clear()

    def _consistency_point_locked(self) -> None:
        # 1. Dirty inodes into the inode file.
        self._write_dirty_inodes()

        # 2. The block-map file, to fixpoint.  Writing map blocks allocates
        #    and frees blocks, which dirties more map blocks; blocks
        #    allocated during this CP are rewritten in place, so each map
        #    block is copied at most once and the loop terminates.
        bm_inode = self._load_inode(INO_BLOCKMAP)
        bm_tree = BlockTree(self, bm_inode)
        rounds = 0
        while self.blockmap.dirty_fblocks or self._dirty_inodes:
            rounds += 1
            if rounds > 1000:
                raise FilesystemError("consistency point failed to converge")
            while self.blockmap.dirty_fblocks:
                # Ascending drain via the map's heap mirror: same order as
                # min()+discard, without the quadratic set scan at paper
                # scale (writes dirty further fblocks mid-drain).  Each
                # maximal consecutive run goes down as extents (see
                # write_cow_run); a run whose content shifts under its own
                # writes re-dirties and is rewritten in place next pass,
                # so the fixpoint argument is unchanged.
                start, count = self.blockmap.pop_dirty_run()
                data = self.blockmap.serialize_fblock_run(start, count)
                bm_tree.write_cow_run(start, data)
            bm_tree.flush()
            needed = self.blockmap.n_fblocks() * BLOCK_SIZE
            if bm_inode.size < needed:
                bm_inode.size = needed
                self._dirty_inodes.add(INO_BLOCKMAP)
            # The block-map inode itself changed: write its slot.
            self._write_dirty_inodes()

        # 3. The root structure, written redundantly at its fixed location.
        self.fsinfo.cp_count += 1
        self.fsinfo.next_ino_hint = self._ino_watermark
        self.fsinfo.write_to(self.volume)
        self._fresh_blocks.clear()
        self.blockmap.commit_deferred_reuse()
        if self.nvram is not None:
            self.nvram.switch_halves()
        self.counters["cp_count"] += 1

    def _log_op(self, method: str, *args, **kwargs) -> None:
        if self.nvram is None or self._replaying:
            return
        op = LoggedOp(method, args, kwargs, epoch=self.fsinfo.cp_count)
        if not self.nvram.try_append(op):
            # Log half full: take a consistency point, then the op fits.
            # The op lands after that CP, so it carries the new epoch.
            self.consistency_point()
            op.epoch = self.fsinfo.cp_count
            if not self.nvram.try_append(op):
                raise FilesystemError("NVRAM log cannot hold operation")

    def _piece_size(self, path: str, data) -> int:
        """How many bytes of ``data`` one logged ``write_file`` of ``path``
        carries when ``data`` is too big to log whole in half the NVRAM:
        the most whole blocks that fit.  0 when it fits (or nothing is
        logged, or not one block fits — the log then refuses the op)."""
        nvram = self.nvram
        if nvram is None or self._replaying or nvram.failed:
            return 0
        room = nvram.half_capacity - OP_OVERHEAD - len(path)
        if run_nbytes(data) <= room or LoggedOp(
                "write_file", (path, data), {}).nbytes <= nvram.half_capacity:
            return 0
        return max(room, 0) // BLOCK_SIZE * BLOCK_SIZE

    def _write_pieces(self, path: str, data, offset: int, piece: int) -> None:
        """``write_file`` in pieces of at most ``piece`` bytes that end on
        block boundaries, each logged and applied before the next — a
        filer logs client requests, not files."""
        view = memoryview(b"".join(data) if isinstance(data, list) else data)
        pos, end = offset, offset + len(view)
        while pos < end:
            stop = min(end, pos - pos % BLOCK_SIZE + piece)
            self.write_file(path, bytes(view[pos - offset : stop - offset]),
                            offset=pos)
            pos = stop

    # ------------------------------------------------------------------
    # Path resolution
    # ------------------------------------------------------------------

    def _namei_parent(self, path: str) -> Tuple[Inode, str]:
        parts = self._split(path)
        if not parts:
            raise FilesystemError("operation on the root directory")
        parent_path = "/" + "/".join(parts[:-1])
        parent_ino = self.namei(parent_path)
        parent = self._load_inode(parent_ino)
        if not parent.is_dir:
            raise NotADirectoryError_("%r: not a directory" % parent_path)
        return parent, parts[-1]

    def _room_for(self, *writes: int) -> None:
        """Refuse, before it changes anything, an op that writes trees of
        ``writes`` blocks unless they fit above the consistency-point
        reserve with every indirect block above them: then nothing
        partway through the op can fail."""
        need = sum(n + n // PTRS_PER_BLOCK + 3 for n in writes if n)
        if need and self.blockmap.free_blocks() - need < self.blockmap.cp_reserve:
            raise NoSpaceError("file system is full (consistency-point reserve)")

    @staticmethod
    def _dir_blocks(inode: Inode) -> int:
        return inode.size // BLOCK_SIZE + 2  # rewritten with one more entry

    # ------------------------------------------------------------------
    # Directory plumbing
    # ------------------------------------------------------------------

    def _write_directory(self, inode: Inode, directory: Directory) -> None:
        data = directory.pack()
        nblocks = max(1, (len(data) + BLOCK_SIZE - 1) // BLOCK_SIZE)
        padded = data.ljust(nblocks * BLOCK_SIZE, b"\0")
        self._room_for(nblocks)
        tree = BlockTree(self, inode)
        tree.truncate_blocks(nblocks)
        tree.write_run(0, padded)
        tree.flush()
        inode.size = len(data)
        inode.mtime = self._now()
        self.inode_dirty(inode)
        self._cache_directory(inode, padded, tuple(directory.entries()))

    # ------------------------------------------------------------------
    # Namespace operations
    # ------------------------------------------------------------------

    def _new_inode(self, type_: int, parent: Inode, perms: int, uid: int,
                   gid: int) -> Inode:
        inode = Inode(self._alloc_ino(), type_)
        inode.nlink = 1
        inode.perms = perms
        inode.uid = uid
        inode.gid = gid
        inode.qtree = parent.qtree
        inode.generation = self._next_generation()
        now = self._now()
        inode.atime = inode.mtime = inode.ctime = now
        self._install_inode(inode)
        return inode

    def create(self, path: str, data: bytes = b"", perms: int = 0o644,
               uid: int = 0, gid: int = 0) -> int:
        """Create a regular file (optionally with initial contents)."""
        piece = self._piece_size(path, data)
        data_blocks = -(-len(data) // BLOCK_SIZE)
        if piece:
            self._room_for(self._dir_blocks(self._namei_parent(path)[0]),
                           data_blocks)
            ino = self.create(path, perms=perms, uid=uid, gid=gid)
            self._write_pieces(path, data, 0, piece)
            return ino
        self._log_op("create", path, data, perms=perms, uid=uid, gid=gid)
        parent, name = self._namei_parent(path)
        directory = self._read_directory(parent)
        if name in directory:
            raise ExistsError("path exists: %r" % path)
        self._room_for(self._dir_blocks(parent), data_blocks)
        inode = self._new_inode(FileType.REGULAR, parent, perms, uid, gid)
        directory.add(name, inode.ino)
        self._write_directory(parent, directory)
        if data:
            self._write_inode_data(inode, data, 0)
        self.counters["files_created"] += 1
        return inode.ino

    def mkdir(self, path: str, perms: int = 0o755, uid: int = 0, gid: int = 0) -> int:
        self._log_op("mkdir", path, perms=perms, uid=uid, gid=gid)
        parent, name = self._namei_parent(path)
        directory = self._read_directory(parent)
        if name in directory:
            raise ExistsError("path exists: %r" % path)
        self._room_for(1, self._dir_blocks(parent))
        inode = self._new_inode(FileType.DIRECTORY, parent, perms, uid, gid)
        inode.nlink = 2
        self._write_directory(inode, Directory.new_empty(inode.ino, parent.ino))
        directory.add(name, inode.ino)
        self._write_directory(parent, directory)
        parent.nlink += 1
        self.inode_dirty(parent)
        return inode.ino

    def symlink(self, path: str, target: str) -> int:
        self._log_op("symlink", path, target)
        parent, name = self._namei_parent(path)
        directory = self._read_directory(parent)
        if name in directory:
            raise ExistsError("path exists: %r" % path)
        self._room_for(self._dir_blocks(parent),
                       -(-len(target.encode("utf-8")) // BLOCK_SIZE))
        inode = self._new_inode(FileType.SYMLINK, parent, 0o777, 0, 0)
        directory.add(name, inode.ino)
        self._write_directory(parent, directory)
        self._write_inode_data(inode, target.encode("utf-8"), 0)
        return inode.ino

    def link(self, existing: str, new_path: str) -> None:
        """Create a hard link (directories excluded)."""
        self._log_op("link", existing, new_path)
        ino = self.namei(existing)
        inode = self.inode(ino)
        if inode.is_dir:
            raise IsADirectoryError_("cannot hard-link a directory")
        parent, name = self._namei_parent(new_path)
        directory = self._read_directory(parent)
        if name in directory:
            raise ExistsError("path exists: %r" % new_path)
        directory.add(name, ino)
        self._write_directory(parent, directory)
        inode.nlink += 1
        inode.ctime = self._now()
        self.inode_dirty(inode)

    def unlink(self, path: str) -> None:
        self._log_op("unlink", path)
        parent, name = self._namei_parent(path)
        directory = self._read_directory(parent)
        ino = directory.lookup(name)
        if ino is None:
            raise NotFoundError("no such path %r" % path)
        inode = self._load_inode(ino)
        if inode.is_dir:
            raise IsADirectoryError_("unlink on directory %r" % path)
        directory.remove(name)
        self._write_directory(parent, directory)
        inode.nlink -= 1
        inode.ctime = self._now()
        if inode.nlink <= 0:
            self._destroy_inode(inode)
        else:
            self.inode_dirty(inode)

    def rmdir(self, path: str) -> None:
        self._log_op("rmdir", path)
        parent, name = self._namei_parent(path)
        directory = self._read_directory(parent)
        ino = directory.lookup(name)
        if ino is None:
            raise NotFoundError("no such path %r" % path)
        inode = self._load_inode(ino)
        if not inode.is_dir:
            raise NotADirectoryError_("rmdir on non-directory %r" % path)
        if not self._read_directory(inode).is_empty():
            raise NotEmptyError("directory %r not empty" % path)
        directory.remove(name)
        self._write_directory(parent, directory)
        parent.nlink -= 1
        self.inode_dirty(parent)
        inode.nlink = 0
        self._destroy_inode(inode)

    def rename(self, old_path: str, new_path: str) -> None:
        """POSIX-style rename; replaces an existing non-directory target."""
        self._log_op("rename", old_path, new_path)
        old_parent, old_name = self._namei_parent(old_path)
        new_parent, new_name = self._namei_parent(new_path)
        old_dir = self._read_directory(old_parent)
        ino = old_dir.lookup(old_name)
        if ino is None:
            raise NotFoundError("no such path %r" % old_path)
        moving = self._load_inode(ino)
        if moving.is_dir:
            # A directory must not move into its own subtree: walk the new
            # parent's ancestry and refuse a cycle.
            cursor = new_parent.ino
            while cursor != ROOT_INO:
                if cursor == ino:
                    raise FilesystemError(
                        "cannot move %r into its own subtree" % old_path
                    )
                cursor = self._read_directory(
                    self._load_inode(cursor)
                ).lookup("..")
        same_dir = old_parent.ino == new_parent.ino
        rewritten = [old_parent] if same_dir else [old_parent, new_parent]
        if moving.is_dir and not same_dir:
            rewritten.append(moving)  # its '..' entry
        self._room_for(*map(self._dir_blocks, rewritten))
        new_dir = old_dir if same_dir else self._read_directory(new_parent)
        existing = new_dir.lookup(new_name)
        if existing is not None:
            target = self._load_inode(existing)
            if target.is_dir:
                if not moving.is_dir:
                    raise IsADirectoryError_("cannot replace directory %r" % new_path)
                if not self._read_directory(target).is_empty():
                    raise NotEmptyError("target directory %r not empty" % new_path)
                new_dir.remove(new_name)
                new_parent.nlink -= 1
                target.nlink = 0
                self._destroy_inode(target)
            else:
                new_dir.remove(new_name)
                target.nlink -= 1
                if target.nlink <= 0:
                    self._destroy_inode(target)
                else:
                    self.inode_dirty(target)
        old_dir.remove(old_name)
        new_dir.add(new_name, ino)
        if same_dir:
            self._write_directory(old_parent, old_dir)
        else:
            self._write_directory(old_parent, old_dir)
            self._write_directory(new_parent, new_dir)
            if moving.is_dir:
                # Fix up '..' and the parents' link counts.
                child_dir = self._read_directory(moving)
                child_dir.replace("..", new_parent.ino)
                self._write_directory(moving, child_dir)
                old_parent.nlink -= 1
                new_parent.nlink += 1
                self.inode_dirty(old_parent)
                self.inode_dirty(new_parent)
        moving.ctime = self._now()
        self.inode_dirty(moving)

    def _destroy_inode(self, inode: Inode) -> None:
        self._dir_cache.pop(inode.ino, None)
        tree = BlockTree(self, inode)
        tree.free_all()
        if inode.acl_block:
            self.free_block(inode.acl_block)
            inode.acl_block = 0
        inode.clear()
        self.inode_dirty(inode)
        self._free_ino(inode.ino)
        self.counters["files_deleted"] += 1

    # ------------------------------------------------------------------
    # File data
    # ------------------------------------------------------------------

    def _write_inode_data(self, inode: Inode, data, offset: int) -> None:
        """Write ``data`` — a buffer, or a list of buffers whose join is
        the write — at ``offset`` of ``inode``."""
        if inode.is_dir:
            raise IsADirectoryError_("write to directory inode %d" % inode.ino)
        nbytes = run_nbytes(data)
        end = offset + nbytes
        first_fbn = offset // BLOCK_SIZE
        last_fbn = (end - 1) // BLOCK_SIZE if nbytes else first_fbn
        self._room_for(last_fbn - first_fbn + 1 if nbytes else 0)
        tree = BlockTree(self, inode)
        # A buffer on block boundaries goes down as it is; one with a
        # partial edge block is staged, merging the edges with the
        # existing contents.
        head_pad = offset - first_fbn * BLOCK_SIZE
        tail_pad = (last_fbn + 1) * BLOCK_SIZE - end
        blocks = data
        if head_pad or tail_pad:
            blocks = bytearray()
            if head_pad:
                blocks += tree.read_fblock(first_fbn)[:head_pad]
            for piece in (data if isinstance(data, list) else [data]):
                blocks += piece
            if tail_pad:
                blocks += tree.read_fblock(last_fbn)[BLOCK_SIZE - tail_pad :]
        if nbytes:
            tree.write_run(first_fbn, blocks)
        tree.flush()
        if end > inode.size:
            inode.size = end
        inode.mtime = self._now()
        self.inode_dirty(inode)
        self.counters["bytes_written"] += nbytes

    def write_file(self, path: str, data, offset: int = 0) -> None:
        """Write ``data`` at ``offset`` (sparse writes allowed): a buffer,
        or a list of buffers whose join is the write, which the NVRAM log
        keeps as it is given."""
        piece = self._piece_size(path, data)
        if piece:
            return self._write_pieces(path, data, offset, piece)
        self._log_op("write_file", path, data, offset=offset)
        inode = self.inode(self.namei(path))
        self._write_inode_data(inode, data, offset)

    def truncate(self, path: str, size: int) -> None:
        self._log_op("truncate", path, size)
        inode = self.inode(self.namei(path))
        if inode.is_dir:
            raise IsADirectoryError_("truncate on a directory")
        keep_blocks = (size + BLOCK_SIZE - 1) // BLOCK_SIZE
        # A cut leaves a tail block or an indirect block to rewrite.
        self._room_for(size < inode.size and (size % BLOCK_SIZE > 0
                                              or keep_blocks > NDIRECT))
        tree = BlockTree(self, inode)
        tree.truncate_blocks(keep_blocks)
        if size % BLOCK_SIZE and size < inode.size:
            # Zero the tail of the final kept block.
            fbn = size // BLOCK_SIZE
            kept = tree.read_fblock(fbn)
            cut = size % BLOCK_SIZE
            tree.write_fblock(fbn, kept[:cut] + bytes(BLOCK_SIZE - cut))
        tree.flush()
        inode.size = size
        inode.mtime = self._now()
        self.inode_dirty(inode)

    # ------------------------------------------------------------------
    # Attributes
    # ------------------------------------------------------------------

    def set_attrs(self, path: str, perms: Optional[int] = None,
                  uid: Optional[int] = None, gid: Optional[int] = None,
                  mtime: Optional[int] = None, atime: Optional[int] = None,
                  dos_name: Optional[bytes] = None,
                  dos_bits: Optional[int] = None,
                  dos_time: Optional[int] = None) -> None:
        """Set Unix attributes and the NetApp multi-protocol extensions."""
        self._log_op("set_attrs", path, perms=perms, uid=uid, gid=gid,
                     mtime=mtime, atime=atime, dos_name=dos_name,
                     dos_bits=dos_bits, dos_time=dos_time)
        inode = self.inode(self.namei(path))
        if perms is not None:
            inode.perms = perms
        if uid is not None:
            inode.uid = uid
        if gid is not None:
            inode.gid = gid
        if mtime is not None:
            inode.mtime = mtime
        if atime is not None:
            inode.atime = atime
        if dos_name is not None:
            inode.dos_name = dos_name
        if dos_bits is not None:
            inode.dos_bits = dos_bits
        if dos_time is not None:
            inode.dos_time = dos_time
        inode.ctime = self._now()
        self.inode_dirty(inode)

    def set_acl(self, path: str, acl: bytes) -> None:
        """Attach an NT ACL blob (stored in its own block)."""
        self._log_op("set_acl", path, acl)
        if len(acl) > BLOCK_SIZE - 2:
            raise FilesystemError("ACL larger than one block")
        inode = self.inode(self.namei(path))
        self._room_for(len(acl) > 0)
        if inode.acl_block:
            self.free_block(inode.acl_block)
            inode.acl_block = 0
        if acl:
            vbn, count = self.alloc_run(1)
            assert count == 1
            framed = len(acl).to_bytes(2, "little") + acl
            self.volume.write_block(vbn, framed.ljust(BLOCK_SIZE, b"\0"))
            inode.acl_block = vbn
        inode.ctime = self._now()
        self.inode_dirty(inode)

    # ------------------------------------------------------------------
    # Qtrees
    # ------------------------------------------------------------------

    def create_qtree(self, name: str) -> int:
        """A top-level directory forming an independent management subtree.

        Qtrees are how the paper splits the ``home`` volume into equal
        pieces for parallel logical dumps.
        """
        ino = self.mkdir("/" + name)
        inode = self.inode(ino)
        inode.qtree = ino  # the qtree id is its root directory's inode
        self.inode_dirty(inode)
        return ino

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def snapshot_create(self, name: str) -> SnapshotRecord:
        """Instant, read-only copy of the whole file system."""
        if self.fsinfo.find_snapshot(name) is not None:
            raise SnapshotError("snapshot %r already exists" % name)
        plane = self.fsinfo.free_snapshot_plane()
        # The snapshot must capture a self-consistent on-disk image.
        self.consistency_point()
        record = SnapshotRecord(
            plane,
            name,
            self._now(),
            self.fsinfo.cp_count,
            self.fsinfo.inofile_inode.copy(),
        )
        self.blockmap.snapshot_create(plane)
        self.fsinfo.snapshots.append(record)
        self.consistency_point()
        return record

    def snapshot_delete(self, name: str) -> int:
        """Delete a snapshot; returns the number of blocks freed."""
        record = self.fsinfo.find_snapshot(name)
        if record is None:
            raise SnapshotError("no snapshot named %r" % name)
        self.fsinfo.snapshots.remove(record)
        freed = self.blockmap.snapshot_delete(record.snap_id)
        self.consistency_point()
        return freed

    def snapshots(self) -> List[SnapshotRecord]:
        return list(self.fsinfo.snapshots)

    def snapshot_view(self, name: str) -> FileTree:
        """A read-only file tree over the snapshot's frozen root."""
        record = self.fsinfo.find_snapshot(name)
        if record is None:
            raise SnapshotError("no snapshot named %r" % name)
        return FileTree(self.volume, record.inofile_inode)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def statfs(self) -> Dict[str, int]:
        return {
            "block_size": BLOCK_SIZE,
            "total_blocks": self.blockmap.nblocks,
            "free_blocks": self.blockmap.free_blocks(),
            "active_blocks": self.blockmap.active_block_count(),
            "used_blocks": self.blockmap.used_block_count(),
            "snapshots": len(self.fsinfo.snapshots),
        }


__all__ = ["WaflFilesystem"]
