"""Copy-on-write block trees: mapping file blocks to volume blocks.

Every file (user files, directories, the inode file, the block-map file)
is a tree of blocks hanging off its inode: 16 direct pointers, one single
indirect, one double indirect.  A pointer value of 0 is a hole.

The write-anywhere rule is enforced here: writing a file block always
allocates a fresh volume block, writes there, frees the old block from the
active plane, and propagates the pointer change upward — copying any
indirect blocks on the path (they are subject to the same rule).  Nothing
is ever modified in place, which is what makes snapshots free and, for
this paper, what fragments a mature file system so that inode-order reads
become scattered.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import FilesystemError
from repro.raid.group import run_nbytes
from repro.wafl.consts import BLOCK_SIZE, MAX_FILE_BLOCKS, NDIRECT, PTRS_PER_BLOCK
from repro.wafl.inode import Inode


class TreeContext:
    """Services a :class:`BlockTree` needs from its file system.

    Every :class:`~repro.wafl.filesystem.FileTree` *is* one: the active
    :class:`~repro.wafl.filesystem.WaflFilesystem` read-write, a snapshot
    view read-only.
    """

    def __init__(self, volume, readonly: bool = False):
        self.volume = volume
        self.readonly = readonly

    def alloc_run(self, want: int) -> Tuple[int, int]:
        raise FilesystemError("read-only context cannot allocate")

    def free_block(self, vbn: int) -> None:
        raise FilesystemError("read-only context cannot free")

    def free_blocks(self, vbns: List[int]) -> None:
        """Free a batch of blocks; contexts with a vectorized free path
        (the active file system's block map) override this."""
        for vbn in vbns:
            self.free_block(vbn)

    def allows_inplace(self, vbn: int) -> bool:
        """Whether ``vbn`` may be rewritten in place.

        True only for blocks allocated since the last consistency point:
        no on-disk tree references them yet, so overwriting cannot hurt a
        committed image.  This is what lets the consistency point's
        block-map fixpoint terminate.
        """
        return False

    def inode_dirty(self, inode: Inode) -> None:
        """The inode's pointers or size changed; persist it at the next CP."""


_PTR_STRUCT = struct.Struct("<%dI" % PTRS_PER_BLOCK)


def _unpack_ptrs(data: bytes) -> List[int]:
    return list(_PTR_STRUCT.unpack_from(data, 0))


def _pack_ptrs(ptrs: List[int]) -> bytes:
    return _PTR_STRUCT.pack(*ptrs)


# What an absent indirect block holds: holes.  Never written through.
_NO_PTRS = (0,) * PTRS_PER_BLOCK
_NO_PTR_BYTES = bytes(BLOCK_SIZE)
_DIRECT_STRUCT = struct.Struct("<%dI" % NDIRECT)


class _IndirectBlock:
    """A loaded indirect block, tracked for copy-on-write flushing."""

    __slots__ = ("vbn", "ptrs", "dirty")

    def __init__(self, vbn: int, ptrs: List[int]):
        self.vbn = vbn  # 0 when the block does not exist on disk yet
        self.ptrs = ptrs
        self.dirty = False


def _direct_runs(direct: List[int]) -> List[Tuple[int, int, int]]:
    """The extents of a direct-only tree: a plain merge loop."""
    runs: List[Tuple[int, int, int]] = []
    run_fbn = run_vbn = run_len = 0
    for fbn in range(NDIRECT):
        vbn = direct[fbn]
        if not vbn:
            continue
        if run_len and fbn == run_fbn + run_len and vbn == run_vbn + run_len:
            run_len += 1
            runs[-1] = (run_fbn, run_vbn, run_len)
            continue
        run_fbn, run_vbn, run_len = fbn, vbn, 1
        runs.append((fbn, vbn, 1))
    return runs


def _tree_runs(inode: Inode, images) -> List[Tuple[int, int, int]]:
    """The extents of a tree with indirect levels, from ``images``
    (:meth:`BlockTree._indirect_images`): the pointers laid end to end in
    file order — a missing block is a block of holes — so that a
    pointer's index is its file block, then one vectorized edge scan."""
    data = (block for _vbn, block in images)
    parts = [_DIRECT_STRUCT.pack(*inode.direct),
             next(data) if inode.indirect else _NO_PTR_BYTES]
    if inode.dindirect:
        at = 0
        for child in np.flatnonzero(
                np.frombuffer(next(data), dtype="<u4")).tolist():
            parts += [_NO_PTR_BYTES] * (child - at)
            parts.append(next(data))
            at = child + 1
    ptrs = np.frombuffer(b"".join(parts), dtype="<u4")
    fbns = np.flatnonzero(ptrs)
    if not fbns.size:
        return []
    vbns = ptrs[fbns]
    # uint32 differences wrap, but never to 1 between nonzero pointers.
    breaks = np.flatnonzero((np.diff(fbns) != 1) | (np.diff(vbns) != 1))
    starts = np.concatenate(([0], breaks + 1))
    lengths = np.diff(np.concatenate((starts, [fbns.size])))
    return list(zip(fbns[starts].tolist(), vbns[starts].tolist(),
                    lengths.tolist()))


class BlockTree:
    """The pointer tree of one inode.

    A tree instance is a short-lived cursor: it caches indirect blocks
    while an operation runs and must be :meth:`flush`-ed (read-write
    contexts) before the operation returns so that all copied indirect
    blocks and the inode itself reach a consistent state.
    """

    def __init__(self, ctx: TreeContext, inode: Inode):
        self.ctx = ctx
        self.inode = inode
        # Cache of loaded indirect blocks, keyed by role:
        #   ("ind",) for the single indirect, ("dptr",) for the double
        #   indirect pointer block, ("dind", i) for its i-th child.
        self._cache: Dict[tuple, _IndirectBlock] = {}

    # -- indirect block handling ------------------------------------------------

    def _load(self, key: tuple, vbn: int) -> _IndirectBlock:
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if vbn:
            ptrs = _unpack_ptrs(self.ctx.volume.read_block(vbn))
        else:
            ptrs = [0] * PTRS_PER_BLOCK
        block = _IndirectBlock(vbn, ptrs)
        self._cache[key] = block
        return block

    # -- pointer resolution -------------------------------------------------------

    def _check_fbn(self, fbn: int) -> None:
        if fbn < 0 or fbn >= MAX_FILE_BLOCKS:
            raise FilesystemError("file block %d beyond maximum file size" % fbn)

    def _peek(self, key: tuple, vbn: int) -> Optional[_IndirectBlock]:
        """The indirect block at ``key``; None (nothing cached, nothing
        read) when the tree has none there — all its pointers are holes."""
        if not vbn and key not in self._cache:
            return None
        return self._load(key, vbn)

    def get_pointer(self, fbn: int) -> int:
        """Volume block holding file block ``fbn`` (0 for a hole)."""
        self._check_fbn(fbn)
        if fbn < NDIRECT:
            return self.inode.direct[fbn]
        fbn -= NDIRECT
        if fbn < PTRS_PER_BLOCK:
            if not self.inode.indirect and ("ind",) not in self._cache:
                return 0
            return self._load(("ind",), self.inode.indirect).ptrs[fbn]
        fbn -= PTRS_PER_BLOCK
        child = fbn // PTRS_PER_BLOCK
        slot = fbn % PTRS_PER_BLOCK
        if not self.inode.dindirect and ("dptr",) not in self._cache:
            return 0
        dptr = self._load(("dptr",), self.inode.dindirect)
        child_vbn = dptr.ptrs[child]
        if not child_vbn and ("dind", child) not in self._cache:
            return 0
        return self._load(("dind", child), child_vbn).ptrs[slot]

    def _set_pointer(self, fbn: int, vbn: int) -> None:
        self._check_fbn(fbn)
        if fbn < NDIRECT:
            self.inode.direct[fbn] = vbn
            self.ctx.inode_dirty(self.inode)
            return
        fbn -= NDIRECT
        if fbn < PTRS_PER_BLOCK:
            block = self._load(("ind",), self.inode.indirect)
            block.ptrs[fbn] = vbn
            block.dirty = True
            return
        fbn -= PTRS_PER_BLOCK
        child = fbn // PTRS_PER_BLOCK
        slot = fbn % PTRS_PER_BLOCK
        dptr = self._load(("dptr",), self.inode.dindirect)
        child_vbn = dptr.ptrs[child]
        block = self._load(("dind", child), child_vbn)
        block.ptrs[slot] = vbn
        block.dirty = True

    # -- data I/O -------------------------------------------------------------------

    def read_fblock(self, fbn: int) -> bytes:
        vbn = self.get_pointer(fbn)
        if not vbn:
            return bytes(BLOCK_SIZE)
        return self.ctx.volume.read_block(vbn)

    def write_fblock(self, fbn: int, data: bytes) -> None:
        """Copy-on-write one file block: :meth:`write_cow_run` of one."""
        if len(data) != BLOCK_SIZE:
            raise FilesystemError("unaligned file block write")
        self.write_cow_run(fbn, data)

    def write_run(self, fbn: int, data, offset: int = 0,
                  nblocks: Optional[int] = None) -> None:
        """Write ``nblocks`` consecutive file blocks from ``data[offset:]``
        (by default all of ``data``: a buffer, or a list of buffers whose
        join is the run), allocating contiguous runs.

        The allocator hands back the longest contiguous run it can at the
        current cursor; on a young file system a whole file lands as one
        extent, on an aged one it shatters — the paper's "mature data set"
        effect.  The buffer goes down whole, with an offset, never sliced.
        """
        if self.ctx.readonly:
            raise FilesystemError("write through a read-only tree")
        if nblocks is None:
            nbytes = run_nbytes(data) - offset
            if nbytes % BLOCK_SIZE:
                raise FilesystemError("unaligned run write")
            nblocks = nbytes // BLOCK_SIZE
        done = 0
        while done < nblocks:
            start_vbn, count = self.ctx.alloc_run(nblocks - done)
            self.ctx.volume.write_run(
                start_vbn, data, offset + done * BLOCK_SIZE, count)
            old_vbns = self._replace_range(fbn + done, start_vbn, count)
            if old_vbns:
                self.ctx.free_blocks(old_vbns)
            done += count

    def write_cow_run(self, fbn: int, data) -> None:
        """Copy-on-write consecutive file blocks, batching volume writes.

        A block the tree may overwrite (allocated since the last
        consistency point) is rewritten where it lies; any other gets a
        fresh block through :meth:`write_run`.  In-place stretches whose
        volume blocks are consecutive go down as one extent write, and a
        copy-on-write stretch is one ``alloc_run(n)`` walking the free
        blocks in cursor order.  This is how the consistency point drains
        the dirty block map and inode file.

        ``data`` is a buffer, or a list of buffers whose join is the run —
        a block-map run comes as its slabs' pieces
        (:meth:`BlockMap.serialize_fblock_run`), which every extent write
        reads in place; a one-piece list is that piece.
        """
        if self.ctx.readonly:
            raise FilesystemError("write through a read-only tree")
        if isinstance(data, list) and len(data) == 1:
            data = data[0]
        nbytes = run_nbytes(data)
        if nbytes % BLOCK_SIZE:
            raise FilesystemError("unaligned run write")
        nblocks = nbytes // BLOCK_SIZE
        inplace_ok = self.ctx.allows_inplace
        if nblocks == 1:
            # One block is one stretch: nothing to walk or gather.
            vbn = self.get_pointer(fbn)
            if vbn and inplace_ok(vbn):
                self.ctx.volume.write_run(vbn, data, 0, 1)
            else:
                self.write_run(fbn, data, 0, 1)
            return
        # The walk is lazy — it reads an indirect block when it reaches
        # it, one block ahead of the stretch being gathered, as per-block
        # get_pointer calls would.
        walk = self._pointers(fbn, nblocks)
        ahead = next(walk, None)
        index = 0
        while index < nblocks:
            vbn = ahead
            inplace = bool(vbn) and inplace_ok(vbn)
            count = 1
            for ahead in walk:
                if inplace:
                    if ahead != vbn + count or not inplace_ok(ahead):
                        break
                elif ahead and inplace_ok(ahead):
                    break
                count += 1
            if inplace:
                self.ctx.volume.write_run(vbn, data, index * BLOCK_SIZE, count)
            else:
                self.write_run(fbn + index, data, index * BLOCK_SIZE, count)
            index += count

    def _segments(self, fbn: int, count: int, write: bool = False):
        """``(pointer list, first slot, slots)`` for each tree segment
        (direct array, indirect block) under ``count`` consecutive file
        blocks, resolved lazily in file order.  For ``write`` missing
        indirect blocks are created and each segment is marked dirty;
        otherwise a missing one reads as holes."""
        self._check_fbn(fbn)
        self._check_fbn(fbn + count - 1)
        end = fbn + count
        load = self._load if write else self._peek
        while fbn < end:
            if fbn < NDIRECT:
                ptrs, base, room = self.inode.direct, fbn, NDIRECT - fbn
                if write:
                    self.ctx.inode_dirty(self.inode)
            else:
                child, base = divmod(fbn - NDIRECT, PTRS_PER_BLOCK)
                room = PTRS_PER_BLOCK - base
                if child == 0:
                    block = load(("ind",), self.inode.indirect)
                else:
                    dptr = load(("dptr",), self.inode.dindirect)
                    block = dptr and load(("dind", child - 1),
                                          dptr.ptrs[child - 1])
                if write:
                    block.dirty = True
                ptrs = block.ptrs if block else _NO_PTRS
            take = min(end - fbn, room)
            yield ptrs, base, take
            fbn += take

    def _pointers(self, fbn: int, count: int) -> Iterator[int]:
        """The current pointers of ``count`` consecutive file blocks."""
        for ptrs, base, take in self._segments(fbn, count):
            yield from ptrs[base : base + take]

    def _replace_range(self, first_fbn: int, first_vbn: int,
                       count: int) -> List[int]:
        """Point ``count`` consecutive file blocks at consecutive volume
        blocks; returns the displaced (nonzero) old pointers in file order.

        Equivalent to per-block ``get_pointer``/``_set_pointer`` pairs,
        but resolves each tree segment once per overlapped range instead
        of re-walking the tree for every block.
        """
        old: List[int] = []
        vbn = first_vbn
        for ptrs, base, take in self._segments(first_fbn, count, write=True):
            for i in range(base, base + take):
                prev = ptrs[i]
                if prev:
                    old.append(prev)
                ptrs[i] = vbn
                vbn += 1
        return old

    def punch_hole(self, fbn: int) -> None:
        """Free one file block, leaving a hole."""
        if self.ctx.readonly:
            raise FilesystemError("write through a read-only tree")
        vbn = self.get_pointer(fbn)
        if vbn:
            self._set_pointer(fbn, 0)
            self.ctx.free_block(vbn)

    def truncate_blocks(self, keep_blocks: int) -> None:
        """Free every file block at or beyond ``keep_blocks``, in file order.

        Every indirect block is loaded first, in file order; then each
        segment reaching past ``keep_blocks`` loses its tail in one slice,
        and only a segment that lost a pointer is dirtied.
        """
        if self.ctx.readonly:
            raise FilesystemError("write through a read-only tree")
        doomed: List[int] = []
        for base, block in list(self._tree_segments()):
            ptrs = self.inode.direct if block is None else block.ptrs
            cut = max(keep_blocks - base, 0)
            lost = list(filter(None, ptrs[cut:]))
            if not lost:
                continue
            doomed += lost
            ptrs[cut:] = [0] * (len(ptrs) - cut)
            if block is None:
                self.ctx.inode_dirty(self.inode)
            else:
                block.dirty = True
        self.ctx.free_blocks(doomed)

    # -- enumeration ------------------------------------------------------------------

    def allocated_fblocks(self) -> Iterator[Tuple[int, int]]:
        """Yield ``(fbn, vbn)`` for every allocated file block, in file order."""
        for base, block in self._tree_segments():
            ptrs = self.inode.direct if block is None else block.ptrs
            for slot, vbn in enumerate(ptrs):
                if vbn:
                    yield base + slot, vbn

    def _tree_segments(self) -> Iterator[Tuple[int, Optional[_IndirectBlock]]]:
        """``(base_fbn, indirect block)`` per pointer segment in file order,
        each indirect block loaded when it is reached; the direct array
        is ``(0, None)``."""
        inode = self.inode
        yield 0, None
        if inode.indirect or ("ind",) in self._cache:
            yield NDIRECT, self._load(("ind",), inode.indirect)
        if inode.dindirect or ("dptr",) in self._cache:
            dptr = self._load(("dptr",), inode.dindirect)
            for child, child_vbn in enumerate(dptr.ptrs):
                if not child_vbn and ("dind", child) not in self._cache:
                    continue
                base = NDIRECT + PTRS_PER_BLOCK + child * PTRS_PER_BLOCK
                yield base, self._load(("dind", child), child_vbn)

    def _indirect_images(self) -> Tuple[Tuple[int, bytes], ...]:
        """``(vbn, bytes)`` of every indirect block of the on-disk tree —
        the single indirect, the double indirect, then its children in
        order — each read with ``volume.read_block``, as a fresh cursor
        loads them."""
        inode = self.inode
        images: List[Tuple[int, bytes]] = []
        read = self.ctx.volume.read_block
        if inode.indirect:
            images.append((inode.indirect, read(inode.indirect)))
        if inode.dindirect:
            dptr = read(inode.dindirect)
            images.append((inode.dindirect, dptr))
            for child_vbn in _PTR_STRUCT.unpack_from(dptr, 0):
                if child_vbn:
                    images.append((child_vbn, read(child_vbn)))
        return tuple(images)

    def extents(self) -> List[Tuple[int, int, int]]:
        """Physical extents in file order: ``(fbn, vbn, nblocks)`` runs.

        Consecutive file blocks whose volume blocks are also consecutive
        merge into one extent — the unit logical dump reads with.  The
        tree is the on-disk one, so the cursor must be fresh.

        The runs are memoized on the inode.  Every call still reads the
        indirect blocks (:meth:`_indirect_images`), and the memo holds
        while the direct array and each indirect block's number and
        bytes equal its own — an indirect block rewritten in place
        misses, and there is no invalidation hook to forget.  Callers
        must treat the list as read-only.
        """
        if self._cache:
            raise FilesystemError("extents of a cursor with loaded blocks")
        inode = self.inode
        direct = inode.direct
        images = self._indirect_images()
        memo = inode.extents_memo
        if memo is not None and memo[0] == direct and memo[1] == images:
            return memo[2]
        runs = _tree_runs(inode, images) if images else _direct_runs(direct)
        inode.extents_memo = (direct[:], images, runs)
        return runs

    def metadata_blocks(self) -> List[int]:
        """Volume blocks holding this tree's indirect blocks (for fsck)."""
        blocks: List[int] = []
        inode = self.inode
        if inode.indirect:
            blocks.append(inode.indirect)
        if inode.dindirect:
            blocks.append(inode.dindirect)
            dptr = self._load(("dptr",), inode.dindirect)
            blocks.extend(vbn for vbn in dptr.ptrs if vbn)
        return blocks

    def free_all(self) -> None:
        """Free every data and indirect block (file deletion)."""
        if self.ctx.readonly:
            raise FilesystemError("write through a read-only tree")
        doomed = [vbn for _fbn, vbn in self.allocated_fblocks()]
        doomed.extend(self.metadata_blocks())
        self.ctx.free_blocks(doomed)
        inode = self.inode
        inode.direct = [0] * NDIRECT
        inode.indirect = 0
        inode.dindirect = 0
        self._cache.clear()
        self.ctx.inode_dirty(inode)

    # -- flushing --------------------------------------------------------------------

    def flush(self) -> None:
        """Copy-on-write every dirty indirect block and fix up parents.

        Children flush before parents so a parent's pointer update lands in
        its own copied block.
        """
        if self.ctx.readonly:
            return
        # Double-indirect children first.
        for key in sorted(k for k in self._cache if k[0] == "dind"):
            self._flush_indirect(key)
        self._flush_indirect(("ind",))
        self._flush_indirect(("dptr",))

    def _flush_indirect(self, key: tuple) -> None:
        block = self._cache.get(key)
        if block is None or not block.dirty:
            return
        live_ptrs = any(block.ptrs)
        old_vbn = block.vbn
        if old_vbn and live_ptrs and self.ctx.allows_inplace(old_vbn):
            self.ctx.volume.write_block(old_vbn, _pack_ptrs(block.ptrs))
            block.dirty = False
            return
        if live_ptrs:
            new_vbn, count = self.ctx.alloc_run(1)
            assert count == 1
            self.ctx.volume.write_block(new_vbn, _pack_ptrs(block.ptrs))
        else:
            new_vbn = 0  # fully punched: drop the indirect block
        self._set_parent_pointer(key, new_vbn)
        if old_vbn:
            self.ctx.free_block(old_vbn)
        block.vbn = new_vbn
        block.dirty = False

    def _set_parent_pointer(self, key: tuple, vbn: int) -> None:
        if key == ("ind",):
            self.inode.indirect = vbn
            self.ctx.inode_dirty(self.inode)
        elif key == ("dptr",):
            self.inode.dindirect = vbn
            self.ctx.inode_dirty(self.inode)
        elif key[0] == "dind":
            dptr = self._load(("dptr",), self.inode.dindirect)
            dptr.ptrs[key[1]] = vbn
            dptr.dirty = True
        else:
            raise AssertionError(key)


__all__ = ["BlockTree", "TreeContext"]
