"""File-system invariant checking.

WAFL never *needs* an fsck at boot (the consistency point is always
intact), but a checker is invaluable for a reproduction: every integration
test ends by asserting that the active tree, the block-map planes, link
counts, and directory structure all agree.  ``fsck`` inspects an active
file system; ``fsck_snapshot`` validates that a snapshot's reachable
blocks are all pinned by its bit plane.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.errors import FilesystemError
from repro.wafl.blockmap import BlockMap
from repro.wafl.blocktree import BlockTree
from repro.wafl.consts import ACTIVE_PLANE, BLOCK_SIZE, INO_BLOCKMAP, ROOT_INO
from repro.wafl.inode import FileType


class FsckReport:
    """Findings of one check run."""

    def __init__(self):
        self.errors: List[str] = []
        self.warnings: List[str] = []
        self.blocks_checked = 0
        self.inodes_checked = 0

    @property
    def clean(self) -> bool:
        return not self.errors

    def error(self, message: str) -> None:
        self.errors.append(message)

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    def __repr__(self) -> str:
        return "<FsckReport %s: %d errors, %d warnings>" % (
            "clean" if self.clean else "DIRTY",
            len(self.errors),
            len(self.warnings),
        )


def _claim(report: FsckReport, claimed: Dict[int, str], vbn: int, owner: str) -> None:
    previous = claimed.get(vbn)
    if previous is not None:
        report.error("block %d cross-linked: %s and %s" % (vbn, previous, owner))
    else:
        claimed[vbn] = owner


def _collect_tree(report, claimed, ctx, inode, owner: str) -> None:
    tree = BlockTree(ctx, inode)
    highest = -1
    for fbn, vbn in tree.allocated_fblocks():
        _claim(report, claimed, vbn, "%s[fbn=%d]" % (owner, fbn))
        highest = max(highest, fbn)
    for vbn in tree.metadata_blocks():
        _claim(report, claimed, vbn, "%s[indirect]" % owner)
    if inode.acl_block:
        _claim(report, claimed, inode.acl_block, "%s[acl]" % owner)
    if highest >= 0 and inode.size <= highest * BLOCK_SIZE:
        report.error(
            "%s: size %d but blocks allocated through fbn %d"
            % (owner, inode.size, highest)
        )


def fsck(fs, check_parity: bool = False) -> FsckReport:
    """Check the active file system's structural invariants.

    Runs a consistency point first so that the deferred-free window is
    empty and the in-memory block map matches the committed tree.
    """
    report = FsckReport()
    fs.consistency_point()
    claimed: Dict[int, str] = {}

    # 1. The inode file's own blocks.
    _collect_tree(report, claimed, fs, fs.fsinfo.inofile_inode, "inofile")

    # 2. Every used inode's blocks, plus link-count accounting.
    link_counts: Dict[int, int] = {}
    subdir_counts: Dict[int, int] = {ROOT_INO: 0}
    parent_of: Dict[int, int] = {}
    used: Set[int] = set()
    for inode in fs.iter_used_inodes():
        used.add(inode.ino)
        report.inodes_checked += 1
        owner = "ino%d" % inode.ino
        _collect_tree(report, claimed, fs, inode, owner)
        if inode.type not in (FileType.REGULAR, FileType.DIRECTORY, FileType.SYMLINK):
            report.error("%s: unknown type %d" % (owner, inode.type))
    bm_inode = fs._load_inode(INO_BLOCKMAP)
    _collect_tree(report, claimed, fs, bm_inode, "blockmap-file")

    # 3. Directory structure: entries point at live inodes; '.' and '..'
    #    are sane; link counts add up; every inode is reachable.
    reachable: Set[int] = set()
    stack = [ROOT_INO]
    while stack:
        dir_ino = stack.pop()
        if dir_ino in reachable:
            report.error("directory cycle through inode %d" % dir_ino)
            continue
        reachable.add(dir_ino)
        try:
            directory = fs._read_directory(fs.inode(dir_ino))
        except FilesystemError as exc:
            report.error("unreadable directory %d: %s" % (dir_ino, exc))
            continue
        dot = directory.lookup(".")
        dotdot = directory.lookup("..")
        if dot != dir_ino:
            report.error("directory %d: '.' points at %s" % (dir_ino, dot))
        if dir_ino != ROOT_INO and dotdot != parent_of.get(dir_ino):
            report.error(
                "directory %d: '..' points at %s, parent is %s"
                % (dir_ino, dotdot, parent_of.get(dir_ino))
            )
        if dir_ino == ROOT_INO and dotdot != ROOT_INO:
            report.error("root directory: '..' is %s" % dotdot)
        for name, child_ino in directory.children():
            if child_ino not in used:
                report.error(
                    "directory %d entry %r points at free inode %d"
                    % (dir_ino, name, child_ino)
                )
                continue
            child = fs.inode(child_ino)
            if child.is_dir:
                subdir_counts[dir_ino] = subdir_counts.get(dir_ino, 0) + 1
                parent_of[child_ino] = dir_ino
                stack.append(child_ino)
            else:
                link_counts[child_ino] = link_counts.get(child_ino, 0) + 1
                reachable.add(child_ino)

    for ino in used - reachable:
        report.error("inode %d is used but unreachable from the root" % ino)

    for inode in fs.iter_used_inodes():
        if inode.is_dir:
            expected = 2 + subdir_counts.get(inode.ino, 0)
        else:
            expected = link_counts.get(inode.ino, 0)
        if inode.nlink != expected:
            report.error(
                "inode %d: nlink %d but %d references found"
                % (inode.ino, inode.nlink, expected)
            )

    # 4. Block map agreement: every claimed block carries the active bit;
    #    every active bit is claimed by exactly one owner (no leaks).
    blockmap: BlockMap = fs.blockmap
    for vbn in claimed:
        if not int(blockmap.words[vbn]) & (1 << ACTIVE_PLANE):
            report.error("block %d is referenced but not marked active" % vbn)
    active = set(int(b) for b in blockmap.plane_blocks(ACTIVE_PLANE))
    leaked = active - set(claimed)
    if leaked:
        report.error(
            "%d active blocks are unreferenced (e.g. %s)"
            % (len(leaked), sorted(leaked)[:5])
        )
    report.blocks_checked = len(claimed)

    # 5. Optional: RAID parity audit underneath everything.
    if check_parity and not fs.volume.verify_parity():
        report.error("RAID parity mismatch")

    return report


def fsck_snapshot(fs, name: str) -> FsckReport:
    """Validate that a snapshot's reachable blocks are pinned by its plane."""
    report = FsckReport()
    record = fs.fsinfo.find_snapshot(name)
    if record is None:
        report.error("no snapshot named %r" % name)
        return report
    view = fs.snapshot_view(name)
    claimed: Dict[int, str] = {}
    _collect_tree(report, claimed, view._ctx, record.inofile_inode, "snap-inofile")
    for inode in view.iter_used_inodes():
        report.inodes_checked += 1
        _collect_tree(report, claimed, view._ctx, inode, "snap-ino%d" % inode.ino)
    bm_inode = view._load_inode(INO_BLOCKMAP)
    if not bm_inode.is_free:
        _collect_tree(report, claimed, view._ctx, bm_inode, "snap-blockmap")
    plane_mask = 1 << record.snap_id
    for vbn in claimed:
        if not int(fs.blockmap.words[vbn]) & plane_mask:
            report.error(
                "snapshot %r references block %d outside its plane" % (name, vbn)
            )
    report.blocks_checked = len(claimed)
    return report


__all__ = ["FsckReport", "fsck", "fsck_snapshot"]
