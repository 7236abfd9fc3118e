"""Verification: did the restore actually reproduce the source?

``verify_trees`` walks two file systems (or snapshot views) and compares
names, types, data, link structure, holes-as-zeros semantics, Unix
attributes, and the NetApp extensions.  ``verify_volumes`` compares two
volumes block-for-block over a block set (physical restore's stronger
guarantee).  Both return a list of human-readable differences (empty =
identical) rather than raising, so tests can assert precisely.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

# File data is compared this many bytes at a time, each side copied to
# ``bytes`` first: a ``memoryview``'s ``==`` compares item by item.
_PIECE = 256 * 1024


def _pieces(buffers: list):
    for buffer in buffers:
        view = memoryview(buffer)
        for at in range(0, len(view), _PIECE):
            yield view[at : at + _PIECE]


def same_bytes(ours: list, theirs: list) -> bool:
    """Whether two lists of buffers hold the same bytes: compared a
    bounded piece at a time, with neither list joined."""
    ours, theirs = _pieces(ours), _pieces(theirs)
    mine = other = None
    while True:
        if not mine:
            mine = next(ours, None)
        if not other:
            other = next(theirs, None)
        if mine is None or other is None:
            return mine is None and other is None
        size = min(len(mine), len(other))
        if mine[:size].tobytes() != other[:size].tobytes():
            return False
        mine, other = mine[size:], other[size:]


def _index_tree(fs, root: str):
    """Map path-relative-to-root -> inode: metadata only, no contents."""
    prefix = root.rstrip("/")
    return {path[len(prefix):] or "/": inode for path, inode in fs.walk(root)}


def diff_object(rel, s, t, source_tree, target_tree, check_attrs=True,
                check_mtime=True) -> List[str]:
    """Differences between one object of each tree (empty = identical).

    ``s`` and ``t`` are inodes, or carry their fields; each tree answers
    ``read_buffers_by_ino``, ``read_by_ino`` and ``get_acl_by_ino`` for
    its own.  A regular file compares size, data (:func:`same_bytes`
    over the buffers that hold it, never a whole-file join) and nlink; a
    symlink its target; every object its permissions, owner, DOS
    fields, ACL and (``check_mtime``) mtime.
    """
    if s.type != t.type:
        return ["%s: type %d != %d" % (rel, s.type, t.type)]
    problems: List[str] = []
    if s.is_regular:
        if s.size != t.size:
            problems.append("%s: size %d != %d" % (rel, s.size, t.size))
        elif not same_bytes(source_tree.read_buffers_by_ino(s.ino),
                            target_tree.read_buffers_by_ino(t.ino)):
            problems.append("%s: data differs" % rel)
        if s.nlink != t.nlink:
            problems.append("%s: nlink %d != %d" % (rel, s.nlink, t.nlink))
    elif s.is_symlink:
        s_link = source_tree.read_by_ino(s.ino).decode("utf-8")
        t_link = target_tree.read_by_ino(t.ino).decode("utf-8")
        if s_link != t_link:
            problems.append("%s: symlink %r != %r" % (rel, s_link, t_link))
    if check_attrs:
        pairs = [(field, getattr(s, field), getattr(t, field))
                 for field in ("perms", "uid", "gid", "dos_name", "dos_bits")]
        pairs.append(("acl", source_tree.get_acl_by_ino(s.ino),
                      target_tree.get_acl_by_ino(t.ino)))
        for field, ours, theirs in pairs:
            if ours != theirs:
                problems.append("%s: %s %r != %r" % (rel, field, ours, theirs))
        if check_mtime and s.mtime != t.mtime:
            problems.append("%s: mtime %d != %d" % (rel, s.mtime, t.mtime))
    return problems


def verify_trees(
    source_fs,
    target_fs,
    source_root: str = "/",
    target_root: str = "/",
    check_attrs: bool = True,
    check_mtime: bool = True,
    ignore: Optional[Iterable[str]] = None,
) -> List[str]:
    """Differences between two trees (empty list = identical).

    Both trees are indexed by metadata alone; file contents are read and
    compared one path at a time, so the check holds one pair of files,
    never a tree.
    """
    problems: List[str] = []
    ignored: Set[str] = set(ignore or [])
    source = _index_tree(source_fs, source_root)
    target = _index_tree(target_fs, target_root)

    # Hard-link structure: group paths by source inode and compare the
    # grouping (target inode numbers will differ; the partition must not).
    def link_groups(index):
        groups = {}
        for rel, inode in index.items():
            if inode.is_regular:
                groups.setdefault(inode.ino, set()).add(rel)
        return {frozenset(paths) for paths in groups.values() if len(paths) > 1}

    for rel in sorted(set(source) - set(target) - ignored):
        problems.append("missing in target: %s" % rel)
    for rel in sorted(set(target) - set(source) - ignored):
        problems.append("extra in target: %s" % rel)
    for rel in sorted(set(source) & set(target) - ignored):
        problems += diff_object(rel, source[rel], target[rel], source_fs,
                                target_fs, check_attrs, check_mtime)
    if link_groups(source) != link_groups(target):
        problems.append("hard-link structure differs")
    return problems


_MAX_BLOCK_PROBLEMS = 20


def diff_blocks(problems: List[str], pairs) -> bool:
    """Report each ``(block, ours, theirs)`` that differs into
    ``problems``; True when they reach 20 and the comparison stopped."""
    for block, ours, theirs in pairs:
        if ours != theirs:
            problems.append("block %d differs" % block)
            if len(problems) >= _MAX_BLOCK_PROBLEMS:
                problems.append("... (stopping after %d)" % _MAX_BLOCK_PROBLEMS)
                return True
    return False


def verify_volumes(source_volume, target_volume, blocks: Iterable[int]) -> List[str]:
    """Block-for-block comparison over ``blocks``."""
    problems: List[str] = []
    diff_blocks(problems, ((block, source_volume.read_block(int(block)),
                            target_volume.read_block(int(block)))
                           for block in blocks))
    return problems


__all__ = ["diff_blocks", "diff_object", "same_bytes", "verify_trees",
           "verify_volumes"]
