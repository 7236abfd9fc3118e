"""Build a synthetic file tree inside a WAFL file system.

The generator fills a volume toward a byte target, creating a nested
project-style tree with the configured mix of regular files, symlinks,
hard links, sparse files, and NetApp attributes (ACLs, DOS names) so the
backup paths all see realistic input.  Generation is fully deterministic
given a seed.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.errors import NoSpaceError, WorkloadError
from repro.workload.distributions import (
    FileSizeDistribution,
    TreeShape,
    deterministic_bytes,
)

_DIR_WORDS = [
    "src", "lib", "kernel", "tools", "tests", "doc", "build", "drivers",
    "include", "net", "fs", "raid", "proto", "scripts", "vendor", "arch",
]
_FILE_WORDS = [
    "main", "util", "core", "config", "notes", "readme", "data", "index",
    "module", "driver", "patch", "report", "image", "log", "bench",
]
_EXTENSIONS = ["c", "h", "o", "txt", "mk", "pl", "tar", "out", "dat", ""]


class GeneratedTree:
    """What the generator built (for verification and mutation)."""

    def __init__(self):
        self.files: List[str] = []
        self.directories: List[str] = []
        self.symlinks: List[str] = []
        self.hardlinks: List[Tuple[str, str]] = []
        self.total_bytes = 0

    def to_json(self) -> Dict:
        """The JSON form container headers carry (bench env, fleet tenant)."""
        return dict(vars(self))

    @classmethod
    def from_json(cls, data: Dict) -> "GeneratedTree":
        tree = cls()
        for name in vars(tree):
            setattr(tree, name, data[name])
        tree.hardlinks = [tuple(pair) for pair in tree.hardlinks]
        return tree

    def __repr__(self) -> str:
        return "<GeneratedTree files=%d dirs=%d bytes=%d>" % (
            len(self.files), len(self.directories), self.total_bytes,
        )


class WorkloadGenerator:
    """Deterministic tree builder."""

    def __init__(
        self,
        sizes: Optional[FileSizeDistribution] = None,
        shape: Optional[TreeShape] = None,
        seed: int = 42,
        cp_every_bytes: int = 16 * 1024 * 1024,
    ):
        self.sizes = sizes or FileSizeDistribution()
        self.shape = shape or TreeShape()
        self.seed = seed
        self.cp_every_bytes = cp_every_bytes

    def _name(self, rng: random.Random, words, used) -> str:
        while True:
            word = rng.choice(words)
            ext = rng.choice(_EXTENSIONS)
            name = "%s%d%s%s" % (word, rng.randrange(10000),
                                 "." if ext else "", ext)
            if name not in used:
                used.add(name)
                return name

    def populate(self, fs, target_bytes: int, root: str = "/") -> GeneratedTree:
        """Fill ``fs`` under ``root`` with ~``target_bytes`` of file data."""
        if target_bytes <= 0:
            raise WorkloadError("target size must be positive")
        rng = random.Random(self.seed)
        tree = GeneratedTree()
        shape = self.shape
        # Directory frontier: (path, depth, used-names).
        root = root.rstrip("/") or "/"
        frontier: List[Tuple[str, int, set]] = [(root, 0, set())]
        since_cp = 0
        file_seed = self.seed * 1000003

        while tree.total_bytes < target_bytes:
            # Pick a directory to extend, favouring deeper ones mildly.
            dir_path, depth, used = frontier[rng.randrange(len(frontier))]
            # Maybe create a subdirectory.
            if (depth < shape.max_depth
                    and rng.random() < 1.0 / (1.0 + shape.files_per_dir_mean
                                              / shape.subdirs_per_dir_mean)):
                name = self._name(rng, _DIR_WORDS, used)
                path = self._join(dir_path, name)
                fs.mkdir(path)
                tree.directories.append(path)
                frontier.append((path, depth + 1, set()))
                continue

            roll = rng.random()
            name = self._name(rng, _FILE_WORDS, used)
            path = self._join(dir_path, name)

            if roll < shape.symlink_fraction and tree.files:
                fs.symlink(path, rng.choice(tree.files))
                tree.symlinks.append(path)
                continue
            if roll < shape.symlink_fraction + shape.hardlink_fraction and tree.files:
                target = rng.choice(tree.files)
                try:
                    fs.link(target, path)
                except Exception:
                    continue
                tree.hardlinks.append((target, path))
                continue

            size = self.sizes.sample(rng)
            file_seed += 1
            data = deterministic_bytes(file_seed, size)
            try:
                fs.create(path, data,
                          perms=rng.choice([0o644, 0o600, 0o755]),
                          uid=rng.randrange(1, 500),
                          gid=rng.randrange(1, 50))
            except NoSpaceError:
                break
            tree.files.append(path)
            tree.total_bytes += size
            since_cp += size

            if rng.random() < shape.sparse_fraction and size > 0:
                # Punch a tail hole by rewriting far beyond the end.
                fs.write_file(path, b"tail", size + 256 * 1024)
                tree.total_bytes += 4

            if rng.random() < shape.acl_fraction:
                fs.set_acl(path, deterministic_bytes(file_seed + 7, 64))
            if rng.random() < shape.dos_attr_fraction:
                fs.set_attrs(path, dos_name=b"DOSNAME8.3"[:12],
                             dos_bits=rng.randrange(1, 64),
                             dos_time=rng.randrange(1, 1 << 30))

            if since_cp >= self.cp_every_bytes:
                fs.consistency_point()
                since_cp = 0

        fs.consistency_point()
        return tree

    def populate_many(self, fs, roots: List[str],
                      bytes_per_root: int) -> List[GeneratedTree]:
        """Populate several subtrees round-robin, interleaving allocation.

        Used for the qtree split: real qtrees grow together over months,
        so each one's blocks spread over every RAID group.  Sequentially
        populating them would cluster each qtree into one region of the
        volume and distort the parallel-dump experiments.
        """
        slice_bytes = max(256 * 1024, bytes_per_root // 64)
        trees = [GeneratedTree() for _ in roots]
        rngs = [random.Random(self.seed + i * 7919) for i in range(len(roots))]
        frontiers = [[(root.rstrip("/") or "/", 0, set())] for root in roots]
        seeds = [self.seed * 1000003 + i * 500009 for i in range(len(roots))]
        active = list(range(len(roots)))
        planned: List[Tuple[int, str, int, int]] = []  # (tree, path, seed, size)
        while active:
            for index in list(active):
                if trees[index].total_bytes >= bytes_per_root:
                    active.remove(index)
                    continue
                target = min(bytes_per_root,
                             trees[index].total_bytes + slice_bytes)
                seeds[index], grown = self._grow(
                    fs, trees[index], rngs[index], frontiers[index],
                    seeds[index], target, planned=planned, tree_index=index,
                )
                if not grown:
                    active.remove(index)
        # Second phase: fill contents in *shuffled* order.  Years of
        # independent growth leave inode numbers uncorrelated with
        # physical placement; writing in creation order would instead make
        # every parallel inode-order dump sweep the disks in lockstep.
        shuffle_rng = random.Random(self.seed ^ 0x5EED)
        shuffle_rng.shuffle(planned)
        since_cp = 0
        for tree_index, path, file_seed, size in planned:
            if size:
                try:
                    fs.write_file(path, deterministic_bytes(file_seed, size), 0)
                except NoSpaceError:
                    # Reclaim the deferred-free window and retry once.
                    fs.consistency_point()
                    try:
                        fs.write_file(path, deterministic_bytes(file_seed, size), 0)
                    except NoSpaceError:
                        fs.unlink(path)
                        trees[tree_index].files.remove(path)
                        continue
            since_cp += size
            if since_cp >= self.cp_every_bytes:
                fs.consistency_point()
                since_cp = 0
        fs.consistency_point()
        return trees

    def _grow(self, fs, tree: GeneratedTree, rng: random.Random,
              frontier: List[Tuple[str, int, set]], file_seed: int,
              target_bytes: int, planned: List[Tuple[int, str, int, int]],
              tree_index: int) -> Tuple[int, int]:
        """Plan content until ``tree.total_bytes`` reaches ``target_bytes``.

        Creates the namespace immediately; data writes are deferred into
        ``planned`` (filled later in shuffled order).  Returns the updated
        seed and the bytes planned (0 = out of space).
        """
        shape = self.shape
        grown = 0
        while tree.total_bytes < target_bytes:
            dir_path, depth, used = frontier[rng.randrange(len(frontier))]
            if (depth < shape.max_depth
                    and rng.random() < 1.0 / (1.0 + shape.files_per_dir_mean
                                              / shape.subdirs_per_dir_mean)):
                name = self._name(rng, _DIR_WORDS, used)
                path = self._join(dir_path, name)
                fs.mkdir(path)
                tree.directories.append(path)
                frontier.append((path, depth + 1, set()))
                continue
            name = self._name(rng, _FILE_WORDS, used)
            path = self._join(dir_path, name)
            size = self.sizes.sample(rng)
            file_seed += 1
            try:
                fs.create(path, b"",
                          perms=rng.choice([0o644, 0o600, 0o755]),
                          uid=rng.randrange(1, 500),
                          gid=rng.randrange(1, 50))
            except NoSpaceError:
                return file_seed, 0
            planned.append((tree_index, path, file_seed, size))
            tree.files.append(path)
            tree.total_bytes += size
            grown += size
        return file_seed, max(grown, 1)

    @staticmethod
    def _join(base: str, name: str) -> str:
        if base.endswith("/"):
            return base + name
        return "%s/%s" % (base, name)


__all__ = ["GeneratedTree", "WorkloadGenerator"]
