"""Aging: make a young file system look like a mature one.

The paper: "A mature data set is typically slower to backup than a newly
created one because of fragmentation: the blocks of a newly created file
are less likely to be contiguously allocated in a mature file system
where the free space is scattered throughout the disks."

Aging runs rounds of delete / overwrite / append / create churn.  Because
the write-anywhere allocator always relocates, each round scatters a bit
more of the free space; files written later land in shattered extents.
``fragmentation_report`` quantifies the result (mean extent length, the
number a logical dump's disk reads will actually see).
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.errors import NoSpaceError, ReproError
from repro.wafl.consts import BLOCK_SIZE
from repro.workload.distributions import FileSizeDistribution, deterministic_bytes
from repro.workload.generator import GeneratedTree


class AgingConfig:
    """How much churn to apply."""

    def __init__(
        self,
        rounds: int = 4,
        churn_fraction: float = 0.25,
        delete_weight: float = 0.45,
        overwrite_weight: float = 0.30,
        append_weight: float = 0.25,
        cp_every_ops: int = 80,
        seed: int = 1999,
    ):
        self.rounds = rounds
        self.churn_fraction = churn_fraction
        self.delete_weight = delete_weight
        self.overwrite_weight = overwrite_weight
        self.append_weight = append_weight
        self.cp_every_ops = cp_every_ops
        self.seed = seed


def age_filesystem(fs, tree: GeneratedTree, config: AgingConfig = None,
                   sizes: FileSizeDistribution = None) -> Dict[str, int]:
    """Churn the file system in place; ``tree`` is updated to match."""
    config = config or AgingConfig()
    sizes = sizes or FileSizeDistribution()
    rng = random.Random(config.seed)
    stats = {"deleted": 0, "overwritten": 0, "appended": 0, "created": 0}
    seed = config.seed * 7919
    ops_since_cp = 0

    def low_on_space() -> bool:
        # Keep a WAFL-style reserve: copy-on-write needs headroom, and
        # blocks freed mid-window only return at the next CP.
        stats_fs = fs.statfs()
        return stats_fs["free_blocks"] < 0.18 * stats_fs["total_blocks"]

    for _round in range(config.rounds):
        victims = max(1, int(len(tree.files) * config.churn_fraction))
        for _ in range(victims):
            if not tree.files:
                break
            if low_on_space():
                # Deletes only until the next consistency point reclaims.
                index = rng.randrange(len(tree.files))
                path = tree.files.pop(index)
                try:
                    fs.unlink(path)
                    stats["deleted"] += 1
                except ReproError:
                    pass
                fs.consistency_point()
                ops_since_cp = 0
                continue
            roll = rng.random()
            total = (config.delete_weight + config.overwrite_weight
                     + config.append_weight)
            roll *= total
            index = rng.randrange(len(tree.files))
            path = tree.files[index]
            seed += 1
            try:
                if roll < config.delete_weight:
                    # Delete now, replace later: the replacement lands in
                    # whatever scattered space is free by then.
                    fs.unlink(path)
                    tree.files.pop(index)
                    stats["deleted"] += 1
                    size = sizes.sample(rng)
                    new_path = path + ".r%d" % seed
                    fs.create(new_path, deterministic_bytes(seed, size))
                    tree.files.append(new_path)
                    stats["created"] += 1
                elif roll < config.delete_weight + config.overwrite_weight:
                    inode = fs.inode(fs.namei(path))
                    if inode.size:
                        # Partial overwrite relocates the touched blocks.
                        span = max(BLOCK_SIZE,
                                   int(inode.size * rng.uniform(0.1, 0.6)))
                        offset = rng.randrange(
                            max(1, inode.size - span + 1)
                        )
                        fs.write_file(
                            path, deterministic_bytes(seed, span), offset
                        )
                    stats["overwritten"] += 1
                else:
                    grow = rng.randrange(1, 8 * BLOCK_SIZE)
                    inode = fs.inode(fs.namei(path))
                    fs.write_file(path, deterministic_bytes(seed, grow),
                                  inode.size)
                    stats["appended"] += 1
            except NoSpaceError:
                # Aging pressure hit the ceiling; delete-only from here.
                try:
                    fs.unlink(path)
                    tree.files.pop(index)
                    stats["deleted"] += 1
                except ReproError:
                    pass
            ops_since_cp += 1
            if ops_since_cp >= config.cp_every_ops:
                fs.consistency_point()
                ops_since_cp = 0
        fs.consistency_point()
    return stats


def fragmentation_report(fs, sample: int = 0) -> Dict[str, float]:
    """Extent statistics over every regular file (or a sample)."""
    extent_lengths: List[int] = []
    files = 0
    blocks = 0
    for inode in fs.iter_used_inodes():
        if not inode.is_regular:
            continue
        files += 1
        for _fbn, _vbn, count in fs.file_extents(inode.ino):
            extent_lengths.append(count)
            blocks += count
        if sample and files >= sample:
            break
    if not extent_lengths:
        return {"files": 0, "blocks": 0, "extents": 0,
                "mean_extent_blocks": 0.0, "blocks_per_seek": 0.0,
                "extents_per_file": 0.0}
    return {
        "files": files,
        "blocks": blocks,
        "extents": len(extent_lengths),
        "mean_extent_blocks": blocks / len(extent_lengths),
        "blocks_per_seek": blocks / len(extent_lengths),
        "extents_per_file": len(extent_lengths) / files,
    }


__all__ = ["AgingConfig", "age_filesystem", "fragmentation_report"]
