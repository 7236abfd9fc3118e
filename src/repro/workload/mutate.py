"""Inter-backup mutation traces.

Between a full dump and its incrementals the experiments need a realistic
day of activity: some files modified, some deleted, some created, some
renamed.  ``apply_mutations`` produces exactly that, deterministically,
and reports what it did so tests can assert the incremental picked up
precisely the change set.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.errors import NoSpaceError, ReproError
from repro.workload.distributions import FileSizeDistribution, deterministic_bytes
from repro.workload.generator import GeneratedTree


class MutationConfig:
    def __init__(
        self,
        modify_fraction: float = 0.08,
        delete_fraction: float = 0.02,
        create_fraction: float = 0.05,
        rename_fraction: float = 0.01,
        seed: int = 7,
    ):
        self.modify_fraction = modify_fraction
        self.delete_fraction = delete_fraction
        self.create_fraction = create_fraction
        self.rename_fraction = rename_fraction
        self.seed = seed


def apply_mutations(fs, tree: GeneratedTree, config: MutationConfig = None,
                    sizes: FileSizeDistribution = None,
                    checkpoint: bool = True) -> Dict[str, List[str]]:
    """Mutate; returns {modified, deleted, created, renamed} path lists.

    ``checkpoint=False`` leaves the mutations uncommitted (no trailing
    consistency point), so the NVRAM log still holds the day's operations
    — the window chaos campaigns crash into.
    """
    config = config or MutationConfig()
    sizes = sizes or FileSizeDistribution()
    rng = random.Random(config.seed)
    seed = config.seed * 104729
    report: Dict[str, List[str]] = {
        "modified": [], "deleted": [], "created": [], "renamed": [],
    }
    nfiles = len(tree.files)

    # Deletions (sampled without replacement).
    for _ in range(int(nfiles * config.delete_fraction)):
        if not tree.files:
            break
        index = rng.randrange(len(tree.files))
        path = tree.files.pop(index)
        try:
            fs.unlink(path)
            report["deleted"].append(path)
        except ReproError:
            continue

    # Modifications.
    for _ in range(int(nfiles * config.modify_fraction)):
        if not tree.files:
            break
        path = rng.choice(tree.files)
        seed += 1
        try:
            inode = fs.inode(fs.namei(path))
            span = sizes.sample(rng) or 1
            fs.write_file(path, deterministic_bytes(seed, span),
                          rng.randrange(max(1, inode.size + 1)))
            report["modified"].append(path)
        except NoSpaceError:
            break
        except ReproError:
            continue

    # Renames (within the same directory, new suffix).
    for _ in range(int(nfiles * config.rename_fraction)):
        if not tree.files:
            break
        index = rng.randrange(len(tree.files))
        path = tree.files[index]
        new_path = path + ".mv"
        try:
            fs.rename(path, new_path)
            tree.files[index] = new_path
            report["renamed"].append(new_path)
        except ReproError:
            continue

    # Creations.
    for _ in range(int(nfiles * config.create_fraction)):
        seed += 1
        if tree.directories:
            base = rng.choice(tree.directories)
        else:
            base = "/"
        path = "%s/new%d" % (base.rstrip("/"), seed)
        try:
            fs.create(path, deterministic_bytes(seed, sizes.sample(rng)))
            tree.files.append(path)
            report["created"].append(path)
        except NoSpaceError:
            break
        except ReproError:
            continue

    if checkpoint:
        fs.consistency_point()
    return report


__all__ = ["MutationConfig", "apply_mutations"]
