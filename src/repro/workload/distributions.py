"""File-size and tree-shape distributions.

File sizes follow a log-normal body with a Pareto tail, the shape
repeatedly measured for engineering file systems of the late-90s era
(most files are a few KB; a small number of large build artifacts and
tar/image files carry most of the bytes).  Parameters are chosen so a
generated volume's byte-weighted profile is dominated by multi-megabyte
files while the file count is dominated by small sources — matching the
kind of data on the paper's ``home`` and ``rlse`` volumes.
"""

from __future__ import annotations

import random

from repro.errors import WorkloadError
from repro.units import KB, MB


class FileSizeDistribution:
    """Log-normal body + Pareto tail file-size sampler."""

    def __init__(
        self,
        median_bytes: float = 8 * KB,
        sigma: float = 1.8,
        tail_probability: float = 0.02,
        tail_min: float = 1 * MB,
        tail_alpha: float = 1.3,
        max_bytes: int = 64 * MB,
    ):
        if not 0 <= tail_probability < 1:
            raise WorkloadError("tail probability must be in [0, 1)")
        self.median_bytes = median_bytes
        self.sigma = sigma
        self.tail_probability = tail_probability
        self.tail_min = tail_min
        self.tail_alpha = tail_alpha
        self.max_bytes = max_bytes

    def sample(self, rng: random.Random) -> int:
        if rng.random() < self.tail_probability:
            # Pareto tail: large build outputs, archives, images.
            size = self.tail_min * (rng.paretovariate(self.tail_alpha))
        else:
            size = rng.lognormvariate(0.0, self.sigma) * self.median_bytes
        return max(0, min(int(size), self.max_bytes))


class TreeShape:
    """Directory-shape parameters for the generator."""

    def __init__(
        self,
        files_per_dir_mean: float = 12.0,
        subdirs_per_dir_mean: float = 2.6,
        max_depth: int = 6,
        symlink_fraction: float = 0.01,
        hardlink_fraction: float = 0.005,
        acl_fraction: float = 0.02,
        dos_attr_fraction: float = 0.05,
        sparse_fraction: float = 0.003,
    ):
        self.files_per_dir_mean = files_per_dir_mean
        self.subdirs_per_dir_mean = subdirs_per_dir_mean
        self.max_depth = max_depth
        self.symlink_fraction = symlink_fraction
        self.hardlink_fraction = hardlink_fraction
        self.acl_fraction = acl_fraction
        self.dos_attr_fraction = dos_attr_fraction
        self.sparse_fraction = sparse_fraction


# The repeating unit depends only on ``seed % 251``, so there are at most
# 251 distinct patterns — memoized, generation is a dict hit plus one
# C-level bytes repeat instead of a 251-iteration Python loop per file.
_UNIT_CACHE: dict = {}


def deterministic_bytes(seed: int, length: int) -> bytes:
    """Reproducible, mildly compressible file contents.

    A repeating 251-byte pattern keyed by ``seed`` — cheap to generate at
    volume scale, unique per file, and trivially verifiable.
    """
    if length <= 0:
        return b""
    key = seed % 251
    unit = _UNIT_CACHE.get(key)
    if unit is None:
        unit = bytes((key + i * 7) % 251 for i in range(251))
        _UNIT_CACHE[key] = unit
    reps = length // len(unit) + 1
    return (unit * reps)[:length]


__all__ = ["FileSizeDistribution", "TreeShape", "deterministic_bytes"]
