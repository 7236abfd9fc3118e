"""Dump-level schedules: which level to run on which simulated day.

The paper's incremental scheme "begins at level 0 and extends to level
9"; production regimes pick the level sequence.  Two classics:

* :class:`GFS` (grandfather-father-son) — a full every cycle, a level-1
  at each week boundary, level-2 daily in between.
* :class:`TowerOfHanoi` — the ruler sequence: each level's dumps
  interleave so that any day restores through a short chain while deep
  levels reuse few tapes.
"""

from __future__ import annotations

import re

from repro.errors import CatalogError


class Schedule:
    """Maps a simulated day number to a dump level."""

    def level_for(self, day: int) -> int:
        raise NotImplementedError


class GFS(Schedule):
    """Grandfather-father-son.

    Day 0 of each ``days_per_week * weeks_per_cycle`` cycle is a full
    (level 0, the grandfather); each week boundary inside the cycle runs
    level 1 (father); every other day runs level 2 (son).
    """

    def __init__(self, days_per_week: int = 7, weeks_per_cycle: int = 4):
        if days_per_week < 1 or weeks_per_cycle < 1:
            raise CatalogError("GFS needs positive week and cycle lengths")
        self.days_per_week = days_per_week
        self.weeks_per_cycle = weeks_per_cycle

    @property
    def cycle(self) -> int:
        return self.days_per_week * self.weeks_per_cycle

    def level_for(self, day: int) -> int:
        if day % self.cycle == 0:
            return 0
        if day % self.days_per_week == 0:
            return 1
        return 2

    def __repr__(self) -> str:
        return "GFS(%dx%d)" % (self.days_per_week, self.weeks_per_cycle)


class TowerOfHanoi(Schedule):
    """The ruler sequence over ``levels`` incremental levels.

    With ``levels=3`` the period is 8 days: 0 3 2 3 1 3 2 3, repeating.
    Day d (d not a multiple of the period) runs level ``levels - tz(d)``
    where tz is the number of trailing zero bits — the most frequent
    dumps sit at the deepest level, and every day's restore chain stays
    short.
    """

    def __init__(self, levels: int = 3):
        if not 1 <= levels <= 9:
            raise CatalogError("Tower of Hanoi needs 1..9 levels")
        self.levels = levels

    @property
    def period(self) -> int:
        return 1 << self.levels

    def level_for(self, day: int) -> int:
        if day % self.period == 0:
            return 0
        offset = day % self.period
        trailing = (offset & -offset).bit_length() - 1
        return self.levels - trailing

    def __repr__(self) -> str:
        return "TowerOfHanoi(%d)" % self.levels


_GFS_RE = re.compile(r"^\s*gfs(?::(\d+)x(\d+))?\s*$", re.IGNORECASE)
_HANOI_RE = re.compile(r"^\s*hanoi(?::(\d+))?\s*$", re.IGNORECASE)


def parse_schedule(text: str) -> Schedule:
    """Parse ``gfs``, ``gfs:DxW``, ``hanoi``, or ``hanoi:L``."""
    match = _GFS_RE.match(text)
    if match:
        if match.group(1):
            return GFS(int(match.group(1)), int(match.group(2)))
        return GFS()
    match = _HANOI_RE.match(text)
    if match:
        if match.group(1):
            return TowerOfHanoi(int(match.group(1)))
        return TowerOfHanoi()
    raise CatalogError(
        "cannot parse schedule %r (want 'gfs[:DxW]' or 'hanoi[:L]')"
        % (text,)
    )


__all__ = ["GFS", "Schedule", "TowerOfHanoi", "parse_schedule"]
