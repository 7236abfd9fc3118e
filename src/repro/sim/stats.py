"""Measurement helpers for the simulation.

The paper's tables report *CPU utilization per stage* and *device MB/s per
stage*, so the trackers here support querying busy-time integrals over
arbitrary windows, not just whole-run averages.
"""

from __future__ import annotations

import bisect
from typing import List


class UtilizationTracker:
    """Piecewise-constant record of a resource's in-use level over time.

    ``record(t, level)`` appends a step; ``busy_time(a, b)`` integrates the
    level over ``[a, b]`` and ``utilization(a, b)`` normalizes by capacity.
    """

    def __init__(self, capacity: int = 1):
        self.capacity = capacity
        # Parallel arrays of step times and the level from that time onward.
        self._times: List[float] = [0.0]
        self._levels: List[float] = [0.0]

    def record(self, now: float, level: float) -> None:
        if now < self._times[-1]:
            raise ValueError("utilization record out of order")
        if now == self._times[-1]:
            self._levels[-1] = level
        else:
            self._times.append(now)
            self._levels.append(level)

    def busy_time(self, start: float, end: float) -> float:
        """Integral of the in-use level over ``[start, end]``."""
        if end <= start:
            return 0.0
        total = 0.0
        # Index of the last step at or before `start`.
        idx = bisect.bisect_right(self._times, start) - 1
        idx = max(idx, 0)
        t = start
        while t < end:
            level = self._levels[idx]
            next_t = self._times[idx + 1] if idx + 1 < len(self._times) else end
            segment_end = min(next_t, end)
            if segment_end > t:
                total += level * (segment_end - t)
                t = segment_end
            idx += 1
            if idx >= len(self._times):
                break
        return total

    def utilization(self, start: float, end: float) -> float:
        """Mean fraction of capacity in use over ``[start, end]``."""
        if end <= start:
            return 0.0
        return self.busy_time(start, end) / (self.capacity * (end - start))


__all__ = ["UtilizationTracker"]
