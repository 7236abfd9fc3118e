"""Counters, gauges, and fixed-bucket histograms with deterministic snapshots.

The registry is the *measurement* half of the observability plane: hot
paths (tape writes, RAID run reads, NVRAM half-switches, cache lookups)
bump named instruments, and a run ends with a single deterministic
snapshot — sorted keys, plain JSON types — that can be printed or
diffed.  One process writes it: whoever enables it (the CLI's
``--metrics`` verbs) runs its jobs in-process, never in a pool.

Zero-overhead-when-disabled contract: every instrumented call site gates
on ``REGISTRY.enabled`` (one attribute load on a shared singleton) before
touching any instrument, so the disabled path costs the same as an
``if False`` check.  Code must *never* rebind the ``REGISTRY`` global —
toggle ``REGISTRY.enabled`` so that call sites holding the module
reference observe the change.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple


class Counter:
    """A monotonically non-decreasing sum (floats allowed, e.g. seconds)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counter %r cannot decrease (inc %r)"
                             % (self.name, amount))
        self.value += amount


class Gauge:
    """A point-in-time value; the last ``set`` wins."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed upper-bound buckets plus a catch-all overflow bucket.

    ``counts`` has ``len(bounds) + 1`` entries; observation ``x`` lands in
    the first bucket whose bound satisfies ``x <= bound``, or the final
    overflow bucket.  ``sum(counts) == count`` always holds.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total")

    def __init__(self, name: str, bounds: Sequence[float]):
        bounds = tuple(bounds)
        if not bounds:
            raise ValueError("histogram %r needs at least one bound" % name)
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram %r bounds must be sorted" % name)
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        index = 0
        for bound in self.bounds:
            if value <= bound:
                break
            index += 1
        self.counts[index] += 1
        self.count += 1
        self.total += value


class MetricsRegistry:
    """Named instruments with get-or-create access."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument access (get-or-create) ---------------------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str,
                  bounds: Optional[Sequence[float]] = None) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            if bounds is None:
                raise ValueError(
                    "histogram %r does not exist and no bounds given" % name)
            instrument = self._histograms[name] = Histogram(name, bounds)
        elif bounds is not None and tuple(bounds) != instrument.bounds:
            raise ValueError("histogram %r re-declared with different bounds"
                             % name)
        return instrument

    # -- lifecycle ----------------------------------------------------------

    def reset(self) -> None:
        """Drop every instrument (the enabled flag is untouched)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    # -- snapshots ----------------------------------------------------------

    def snapshot(self) -> dict:
        """A deterministic, JSON-ready view: sorted names, plain types."""
        return {
            "counters": {name: self._counters[name].value
                         for name in sorted(self._counters)},
            "gauges": {name: self._gauges[name].value
                       for name in sorted(self._gauges)},
            "histograms": {
                name: {
                    "bounds": list(hist.bounds),
                    "counts": list(hist.counts),
                    "count": hist.count,
                    "total": hist.total,
                }
                for name, hist in sorted(self._histograms.items())
            },
        }

    def to_text(self) -> str:
        """A fixed-order plain-text rendering for terminals and diffs."""
        snap = self.snapshot()
        lines: List[str] = []
        for name, value in snap["counters"].items():
            lines.append("counter   %-32s %s" % (name, _format_number(value)))
        for name, value in snap["gauges"].items():
            lines.append("gauge     %-32s %s" % (name, _format_number(value)))
        for name, data in snap["histograms"].items():
            lines.append("histogram %-32s count=%d total=%s"
                         % (name, data["count"],
                            _format_number(data["total"])))
            edges: List[Tuple[str, int]] = []
            previous = None
            for bound, count in zip(data["bounds"], data["counts"]):
                low = "-inf" if previous is None else _format_number(previous)
                edges.append(("(%s, %s]" % (low, _format_number(bound)),
                              count))
                previous = bound
            edges.append(("(%s, +inf)" % _format_number(previous),
                          data["counts"][-1]))
            for label, count in edges:
                lines.append("  %-20s %d" % (label, count))
        return "\n".join(lines)


def _format_number(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


#: The process-wide registry.  Disabled by default; call sites gate on
#: ``REGISTRY.enabled`` and must never rebind this name.
REGISTRY = MetricsRegistry(enabled=False)


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
]
