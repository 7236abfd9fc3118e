"""Structured tracing: spans and instants on the simulated clock.

Events are plain dicts so they serialize without ceremony:

``{"ph": ..., "name": ..., "cat": ..., "ts": ..., "pid": ..., "tid": ...,
"args": {...}}`` plus ``"dur"`` for complete ("X") spans and an optional
``"wall"`` wall-clock stamp.

Two clocks, one deterministic by construction:

* ``ts`` is *simulated seconds* when the caller knows them (the executor
  passes sim time), else a logical sequence number — either way the
  stream is a pure function of the workload, so a traced run is
  byte-reproducible and golden-file testable.
* wall-clock capture is **opt-in** (``Tracer(wall_clock=time.monotonic)``)
  because real timestamps would break that byte-stability; when enabled,
  events carry a ``"wall"`` field alongside the deterministic ``ts``.

The sink is a JSONL file with sorted keys and a static footer recording
the event count.  Code running in this process (campaign days, fleet
jobs) emits into the installed tracer directly, its spans on a lane per
job name; only ``run_all``'s pool tasks run under a tracer of their own,
adopted with :meth:`Tracer.add_events`.

Disabled tracing costs one attribute check: call sites hold a tracer
reference (usually via :func:`get_tracer`) and test ``tracer.enabled``
before building any event dict; :data:`NULL_TRACER` additionally turns
every method into a no-op for callers that skip the check.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Iterable, List, Optional

TRACE_SCHEMA_VERSION = 1


class Tracer:
    """Collects span/instant events with a deterministic ordering."""

    def __init__(self, wall_clock: Optional[Callable[[], float]] = None):
        self.enabled = True
        self.wall_clock = wall_clock
        self._events: List[dict] = []
        self._seq = 0
        # Per-tid stacks of open "B" events, for nesting discipline.
        self._open: Dict[object, List[dict]] = {}

    # -- event emission ----------------------------------------------------

    def _stamp(self, event: dict, ts: Optional[float]) -> dict:
        seq = self._seq
        self._seq = seq + 1
        event["ts"] = seq if ts is None else ts
        event["seq"] = seq
        if self.wall_clock is not None:
            event["wall"] = self.wall_clock()
        self._events.append(event)
        return event

    def begin(self, name: str, cat: str = "", ts: Optional[float] = None,
              tid: object = 0, args: Optional[dict] = None) -> dict:
        event = {"ph": "B", "name": name, "cat": cat, "pid": 0, "tid": tid}
        if args:
            event["args"] = args
        self._open.setdefault(tid, []).append(event)
        return self._stamp(event, ts)

    def end(self, name: str, ts: Optional[float] = None, tid: object = 0,
            args: Optional[dict] = None) -> dict:
        stack = self._open.get(tid)
        if not stack or stack[-1]["name"] != name:
            open_name = stack[-1]["name"] if stack else None
            raise ValueError("end(%r) does not match open span %r on tid %r"
                             % (name, open_name, tid))
        stack.pop()
        event = {"ph": "E", "name": name, "pid": 0, "tid": tid}
        if args:
            event["args"] = args
        return self._stamp(event, ts)

    def complete(self, name: str, cat: str = "", ts: float = 0.0,
                 dur: float = 0.0, tid: object = 0,
                 args: Optional[dict] = None) -> dict:
        event = {"ph": "X", "name": name, "cat": cat, "dur": dur,
                 "pid": 0, "tid": tid}
        if args:
            event["args"] = args
        return self._stamp(event, ts)

    def instant(self, name: str, cat: str = "", ts: Optional[float] = None,
                tid: object = 0, args: Optional[dict] = None) -> dict:
        event = {"ph": "i", "name": name, "cat": cat, "pid": 0, "tid": tid}
        if args:
            event["args"] = args
        return self._stamp(event, ts)

    def counter(self, name: str, value: float, cat: str = "",
                ts: Optional[float] = None, tid: object = 0) -> dict:
        """A sampled counter ("C") event — queue depths, utilizations.

        Chrome's trace viewer draws these as stacked area charts per
        (pid, name) lane; the fleet scheduler samples one per tick.
        """
        event = {"ph": "C", "name": name, "cat": cat, "pid": 0, "tid": tid,
                 "args": {"value": value}}
        return self._stamp(event, ts)

    # -- collection / merge -------------------------------------------------

    def events(self) -> List[dict]:
        """Events sorted by (ts, seq) — a stable, deterministic order."""
        return sorted(self._events, key=lambda e: (e["ts"], e["seq"]))

    def take_events(self) -> List[dict]:
        """Drain: return sorted events and leave the tracer empty."""
        events = self.events()
        self._events = []
        self._open.clear()
        return events

    def add_events(self, events: Iterable[dict],
                   pid: Optional[int] = None) -> None:
        """Adopt events from another tracer (a pool task's).

        Events are re-sequenced under this tracer's counter in the order
        given; ``pid`` (when given) overrides their process id — the pool
        passes a task's declaration index + 1, never an OS pid, so the
        merged stream is the same whatever process produced it.
        """
        for event in events:
            event = dict(event)
            seq = self._seq
            self._seq = seq + 1
            event["seq"] = seq
            if pid is not None:
                event["pid"] = pid
            self._events.append(event)

    # -- sink ----------------------------------------------------------------

    def write_jsonl(self, path: str) -> int:
        """Write sorted events as JSONL with a static footer; returns count."""
        events = self.events()
        with open(path, "w") as handle:
            for event in events:
                handle.write(json.dumps(event, sort_keys=True))
                handle.write("\n")
            handle.write(json.dumps(
                {"ph": "footer", "events": len(events),
                 "schema": TRACE_SCHEMA_VERSION},
                sort_keys=True))
            handle.write("\n")
        return len(events)


class NullTracer:
    """The disabled fast path: every method is a no-op."""

    enabled = False
    wall_clock = None

    def begin(self, *args, **kwargs):
        return None

    def end(self, *args, **kwargs):
        return None

    def complete(self, *args, **kwargs):
        return None

    def instant(self, *args, **kwargs):
        return None

    def counter(self, *args, **kwargs):
        return None

    def events(self):
        return []

    def take_events(self):
        return []

    def add_events(self, events, pid=None):
        pass

    def write_jsonl(self, path):
        raise RuntimeError("tracing is disabled; nothing to write")


NULL_TRACER = NullTracer()

_current_tracer = NULL_TRACER


def get_tracer():
    """The process-wide tracer (the null tracer unless one is installed)."""
    return _current_tracer


def set_tracer(tracer) -> None:
    """Install ``tracer`` as the process-wide tracer (None → null tracer)."""
    global _current_tracer
    _current_tracer = NULL_TRACER if tracer is None else tracer


def read_jsonl(path: str) -> List[dict]:
    """Load a trace file, verifying the footer count."""
    events: List[dict] = []
    footer = None
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("ph") == "footer":
                footer = record
            else:
                events.append(record)
    if footer is None:
        raise ValueError("trace file %r has no footer" % path)
    if footer["events"] != len(events):
        raise ValueError("trace file %r footer says %d events, found %d"
                         % (path, footer["events"], len(events)))
    return events


def validate_spans(events: Iterable[dict]) -> None:
    """Check begin/end well-formedness per (pid, tid) lane.

    Every "E" must match the innermost open "B" on its lane, and every
    lane must be fully closed at the end of the stream.  Raises
    ``ValueError`` on the first violation.
    """
    stacks: Dict[object, List[str]] = {}
    for event in events:
        ph = event.get("ph")
        if ph not in ("B", "E"):
            continue
        lane = (event.get("pid", 0), event.get("tid", 0))
        stack = stacks.setdefault(lane, [])
        if ph == "B":
            stack.append(event["name"])
        else:
            if not stack:
                raise ValueError("end %r on lane %r with no open span"
                                 % (event["name"], lane))
            if stack[-1] != event["name"]:
                raise ValueError(
                    "end %r on lane %r does not match open span %r"
                    % (event["name"], lane, stack[-1]))
            stack.pop()
    for lane, stack in stacks.items():
        if stack:
            raise ValueError("lane %r left spans open: %r" % (lane, stack))


__all__ = [
    "TRACE_SCHEMA_VERSION",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "read_jsonl",
    "validate_spans",
]
