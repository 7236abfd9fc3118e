"""Structured tracing: complete spans, instants and counter samples on
the simulated clock.

Events are plain dicts so they serialize without ceremony:

``{"ph": ..., "name": ..., "cat": ..., "ts": ..., "pid": ..., "tid": ...,
"args": {...}}`` plus ``"dur"`` for complete spans.  A trace holds
exactly three phases: ``"X"`` complete spans (the executor's ops, stages
and jobs, each stage span carrying its ``cpu_seconds``, ``disk_bytes``
and ``tape_bytes``), ``"i"`` instants and ``"C"`` counter samples.

``ts`` is *simulated seconds* when the caller knows them (the executor
passes sim time), else a logical sequence number — either way the stream
is a pure function of the workload, so a traced run is byte-reproducible
and golden-file testable.

The sink is a JSONL file with sorted keys and a static footer recording
the event count; :func:`read_jsonl` is the one input check.  Code
running in this process (campaign days, fleet jobs) emits into the
installed tracer directly, its spans on a lane per job name; only
``run_all``'s pool tasks run under a tracer of their own, adopted with
:meth:`Tracer.add_events`.

Disabled tracing costs one attribute check: call sites hold a tracer
reference (usually via :func:`get_tracer`) and test ``tracer.enabled``
before building any event dict; :data:`NULL_TRACER` additionally turns
every method into a no-op for callers that skip the check.
"""

from __future__ import annotations

import json
from typing import Iterable, List, Optional

from repro.errors import ReproError

TRACE_SCHEMA_VERSION = 1

#: The phases a trace holds: complete spans, instants, counter samples.
TRACE_PHASES = ("X", "i", "C")


class Tracer:
    """Collects span/instant/counter events with a deterministic ordering."""

    def __init__(self):
        self.enabled = True
        self._events: List[dict] = []
        self._seq = 0

    # -- event emission ----------------------------------------------------

    def _stamp(self, event: dict, ts: Optional[float]) -> dict:
        seq = self._seq
        self._seq = seq + 1
        event["ts"] = seq if ts is None else ts
        event["seq"] = seq
        self._events.append(event)
        return event

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
    """Load a trace file: every line JSON, every event of a
    :data:`TRACE_PHASES` phase with a numeric ``ts`` (and ``dur``), and a
    footer whose count matches.  Raises :class:`ReproError` naming the
    file on the first fault."""
    events: List[dict] = []
    footer = None
    with open(path, "rb") as handle:  # undecodable bytes are "not JSON"
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                raise ReproError("trace file %r line %d is not JSON"
                                 % (path, number)) from None
            ph = record.get("ph") if isinstance(record, dict) else None
            if ph == "footer":
                footer = record
            elif ph in TRACE_PHASES:
                if not (isinstance(record.get("ts"), (int, float))
                        and isinstance(record.get("dur", 0), (int, float))):
                    raise ReproError("trace file %r line %d needs a numeric"
                                     " ts (and dur)" % (path, number))
                events.append(record)
            else:
                raise ReproError("trace file %r line %d has phase %r, not"
                                 " one of %s"
                                 % (path, number, ph, "/".join(TRACE_PHASES)))
    if footer is None:
        raise ReproError("trace file %r has no footer" % path)
    if footer.get("events") != len(events):
        raise ReproError("trace file %r footer says %s events, found %d"
                         % (path, footer.get("events"), len(events)))
    return events


__all__ = [
    "TRACE_PHASES",
    "TRACE_SCHEMA_VERSION",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "read_jsonl",
]
