"""Export native trace events to Chrome ``trace_event`` JSON.

The native stream keeps ``ts`` in simulated seconds and uses free-form
``tid`` values (job names, volume ids).  Chrome's trace viewer — and
Perfetto, which reads the same format — wants microsecond integer
timestamps and integer pid/tid, with human names supplied via ``"M"``
(metadata) events.  :func:`to_chrome_trace` performs exactly that
mapping, deterministically: tids are numbered in order of first
appearance per pid, and metadata events precede everything else.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ReproError
from repro.obs.trace import TRACE_PHASES

_US = 1_000_000  # simulated seconds -> microseconds

_CHROME_PHASES = TRACE_PHASES + ("M",)


def to_chrome_trace(events: Iterable[dict],
                    pid_names: Optional[Dict[object, str]] = None) -> dict:
    """A ``{"traceEvents": [...]}`` document viewable in Perfetto.

    ``pid_names`` overrides the default ``repro``/``worker-N`` process
    labels — the fleet exporter passes tenant names so each tenant gets
    its own named lane in the viewer.
    """
    tid_map: Dict[Tuple[object, object], int] = {}
    out: List[dict] = []
    meta: List[dict] = []

    for event in events:
        ph = event.get("ph")
        if ph not in TRACE_PHASES:
            continue
        pid = event.get("pid", 0)
        tid = event.get("tid", 0)
        key = (pid, tid)
        chrome_tid = tid_map.get(key)
        if chrome_tid is None:
            chrome_tid = len(tid_map) + 1
            tid_map[key] = chrome_tid
            meta.append({
                "ph": "M", "name": "thread_name", "pid": pid,
                "tid": chrome_tid, "args": {"name": str(tid)},
            })
        chrome = {
            "ph": ph,
            "name": event.get("name", ""),
            "cat": event.get("cat") or "default",
            "ts": int(round(event["ts"] * _US)),
            "pid": pid,
            "tid": chrome_tid,
        }
        if ph == "X":
            chrome["dur"] = int(round(event.get("dur", 0.0) * _US))
        if ph == "i":
            chrome["s"] = "t"  # thread-scoped instant
        if event.get("args"):
            chrome["args"] = event["args"]
        out.append(chrome)

    pids = sorted({pid for pid, _tid in tid_map}, key=str)
    names = pid_names or {}
    process_meta = [
        {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
         "args": {"name": names.get(
             pid, "repro" if pid == 0 else "worker-%s" % pid)}}
        for pid in pids
    ]
    return {"traceEvents": process_meta + meta + out,
            "displayTimeUnit": "ms"}


def validate_chrome_trace(doc: dict) -> None:
    """Schema check for an exported document; raises ``ReproError``."""
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ReproError("not a trace document: missing traceEvents")
    for index, event in enumerate(doc["traceEvents"]):
        context = "traceEvents[%d]" % index
        if not isinstance(event, dict):
            raise ReproError("%s is not an object" % context)
        ph = event.get("ph")
        if ph not in _CHROME_PHASES:
            raise ReproError("%s has bad ph %r" % (context, ph))
        if not isinstance(event.get("name"), str):
            raise ReproError("%s has no name" % context)
        if "pid" not in event or "tid" not in event:
            raise ReproError("%s missing pid/tid" % context)
        if ph == "M":
            continue
        if not isinstance(event.get("ts"), int):
            raise ReproError("%s ts must be integer microseconds" % context)
        dur = event.get("dur")
        if ph == "X" and not (isinstance(dur, int) and dur >= 0):
            raise ReproError("%s complete event needs a non-negative"
                             " integer dur" % context)


def export_chrome_trace(events: Iterable[dict], path: str,
                        pid_names: Optional[Dict[object, str]] = None) -> int:
    """Write the Chrome-format document; returns the event count."""
    doc = to_chrome_trace(events, pid_names=pid_names)
    validate_chrome_trace(doc)
    with open(path, "w") as handle:
        json.dump(doc, handle, sort_keys=True, indent=None,
                  separators=(",", ":"))
        handle.write("\n")
    return len(doc["traceEvents"])


__all__ = ["to_chrome_trace", "validate_chrome_trace", "export_chrome_trace"]
