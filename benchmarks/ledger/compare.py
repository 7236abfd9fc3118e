#!/usr/bin/env python3
"""Compare two ledger result files against the bounds in BENCHMARK.json.

    python3 benchmarks/ledger/compare.py A.json B.json

A and B are ``run.py --out`` files; A is the base.  One row per
(workload, end-to-end metric): both values, the ratio B/A, and a verdict:

``ok``          B is no worse than A by more than the metric's bound, and
                both runs' own spread (quartiles over their iterations) is
                within the bound;
``worse``       B is worse than A by more than the bound and the two
                interquartile ranges do not overlap;
``unresolved``  the difference or the spread exceeds the bound but the
                ranges overlap: neither "unchanged" nor "worse" is shown.

Exits 1 when any row is ``worse`` or B's fail_ratio is higher than A's.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                              "BENCHMARK.json")


def _range(entry: Dict) -> Tuple[float, float]:
    return (entry.get("q1", entry["value"]), entry.get("q3", entry["value"]))


def verdict(base: Dict, other: Dict, better: str, bound: float) -> str:
    """``ok``, ``worse`` or ``unresolved`` for one metric of one workload."""
    a, b = base["value"], other["value"]
    worse_by = (b - a) / a if better == "lower" else (a - b) / a
    (a_low, a_high), (b_low, b_high) = _range(base), _range(other)
    spread = max((a_high - a_low) / a, (b_high - b_low) / b)
    overlap = a_low <= b_high and b_low <= a_high
    if worse_by > bound:
        return "unresolved" if overlap and spread > 0 else "worse"
    return "unresolved" if spread > bound else "ok"


def compare(base: Dict, other: Dict, definitions: List[Dict]) -> Tuple[List[str], bool]:
    """The report lines and whether B regressed."""
    lines = ["%-15s %-12s %14s %14s %18s %6s  %s" % (
        "workload", "metric", "A", "B", "B/A (base A)", "bound", "verdict")]
    regressed = False
    for workload in base:
        if workload not in other:
            lines.append("%-15s missing from B" % workload)
            regressed = True
            continue
        left, right = base[workload], other[workload]
        for definition in definitions:
            name = definition["name"]
            a, b = left["metrics"][name], right["metrics"][name]
            result = verdict(a, b, definition["better"], definition["bound"])
            regressed = regressed or result == "worse"
            lines.append("%-15s %-12s %14.6f %14.6f %18.6f %5.0f%%  %s" % (
                workload, name, a["value"], b["value"],
                b["value"] / a["value"], 100 * definition["bound"], result))
        failed = right["fail_ratio"] > left["fail_ratio"]
        regressed = regressed or failed
        lines.append("%-15s %-12s %14.6f %14.6f %18s %6s  %s" % (
            workload, "fail_ratio", left["fail_ratio"], right["fail_ratio"],
            "-", "0", "worse" if failed else "ok"))
    return lines, regressed


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        base = json.load(handle)
    with open(argv[1]) as handle:
        other = json.load(handle)
    with open(BENCHMARK_JSON) as handle:
        definitions = json.load(handle)["end_to_end"]
    lines, regressed = compare(base, other, definitions)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
