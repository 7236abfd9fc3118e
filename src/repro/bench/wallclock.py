"""Wall-clock gates: how fast the *simulator itself* runs, end to end.

Everything else in :mod:`repro.bench` measures simulated seconds; this
module measures real ones, and only the statements nothing else makes
(:data:`GATES`).  What a *layer* costs — RAID, buffer cache, block map,
dump stream, sim kernel — is read from the ledger (``benchmarks/ledger/``),
which measures each layer under its real callers.  The JSON report
doubles as the committed regression baseline (``BENCH_wallclock.json``
at the repository root).

Raw wall seconds are meaningless across machines, so every report
includes a *calibration* measurement: the time a fixed pure-Python
workload takes on this interpreter.  Regression checks compare
calibration-normalized seconds (``seconds / calibration_seconds``), which
cancels machine speed and leaves only changes to the code under test.

Usage::

    python -m repro.bench.wallclock --mode smoke            # print report
    python -m repro.bench.wallclock --mode smoke --check --tolerance 0.2
    python -m repro.bench.wallclock --mode fullscale --write-baseline
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import tempfile
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.units import MB

SCHEMA_VERSION = 1
BASELINE_NAME = "BENCH_wallclock.json"


def default_baseline_path() -> str:
    """``BENCH_wallclock.json`` at the repository root (src/../..)."""
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.abspath(os.path.join(here, os.pardir, os.pardir, os.pardir))
    return os.path.join(root, BASELINE_NAME)


def peak_rss_bytes() -> Optional[int]:
    """This process's lifetime peak resident set size, in bytes.

    ``ru_maxrss`` is a high-water mark, so per-benchmark values recorded
    along a harness run are monotone non-decreasing and depend on what
    ran before — they answer "how much memory had the harness needed by
    the time this finished", which is exactly the number the full-scale
    RSS gate cares about (the macros run last and dominate).
    """
    try:
        import resource
    except ImportError:  # non-POSIX: record nothing rather than guess
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes; macOS reports bytes.
    return rss if sys.platform == "darwin" else rss * 1024


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

def _calibration_workload() -> int:
    """A fixed, deterministic mix of arithmetic, dict and bytes work."""
    acc = 0
    table: Dict[int, int] = {}
    for i in range(120_000):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
        table[acc & 1023] = i
    buf = bytearray(64 * 1024)
    view = memoryview(buf)
    chunk = bytes(range(256)) * 16
    for i in range(0, len(buf), len(chunk)):
        view[i : i + len(chunk)] = chunk
    return acc + len(table) + buf[-1]


def calibrate(repeats: int = 3) -> float:
    """Seconds the fixed workload takes (best of ``repeats``)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _calibration_workload()
        best = min(best, time.perf_counter() - start)
    return best


# ---------------------------------------------------------------------------
# Observability-off overhead
# ---------------------------------------------------------------------------

def bench_obs_null() -> Dict[str, float]:
    """Cost of the disabled observability gates, relative to a guarded op.

    When tracing and metrics are off, every instrumented hot-path site
    pays exactly one ``REGISTRY.enabled`` / ``tracer.enabled`` attribute
    check.  This times a tight loop of those checks and a loop of the
    cheapest guarded data-plane op (an 8-block cache run hit), and
    reports the fractional cost of one gate check per op as
    ``overhead_fraction`` — the regression gate asserts it stays <= 3%.
    """
    from repro.obs.metrics import REGISTRY
    from repro.obs.trace import get_tracer
    from repro.wafl.buffercache import BlockCache

    was_enabled = REGISTRY.enabled
    REGISTRY.enabled = False
    tracer = get_tracer()
    try:
        checks = 200_000
        hits = 0
        start = time.perf_counter()
        for _ in range(checks):
            if REGISTRY.enabled:
                hits += 1
            if tracer.enabled:
                hits += 1
        gate_seconds = time.perf_counter() - start

        nblocks = 512
        cache = BlockCache(capacity_blocks=2 * nblocks)
        cache.put_run(0, nblocks)
        ops = 20_000
        start = time.perf_counter()
        for i in range(ops):
            cache.get_run((i * 8) % (nblocks - 8), 8)
        op_seconds = time.perf_counter() - start
    finally:
        REGISTRY.enabled = was_enabled
    if hits:
        raise RuntimeError("observability gates fired while disabled")

    per_gate = gate_seconds / (2 * checks)
    per_op = op_seconds / ops
    return {
        "seconds": gate_seconds,
        "rate": (2 * checks) / gate_seconds,
        "unit": "gate-checks/s",
        "overhead_fraction": per_gate / per_op,
    }


# ---------------------------------------------------------------------------
# Macro benchmark: the basic four-operation experiment, end to end
# ---------------------------------------------------------------------------

def bench_macro(mode: str) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Time testbed construction and ``run_basic`` on a fresh environment.

    ``run_basic`` is the Tables 2/3 experiment every ``run_all`` grid runs
    (dump, restore, verify per strategy, each on its own clone), so this
    is the only Table 2/3 timing at any scale.  The environment is built
    directly (bypassing the module-level cache) so repeated invocations —
    and the pytest gate running alongside other bench tests — always
    measure a cold build.  Smoke mode is short enough to be noisy, so it
    takes the best of two runs; garbage from whatever ran before is
    collected outside the timed regions.  Returns the ``build_env`` and
    ``run_basic`` entries, in that order.
    """
    from repro.bench.configs import EliotConfig, ExperimentEnv, fullscale_config
    from repro.bench.harness import run_basic

    smoke = mode == "smoke"
    build_seconds = float("inf")
    run_seconds = float("inf")
    results = None
    for _ in range(2 if smoke else 1):
        # Smoke is the tier-1 bench tests' tiny testbed (~12 MB home).
        env = ExperimentEnv(EliotConfig(scale=16000, aging_rounds=1)
                            if smoke else fullscale_config())
        gc.collect()
        start = time.perf_counter()
        env.build_home()
        build_seconds = min(build_seconds, time.perf_counter() - start)

        gc.collect()
        start = time.perf_counter()
        results = run_basic(env)
        run_seconds = min(run_seconds, time.perf_counter() - start)
    # Four single-drive passes (two dumps, two restores) each move the
    # active data set once at the block level.
    moved = 4 * results["data_bytes"]
    return ({"seconds": build_seconds},
            {"seconds": run_seconds, "rate": moved / MB / run_seconds,
             "unit": "MB/s"})


# ---------------------------------------------------------------------------
# Parallel evaluation plane: the reduced run_all grid end to end
# ---------------------------------------------------------------------------

def bench_parallel_run_all(jobs: int = 1) -> Dict[str, float]:
    """Generate the reduced ``run_all`` grid with the given worker count.

    The environment cache is cleared first so the serial and parallel
    timings both start cold (serial reuse of cached environments would
    otherwise make the comparison meaningless).
    """
    from repro.bench.configs import clear_env_cache
    from repro.bench.run_all import Preset, build_plan, generate_body

    clear_env_cache()
    reduced = Preset.named("reduced")
    silent = lambda *_args, **_kwargs: None  # noqa: E731
    start = time.perf_counter()
    generate_body(reduced, jobs=jobs, echo=silent)
    seconds = time.perf_counter() - start
    ntasks = len(build_plan(reduced))
    return {"seconds": seconds, "rate": ntasks / seconds, "unit": "tasks/s"}


# ---------------------------------------------------------------------------
# Fleet service plane: a small multi-tenant fleet end to end
# ---------------------------------------------------------------------------

def _fleet_smoke_spec(cartridges: int = 8):
    """The canonical 3-tenant, 2-drive bench fleet.

    ``cartridges`` is the only knob: the cold smoke bench uses 8 (its
    three days never recycle media); the warm hot-path bench needs 24 so
    retention recycling reaches steady state before scratch runs out.
    """
    from repro.fleet import FleetSpec, TenantSpec

    return FleetSpec(
        tenants=[
            TenantSpec("acme", lane="daily", strategy="logical",
                       schedule="gfs:4x2", retention="redundancy 2",
                       data_bytes=300_000, seed=11, cartridges=cartridges,
                       cartridge_capacity=2_000_000, blocks_per_disk=900),
            TenantSpec("bolt", lane="daily", strategy="image",
                       schedule="hanoi:3", retention="redundancy 2",
                       data_bytes=250_000, seed=22, cartridges=cartridges,
                       cartridge_capacity=2_000_000, blocks_per_disk=900),
            TenantSpec("corp", lane="background", strategy="logical",
                       schedule="gfs:4x2", retention="window 10 days",
                       data_bytes=200_000, seed=33, cartridges=cartridges,
                       cartridge_capacity=2_000_000, blocks_per_disk=900),
        ],
        drives=2, seed=4242)


def bench_fleet_smoke() -> Dict[str, float]:
    """Init and run a 3-tenant, 2-drive fleet for three simulated days.

    Covers the whole service plane — tenant creation (format + populate),
    admission scheduling, batch execution, catalog commits, retention,
    and state persistence — at a deliberately small data size so the
    scheduler and persistence overheads, not the dumps, dominate.  Short
    enough to be noisy, so it takes the best of two runs with garbage
    collected outside the timed region (mirroring ``bench_macro``).

    This is the *cold* lifecycle number (init + first days dominate);
    :func:`bench_fleet_hotpath` measures the warm steady state.
    """
    from repro.fleet import FleetService

    spec = _fleet_smoke_spec()
    seconds = float("inf")
    totals = None
    for _ in range(2):
        with tempfile.TemporaryDirectory() as root:
            gc.collect()
            start = time.perf_counter()
            FleetService.init_fleet(root, spec)
            totals = FleetService(root).run_days(3)
            seconds = min(seconds, time.perf_counter() - start)
    return {"seconds": seconds, "rate": totals["jobs"] / seconds,
            "unit": "jobs/s"}


def bench_fleet_hotpath() -> Dict[str, float]:
    """Warm steady-state fleet throughput: the daily hot path itself.

    Builds the smoke fleet once, runs two warm-up days (volumes mounted,
    first full dumps behind us), then times 30 consecutive ``run_day``
    calls — admission, in-process dispatch against the mounted volumes,
    dump commits, retention, and the group-committed
    catalog-journal appends with their end-of-day fsyncs.  Service
    startup and shutdown checkpointing are deliberately outside the
    timed region: a fleet daemon pays them once per process, not per
    day, and ``macro.fleet.smoke`` / ``macro.fleet.scale`` already time
    the full cold lifecycle.

    The spec carries 24 cartridges per tenant so retention recycling
    sustains the 60+ simulated days the two timed repetitions cover.

    Besides jobs/s the entry reports the journal's byte economy —
    average bytes per journal record as written (compact separators,
    sorted keys) and the fraction saved versus Python's default
    ``", "``/``": "`` separators — so the hot-commit encoding win is
    tracked by the harness rather than asserted in a comment.
    """
    from repro.fleet import FleetService

    spec = _fleet_smoke_spec(cartridges=24)
    days = 30
    with tempfile.TemporaryDirectory() as root:
        FleetService.init_fleet(root, spec)
        service = FleetService(root)
        service.run_days(2)
        seconds = float("inf")
        for _ in range(2):
            gc.collect()
            start = time.perf_counter()
            for _ in range(days):
                service.run_day()
            seconds = min(seconds, time.perf_counter() - start)
        jobs = days * len(spec.tenants)
        entry = {"seconds": seconds, "rate": jobs / seconds,
                 "unit": "jobs/s"}
        journal = os.path.join(root, "tenants", "acme",
                               "catalog.json.journal")
        if os.path.exists(journal):
            with open(journal, "rb") as handle:
                blob = handle.read()
            records = [json.loads(line) for line in blob.splitlines()]
            if records:
                loose = sum(len(json.dumps(r, sort_keys=True)) + 1
                            for r in records)
                entry["journal_bytes_per_record"] = len(blob) / len(records)
                entry["journal_compact_savings"] = 1.0 - len(blob) / loose
        return entry


def bench_fleet_scale() -> Dict[str, float]:
    """A 24-tenant, 4-drive fleet run for 14 simulated days, full cycle.

    The scale complement to the hot-path bench: small per-tenant volumes
    (300 blocks/disk) keep each dump cheap so the fleet machinery —
    admission across four drive lanes, per-tenant journals, retention,
    end-of-run persistence of 24 volumes and catalogs — is what's
    measured.  Init (tenant format + populate) stays outside the timed
    region; everything ``run_days`` does, including the final
    checkpoint, is inside it.
    """
    from repro.fleet import FleetService, FleetSpec, TenantSpec

    strategies = ("logical", "image")
    schedules = ("gfs:4x2", "hanoi:3")
    retentions = ("redundancy 2", "window 10 days")
    lanes = ("daily", "background")
    tenants = [
        TenantSpec("t%02d" % index,
                   lane=lanes[index % 2],
                   strategy=strategies[index % 2],
                   schedule=schedules[(index // 2) % 2],
                   retention=retentions[(index // 3) % 2],
                   data_bytes=100_000 + 10_000 * (index % 8),
                   seed=1000 + index, cartridges=20,
                   cartridge_capacity=2_000_000, blocks_per_disk=300)
        for index in range(24)
    ]
    spec = FleetSpec(tenants=tenants, drives=4, seed=7777)
    days = 14
    with tempfile.TemporaryDirectory() as root:
        FleetService.init_fleet(root, spec)
        start = time.perf_counter()
        totals = FleetService(root).run_days(days)
        seconds = time.perf_counter() - start
    return {"seconds": seconds, "rate": totals["jobs"] / seconds,
            "unit": "jobs/s"}


# ---------------------------------------------------------------------------
# Harness driver
# ---------------------------------------------------------------------------

def _profiled(name: str, fn: Callable[[], Sequence[Dict]],
              top: int) -> Sequence[Dict]:
    """Run ``fn`` under cProfile, dump its top-``top`` hotspots to stderr."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    result = fn()
    profiler.disable()
    print("--- profile: %s (top %d by cumulative time) ---" % (name, top),
          file=sys.stderr)
    stats = pstats.Stats(profiler, stream=sys.stderr)
    stats.sort_stats("cumulative").print_stats(top)
    return result


class Gate(NamedTuple):
    """One timed call and the report keys its entries land under."""

    names: Tuple[str, ...]
    mode: str
    run: Callable[[], Sequence[Dict]]


MODES = ("smoke", "fullscale")
SERIAL_GRID = "parallel.run_all_smoke"

#: Every benchmark the harness runs, in run order.  A row earns its place
#: by a statement no ledger row can make: a cold Table 2/3 run and its
#: peak RSS in a fresh process, the ``--jobs N`` speed-up, fleet init and
#: scale, a ratio taken inside one process.  The macros run last, so
#: their high-water RSS covers the whole harness run.
GATES: Tuple[Gate, ...] = (
    # Best of three by seconds: 8 ms, where one scheduler hiccup dominates.
    Gate(("micro.obs_null",), "smoke",
         lambda: [min((bench_obs_null() for _ in range(3)),
                      key=lambda entry: entry["seconds"])]),
    Gate((SERIAL_GRID,), "smoke", lambda: [bench_parallel_run_all(1)]),
    Gate(("macro.fleet.smoke",), "smoke", lambda: [bench_fleet_smoke()]),
    Gate(("macro.fleet.hotpath",), "smoke", lambda: [bench_fleet_hotpath()]),
    Gate(("macro.fleet.scale",), "smoke", lambda: [bench_fleet_scale()]),
    Gate(("macro.smoke.build_env", "macro.smoke.run_basic"), "smoke",
         lambda: bench_macro("smoke")),
    Gate(("macro.fullscale.build_env", "macro.fullscale.run_basic"),
         "fullscale", lambda: bench_macro("fullscale")),
)


def benchmark_names(mode: str) -> List[str]:
    """The report keys a ``mode`` run produces, in run order."""
    return [name for gate in GATES if gate.mode == mode
            for name in gate.names]


def run_harness(mode: str = "smoke", profile: Optional[int] = None) -> Dict:
    """Run every :data:`GATES` row of ``mode``, a calibration probe either
    side of each.

    A shared machine's speed drifts within one run (a two-core sandbox
    flips between two clock states 25 % apart, seconds at a time), so a
    row carries the mean of the probes around it as its own
    ``calibration_seconds``; the report-level figure is the first probe.
    With ``profile`` set, each row runs under cProfile and its top-N
    hotspots go to stderr (profiled timings are *not* comparable to
    unprofiled ones).
    """
    if mode not in MODES:
        raise ValueError("mode must be one of %r, got %r" % (MODES, mode))
    print("calibrating ...", file=sys.stderr)
    before = calibrate()
    report: Dict = {
        "schema": SCHEMA_VERSION,
        "mode": mode,
        "calibration_seconds": before,
        "benchmarks": {},
    }
    for gate in GATES:
        if gate.mode != mode:
            continue
        label = ", ".join(gate.names)
        print("running %s ..." % label, file=sys.stderr)
        entries = (_profiled(label, gate.run, profile) if profile
                   else gate.run())
        after = calibrate()
        rss = peak_rss_bytes()
        for name, entry in zip(gate.names, entries):
            entry["calibration_seconds"] = (before + after) / 2
            if rss is not None:
                entry["peak_rss_bytes"] = rss
            report["benchmarks"][name] = entry
        before = after
    return report


#: Benchmark keys whose ``peak_rss_bytes`` is gated by check_regression.
#: Only the full-scale macros: their multi-GB footprint is what the COW
#: clone / fork-sharing work protects, and nothing runs before them;
#: the smoke entries' RSS is an order-dependent high-water mark, not a gate.
RSS_GATE_PREFIX = "macro.fullscale."


def check_regression(current: Dict, baseline: Dict,
                     tolerance: float = 0.2,
                     rss_tolerance: float = 0.3) -> List[str]:
    """Compare calibration-normalized seconds; return regression messages.

    A current entry is normalized by its own ``calibration_seconds`` when
    it has one (:func:`run_harness` rows do), else by its report's; a
    baseline entry by its file's (:func:`merge_baseline` sees to that).
    A benchmark regresses when its normalized time exceeds the baseline's
    by more than ``tolerance`` (0.2 = 20%).  Only keys present in both
    reports are compared, so a run of either mode checks cleanly against
    the one baseline file that holds both.  Speedups never fail.

    Entries under :data:`RSS_GATE_PREFIX` additionally gate their
    ``peak_rss_bytes`` (absolute, machines report comparable footprints
    for the same workload) against the baseline within ``rss_tolerance``.
    """
    failures: List[str] = []
    cur_cal = current["calibration_seconds"]
    base_cal = baseline["calibration_seconds"]
    if cur_cal <= 0 or base_cal <= 0:
        raise ValueError("calibration_seconds must be positive")
    for name, base_entry in sorted(baseline["benchmarks"].items()):
        cur_entry = current["benchmarks"].get(name)
        if cur_entry is None:
            continue
        base_norm = base_entry["seconds"] / base_cal
        cur_norm = (cur_entry["seconds"]
                    / cur_entry.get("calibration_seconds", cur_cal))
        if cur_norm > base_norm * (1.0 + tolerance):
            failures.append(
                "%s: %.2fx slower than baseline "
                "(%.3fs vs %.3fs calibration-normalized, tolerance %d%%)"
                % (name, cur_norm / base_norm, cur_norm, base_norm,
                   round(tolerance * 100))
            )
        if name.startswith(RSS_GATE_PREFIX):
            base_rss = base_entry.get("peak_rss_bytes")
            cur_rss = cur_entry.get("peak_rss_bytes")
            if base_rss and cur_rss and cur_rss > base_rss * (1.0 + rss_tolerance):
                failures.append(
                    "%s: peak RSS %.2fx the baseline "
                    "(%.0f MB vs %.0f MB, tolerance %d%%)"
                    % (name, cur_rss / base_rss, cur_rss / MB, base_rss / MB,
                       round(rss_tolerance * 100))
                )
    return failures


def merge_baseline(existing: Dict, report: Dict) -> Dict:
    """Fold a new report into an existing baseline without clobbering it.

    Committed baseline numbers are load-bearing — the regression gate
    references them — so an existing benchmark entry (and
    the calibration it was normalized against) is never overwritten.
    Only benchmarks the baseline has never seen are added, rescaled from
    the calibration they were measured under (their own, else the
    report's) to the baseline's, so that every entry in the file is
    normalized by the one ``calibration_seconds`` it carries.
    """
    merged = dict(existing)
    merged.setdefault("calibration_seconds", report["calibration_seconds"])
    merged.setdefault("schema", report["schema"])
    merged.setdefault("mode", report["mode"])
    merged["benchmarks"] = dict(existing.get("benchmarks", {}))
    for name, entry in report["benchmarks"].items():
        if name not in merged["benchmarks"]:
            entry = dict(entry)
            factor = merged["calibration_seconds"] / entry.pop(
                "calibration_seconds", report["calibration_seconds"])
            entry["seconds"] *= factor
            if "rate" in entry:
                entry["rate"] /= factor
            merged["benchmarks"][name] = entry
    return merged


def format_report(report: Dict) -> str:
    lines = [
        "wall-clock report (mode=%s, calibration=%.4fs)"
        % (report["mode"], report["calibration_seconds"])
    ]
    for name, entry in sorted(report["benchmarks"].items()):
        rate = ""
        if "rate" in entry:
            rate = "  %10.1f %s" % (entry["rate"], entry.get("unit", ""))
        lines.append("  %-26s %8.3fs%s" % (name, entry["seconds"], rate))
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.wallclock",
        description="Wall-clock benchmark harness and regression gate.",
    )
    parser.add_argument("--mode", choices=MODES, default="smoke")
    parser.add_argument("--profile", nargs="?", const=25, default=None,
                        type=int, metavar="N",
                        help="run each benchmark under cProfile and"
                             " dump its top-N hotspots to stderr")
    parser.add_argument("--baseline", default=None,
                        help="baseline JSON path (default: repo root %s)"
                        % BASELINE_NAME)
    parser.add_argument("--write-baseline", action="store_true",
                        help="merge the report into the baseline (existing"
                             " entries are never overwritten)")
    parser.add_argument("--check", action="store_true",
                        help="compare against the baseline; exit 1 on"
                             " regression, 2 if the baseline cannot be read")
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="allowed normalized slowdown (0.2 = 20%%)")
    parser.add_argument("--output", default=None,
                        help="also write the report JSON to this path")
    parser.add_argument("--jobs", type=int, default=1,
                        help="also time %s at this worker count and report"
                             " the speedup over --jobs 1" % SERIAL_GRID)
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="with --jobs N (skipped below N cores): exit 1"
                             " unless the grid is this many times faster")
    args = parser.parse_args(argv)

    baseline_path = args.baseline or default_baseline_path()
    if args.jobs > 1 and SERIAL_GRID not in benchmark_names(args.mode):
        parser.error("--jobs times %s, which --mode %s does not run"
                     % (SERIAL_GRID, args.mode))
    baseline = None
    if args.check:
        # Before any benchmark runs: a gate with nothing to compare
        # against (a non-editable install has no repo root) must not pass.
        try:
            with open(baseline_path) as handle:
                baseline = json.load(handle)
        except (OSError, ValueError) as exc:
            print("wallclock: error: --check cannot read baseline %s: %s"
                  % (baseline_path, exc), file=sys.stderr)
            return 2

    report = run_harness(mode=args.mode, profile=args.profile)
    if args.jobs > 1:
        print("running %s with --jobs %d ..." % (SERIAL_GRID, args.jobs),
              file=sys.stderr)
        entry = bench_parallel_run_all(args.jobs)
        entry["speedup"] = (report["benchmarks"][SERIAL_GRID]["seconds"]
                            / entry["seconds"])
        report["benchmarks"]["%s.j%d" % (SERIAL_GRID, args.jobs)] = entry
    print(format_report(report))
    if args.jobs > 1:
        print("%s speedup at --jobs %d: %.2fx"
              % (SERIAL_GRID, args.jobs, entry["speedup"]))
        cores = os.cpu_count() or 1
        if args.min_speedup is not None and cores < args.jobs:
            print("speedup gate skipped: needs %d cores, has %d" % (args.jobs, cores))
        elif args.min_speedup is not None and entry["speedup"] < args.min_speedup:
            print("speedup below required %.2fx" % args.min_speedup)
            return 1

    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.write_baseline:
        merged = merge_baseline({}, report)
        if os.path.exists(baseline_path):
            with open(baseline_path) as handle:
                merged = merge_baseline(json.load(handle), report)
        with open(baseline_path, "w") as handle:
            json.dump(merged, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("baseline written: %s" % baseline_path)
    if baseline is not None:
        failures = check_regression(report, baseline, tolerance=args.tolerance)
        if failures:
            print("wall-clock regression detected:")
            for failure in failures:
                print("  " + failure)
            return 1
        print("wall-clock check passed (tolerance %d%%)"
              % round(args.tolerance * 100))
    return 0


if __name__ == "__main__":
    sys.exit(main())


__all__ = [
    "BASELINE_NAME",
    "GATES",
    "MODES",
    "RSS_GATE_PREFIX",
    "bench_fleet_hotpath",
    "bench_fleet_scale",
    "bench_fleet_smoke",
    "bench_macro",
    "bench_obs_null",
    "bench_parallel_run_all",
    "benchmark_names",
    "calibrate",
    "check_regression",
    "default_baseline_path",
    "format_report",
    "merge_baseline",
    "peak_rss_bytes",
    "run_harness",
]
