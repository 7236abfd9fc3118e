"""Wall-clock gates: how fast the *simulator itself* runs, end to end.

Everything else in :mod:`repro.bench` measures simulated seconds; this
module measures real ones, and only the statements nothing else makes
(:data:`GATES`).  What a *layer* costs — RAID, buffer cache, block map,
dump stream, sim kernel — is read from the ledger (``benchmarks/ledger/``),
which measures each layer under its real callers.

Wall seconds mean nothing across machines, nor across hours on one
shared machine, so ``--check`` stores no number: it runs the pinned
:data:`REFERENCE` commit's harness (``git archive``) and this checkout's
in :data:`PAIRS` alternating pairs of fresh processes on one machine and
gives every row the ledger's verdict (``benchmarks/ledger/compare.py``).

Usage::

    python -m repro.bench.wallclock --mode smoke            # print report
    python -m repro.bench.wallclock --mode smoke --check    # against REFERENCE
    python -m repro.bench.wallclock --mode fullscale --check --output F.json
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import runpy
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.units import MB

#: The commit ``--check`` measures this checkout against.  A change bumps
#: it, to the commit it builds on, when it means to accept what the gate
#: would otherwise call slower (and says so); nothing else moves it.
REFERENCE = "89527e579945b1cdd73a63cfb8a1ef34a2031324"

#: Alternating pairs of fresh processes one ``--check`` runs.
PAIRS = 10

#: How much slower than the reference a row's median seconds may be.
SECONDS_BOUND = {"smoke": 0.20, "fullscale": 0.35}

#: Absolute peak-RSS limit, in bytes, of every row of a mode: the
#: full-scale macros measured 0.703 GB in a fresh process with both
#: dumps' tapes sharing the volume's stripe chunks, both restores
#: reading the tapes in place and sparse, slab-sharing block maps
#: (DESIGN.md 16 and 18); this is + 10 %, rounded up to 10 MB.
RSS_LIMIT = {"fullscale": 780_000_000}


def peak_rss_bytes() -> Optional[int]:
    """This process's lifetime peak resident set size (a high-water
    mark), in bytes."""
    try:
        import resource
    except ImportError:  # non-POSIX: record nothing rather than guess
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes; macOS reports bytes.
    return rss if sys.platform == "darwin" else rss * 1024


# ---------------------------------------------------------------------------
# The benchmarks GATES runs
# ---------------------------------------------------------------------------

def bench_obs_null() -> Dict[str, float]:
    """Cost of the disabled observability gates, relative to a guarded op.

    With tracing and metrics off, every instrumented hot-path site pays
    one ``REGISTRY.enabled`` / ``tracer.enabled`` check.  This times a
    loop of those checks against the cheapest guarded op (an 8-block cache
    run hit): ``overhead_fraction``, which a test holds to <= 3%.
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


def bench_macro(mode: str) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Time a cold testbed build and ``run_basic`` (the Tables 2/3
    experiment every ``run_all`` grid runs) on a fresh environment.

    The environment bypasses the module-level cache, so every call times a
    cold build.  Smoke mode is short enough to be noisy: best of two, with
    garbage collected outside the timed regions.  Returns the
    ``build_env`` and ``run_basic`` entries, in that order.
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


def bench_parallel_run_all(jobs: int = 1) -> Dict[str, float]:
    """Generate the reduced ``run_all`` grid with ``jobs`` workers, from a
    cleared environment cache so serial and parallel both start cold."""
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


def _fleet_smoke_spec(cartridges: int = 8):
    """The canonical 3-tenant, 2-drive bench fleet: 8 cartridges for the
    cold bench (three days recycle none), 24 for the warm hot path."""
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

    The whole service plane at a small data size, so scheduling and
    persistence dominate, not the dumps: the *cold* lifecycle number
    (:func:`bench_fleet_hotpath` is the warm one).  Best of two.
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

    After two warm-up days, times 30 consecutive ``run_day`` calls
    (admission, dispatch, commits, retention, journal fsyncs); service
    start and checkpoint stay outside, as a daemon pays them once.
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
    return {"seconds": seconds, "rate": jobs / seconds, "unit": "jobs/s"}


def bench_fleet_scale() -> Dict[str, float]:
    """A 24-tenant, 4-drive fleet run for 14 simulated days, full cycle.

    Small volumes keep each dump cheap, so the fleet machinery is what is
    timed: everything ``run_days`` does, final checkpoint included; init
    stays outside.
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
    """Run every :data:`GATES` row of ``mode`` in this process, each
    entry with the process's peak RSS when it finished.  With ``profile``
    each row runs under cProfile and its top-N hotspots go to stderr."""
    if mode not in MODES:
        raise ValueError("mode must be one of %r, got %r" % (MODES, mode))
    report: Dict = {"mode": mode, "benchmarks": {}}
    for gate in GATES:
        if gate.mode != mode:
            continue
        label = ", ".join(gate.names)
        print("running %s ..." % label, file=sys.stderr)
        entries = (_profiled(label, gate.run, profile) if profile
                   else gate.run())
        rss = peak_rss_bytes()
        for name, entry in zip(gate.names, entries):
            if rss is not None:
                entry["peak_rss_bytes"] = rss
            report["benchmarks"][name] = entry
    return report


def format_report(report: Dict) -> str:
    """One line a row: its seconds, then its rate or, from a check, the
    reference's median seconds, the verdict and the peak RSS the check
    gates (with the mode's :data:`RSS_LIMIT`, where it has one)."""
    lines = ["wall-clock report (mode=%s)" % report["mode"]]
    limit = RSS_LIMIT.get(report["mode"])
    for name, entry in sorted(report["benchmarks"].items()):
        tail = ""
        if "verdict" in entry:
            tail = "  reference %8.3fs  %s" % (entry.get("reference", {}).get(
                "value", float("nan")), entry["verdict"])
            if "peak_rss_bytes" in entry:
                tail += "  peak RSS %.3f GB" % (entry["peak_rss_bytes"] / 1e9)
                if limit:
                    tail += " (limit %.2f GB)" % (limit / 1e9)
        elif "rate" in entry:
            tail = "  %10.1f %s" % (entry["rate"], entry.get("unit", ""))
        lines.append("  %-26s %8.3fs%s" % (name, entry["seconds"], tail))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The gate: this checkout against REFERENCE, in pairs on one machine
# ---------------------------------------------------------------------------

class Refusal(Exception):
    """``--check`` cannot measure what it would report: exit 2."""


def source_tree() -> str:
    """The tree whose ``src/`` holds this module (src/repro/bench/../../..)."""
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.abspath(os.path.join(here, os.pardir, os.pardir, os.pardir))


def _git(tree: str, *args: str) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(["git", "-C", tree] + list(args), capture_output=True)
    except OSError as error:  # no git binary at all
        raise Refusal("needs a git checkout; cannot run git: %s" % error)


def extract_reference(tree: str, dest: str) -> str:
    """Unpack :data:`REFERENCE`'s ``src/`` from ``tree``'s history into
    ``dest``; refuse unless ``tree`` is a git checkout holding it."""
    top = _git(tree, "rev-parse", "--show-toplevel")
    if top.returncode or (os.path.realpath(top.stdout.decode().strip())
                          != os.path.realpath(tree)):
        raise Refusal("needs a git checkout; %s is not one" % tree)
    archive = _git(tree, "archive", "--format=tar", REFERENCE, "src")
    if archive.returncode:
        raise Refusal("needs REFERENCE %s, which the checkout at %s does not"
                      " hold (fetch the full history)" % (REFERENCE, tree))
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest)
    return dest


def ledger_verdict(tree: str) -> Callable[[Dict, Dict, str, float], str]:
    """``verdict`` of ``tree``'s ``benchmarks/ledger/compare.py``."""
    return runpy.run_path(os.path.join(tree, "benchmarks", "ledger",
                                       "compare.py"))["verdict"]


def _run(argv: List[str], env: Dict[str, str], cwd: str) -> str:
    done = subprocess.run(argv, env=env, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, universal_newlines=True)
    if done.returncode:
        raise RuntimeError("%s exited %d:\n%s"
                           % (" ".join(argv), done.returncode, done.stderr))
    return done.stdout


def _child(tree: str, *args: str) -> str:
    """``python ARGS`` in a fresh process that imports ``tree``'s code."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    return _run([sys.executable] + list(args), env, tree)


def _check_import(tree: str) -> None:
    """Refuse when a child meant for ``tree`` imports ``repro`` from
    elsewhere (a stray install would compare one tree with itself)."""
    src = os.path.realpath(os.path.join(tree, "src"))
    found = os.path.realpath(
        _child(tree, "-c", "import repro; print(repro.__file__)").strip())
    if not found.startswith(src + os.sep):
        raise Refusal("a child on %s imports repro from %s" % (src, found))


def run_pairs(trees: Dict[str, str], mode: str, scratch: str) -> Dict[str, List[Dict]]:
    """Each side's ``benchmarks`` from :data:`PAIRS` pairs of fresh processes;
    which side runs first alternates, so a drift favours neither side."""
    runs: Dict[str, List[Dict]] = {side: [] for side in trees}
    order = list(trees.items())
    for index in range(PAIRS):
        for side, tree in order if index % 2 == 0 else order[::-1]:
            print("pair %d/%d: %s ..." % (index + 1, PAIRS, side),
                  file=sys.stderr)
            path = os.path.join(scratch, "%s-%d.json" % (side, index))
            _child(tree, "-m", "repro.bench.wallclock", "--mode", mode,
                   "--output", path)
            with open(path) as handle:
                runs[side].append(json.load(handle)["benchmarks"])
    return runs


def _quartiles(values: List[float]) -> Dict[str, float]:
    """``compare.py``'s entry: the median and the quartiles around it."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"value": median, "q1": q1, "q3": q3}


def judge(mode: str, runs: Dict[str, List[Dict]],
          verdict: Callable[[Dict, Dict, str, float], str]
          ) -> Tuple[Dict, List[str]]:
    """The check report of ``runs`` (``head`` and ``reference`` sides) and
    its failures: a row whose seconds ``verdict`` calls ``worse`` at the
    mode's bound, or one over the mode's RSS limit in any run."""
    bound, limit = SECONDS_BOUND[mode], RSS_LIMIT.get(mode)
    rows: Dict[str, Dict] = {}
    failures: List[str] = []
    for name in benchmark_names(mode):
        head = _quartiles([run[name]["seconds"] for run in runs["head"]])
        base = [run[name]["seconds"] for run in runs["reference"] if name in run]
        rss = max(run[name].get("peak_rss_bytes") or 0 for run in runs["head"])
        rows[name] = row = dict(head, seconds=head["value"],
                                peak_rss_bytes=rss, verdict="new")
        if base:  # a row the reference has not got yet is reported only
            row["reference"] = _quartiles(base)
            row["verdict"] = verdict(row["reference"], head, "lower", bound)
        if row["verdict"] == "worse":
            failures.append("%s: median %.3fs against %.3fs, over the %d%% bound" % (
                name, head["value"], row["reference"]["value"], round(bound * 100)))
        if limit and not 0 < rss <= limit:
            failures.append("%s: peak RSS %d bytes: missing, or above the"
                            " %.2f GB limit" % (name, rss, limit / 1e9))
    report = {"mode": mode, "reference": REFERENCE,
              "pairs": len(runs["head"]), "benchmarks": rows}
    return report, failures


def check(mode: str) -> Tuple[Dict, List[str]]:
    """:func:`judge` this checkout against :data:`REFERENCE`; every
    :class:`Refusal` comes before anything is timed."""
    tree = source_tree()
    with tempfile.TemporaryDirectory(prefix="wallclock-") as scratch:
        trees = {"reference": extract_reference(tree, os.path.join(scratch, "reference")),
                 "head": tree}
        verdict = ledger_verdict(tree)
        for side in trees.values():
            _check_import(side)
        runs = run_pairs(trees, mode, scratch)
    return judge(mode, runs, verdict)


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
    parser.add_argument("--check", action="store_true",
                        help="time %d pairs against commit %s: exit 1 on a"
                             " regression, 2 if it cannot measure"
                             % (PAIRS, REFERENCE[:12]))
    parser.add_argument("--output", default=None,
                        help="also write the report JSON to this path")
    parser.add_argument("--jobs", type=int, default=1,
                        help="also time %s at this worker count and report"
                             " the speedup over --jobs 1" % SERIAL_GRID)
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="with --jobs N (skipped below N cores): exit 1"
                             " unless the grid is this many times faster")
    args = parser.parse_args(argv)

    if args.jobs > 1 and SERIAL_GRID not in benchmark_names(args.mode):
        parser.error("--jobs times %s, which --mode %s does not run"
                     % (SERIAL_GRID, args.mode))
    if args.check and args.profile:
        parser.error("--check compares unprofiled runs; drop --profile")
    failures: List[str] = []
    if args.check:
        try:
            report, failures = check(args.mode)
        except Refusal as refusal:
            print("wallclock: error: --check %s" % refusal, file=sys.stderr)
            return 2
    else:
        report = run_harness(mode=args.mode, profile=args.profile)
    print(format_report(report))
    if args.jobs > 1:
        print("running %s with --jobs %d ..." % (SERIAL_GRID, args.jobs),
              file=sys.stderr)
        entry = bench_parallel_run_all(args.jobs)
        entry["speedup"] = (report["benchmarks"][SERIAL_GRID]["seconds"]
                            / entry["seconds"])
        report["benchmarks"]["%s.j%d" % (SERIAL_GRID, args.jobs)] = entry
        print("%s speedup at --jobs %d: %.2fx"
              % (SERIAL_GRID, args.jobs, entry["speedup"]))
        cores = os.cpu_count() or 1
        if args.min_speedup is not None and cores < args.jobs:
            print("speedup gate skipped: needs %d cores, has %d" % (args.jobs, cores))
        elif args.min_speedup is not None and entry["speedup"] < args.min_speedup:
            failures.append("speedup below required %.2fx" % args.min_speedup)

    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if failures:
        print("wall-clock regression detected:")
        for failure in failures:
            print("  " + failure)
        return 1
    if args.check:
        print("wall-clock check passed: %d pairs against %s"
              % (report["pairs"], REFERENCE))
    return 0


if __name__ == "__main__":
    sys.exit(main())


__all__ = [
    "GATES",
    "MODES",
    "REFERENCE",
    "bench_fleet_hotpath",
    "bench_fleet_scale",
    "bench_fleet_smoke",
    "bench_macro",
    "bench_obs_null",
    "bench_parallel_run_all",
    "benchmark_names",
    "check",
    "format_report",
    "peak_rss_bytes",
    "run_harness",
]
