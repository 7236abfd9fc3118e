#!/usr/bin/env python3
"""The ledger benchmark: end-to-end metrics, or a per-layer traced run.

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload in this process and prints a report whose last line is
the result as one JSON object.  Without ``--workload`` (or with several)
every chosen workload runs in a fresh subprocess of its own and ``--out``
collects their results in one file for ``compare.py``.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` wraps each layer's public functions (``trace.py``) and
reports where the seconds of an iteration go; it also times a few
iterations before installing the wrappers, which gives the tracing
overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter, process_time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for _path in (HERE, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import metrics  # noqa: E402
import trace as ledger_trace  # noqa: E402
from workloads import NullRecorder, Tally, build_workloads  # noqa: E402

from repro.bench.wallclock import peak_rss_bytes  # noqa: E402
from repro.units import MB  # noqa: E402

DEFAULT_SEED = 1999
DEFAULT_SECONDS = 20
#: From-scratch set-ups per untraced run; ``setup_s`` is their median
#: and the last one is the state the iterations use.
SETUPS = 3
#: Share of a traced run's time budget spent on untraced reference
#: iterations, for ``bench.trace_overhead_frac``.
REFERENCE_SHARE = 0.25


def cpu_seconds() -> float:
    """User + system CPU seconds of this process and its children
    (``os.times`` would round to clock ticks)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


class Samples:
    """Per-iteration timings of one measured stretch."""

    def __init__(self):
        self.wall: List[float] = []       # raw seconds
        self.cpu: List[float] = []
        self.wall_norm: List[float] = []  # probe-normalised seconds
        self.cpu_norm: List[float] = []
        self.work: List[float] = []
        self.probes: List[float] = []
        # Over the workload's window, a fixed number of iterations: the
        # deterministic numbers (the sums of Outcome.extra among them)
        # and the process's peak RSS at its end (the fleet's media pools
        # grow by about 1 MB a day, so the peak at exit would depend on
        # how many days the machine managed).
        self.extras: Dict[str, float] = {}
        self.peak_rss_mb = 0.0
        self.tape_bytes = 0
        self.protected_bytes = 0
        self.sim_seconds = 0.0
        self.sim_bytes = 0

    def close_block(self, probe_before: float, probe_after: float) -> None:
        """Normalise the samples taken since the previous probe."""
        for index in range(len(self.wall_norm), len(self.wall)):
            self.wall_norm.append(metrics.normalise(
                self.wall[index], probe_before, probe_after))
            self.cpu_norm.append(metrics.normalise(
                self.cpu[index], probe_before, probe_after))

    def iter_s(self) -> float:
        return statistics.median(self.wall_norm)

    def iqr_frac(self) -> float:
        q1, median, q3 = metrics.quartiles(self.wall_norm)
        return (q3 - q1) / median

    def p90(self) -> float:
        """The 90th percentile, once ten samples lie beyond it; else 0."""
        if len(self.wall_norm) < 100:
            return 0.0
        return sorted(self.wall_norm)[int(0.9 * len(self.wall_norm))]


def measure(workload, state, rec, tally: Tally, seconds: float,
            warmups: int, min_iterations: int) -> Samples:
    """Warm up, then iterate until ``seconds`` have passed.

    A probe (and a garbage collection) runs every ``probe_every``
    iterations, outside the timed region, and the loop ends at a probe
    so that every sample sits between two.  Post-condition checks run
    after each iteration, untimed; what an iteration allocated is
    released before the next one starts.
    """
    samples = Samples()
    digest = None
    for _ in range(warmups):
        outcome = workload.iterate(state, rec)
        workload.check(state, outcome, tally)
        tally.add(outcome.tally)
        digest = outcome.sim_digest
        del outcome
    deadline = perf_counter() + seconds
    done = 0
    last_probe = None
    while True:
        if done % workload.probe_every == 0:
            gc.collect()
            now_probe = metrics.probe()
            if last_probe is not None:
                samples.close_block(last_probe, now_probe)
            samples.probes.append(now_probe)
            last_probe = now_probe
            if done >= min_iterations and perf_counter() >= deadline:
                break
        rec.begin_iteration(done)
        cpu_start = cpu_seconds()
        start = perf_counter()
        with rec.span("iteration"):
            outcome = workload.iterate(state, rec)
        samples.wall.append(perf_counter() - start)
        samples.cpu.append(cpu_seconds() - cpu_start)
        rec.end_iteration()
        workload.check(state, outcome, tally)
        tally.add(outcome.tally)
        if outcome.sim_digest is not None:
            tally.expect(digest in (None, outcome.sim_digest),
                         "simulated results differ between iterations")
            digest = outcome.sim_digest
        samples.work.append(outcome.work)
        if done < workload.window:
            for name, value in outcome.extra.items():
                samples.extras[name] = samples.extras.get(name, 0) + value
            samples.tape_bytes += outcome.tape_bytes
            samples.protected_bytes += outcome.protected_bytes
            samples.sim_seconds += outcome.sim_seconds
            samples.sim_bytes += outcome.sim_bytes
        del outcome
        done += 1
        if done == workload.window:
            samples.peak_rss_mb = peak_rss_bytes() / MB
    return samples


def _metric(value: float, unit: str, **details) -> Dict:
    entry = {"value": value, "unit": unit}
    entry.update(details)
    return entry


def run_untraced(workload, seed: int, seconds: float, workdir: str) -> Dict:
    rec = NullRecorder()
    tally = Tally()
    setup_raw, setup_norm = [], []
    state = None
    for attempt in range(SETUPS):
        state = None
        gc.collect()
        before = metrics.probe()
        start = perf_counter()
        state = workload.setup(seed, os.path.join(workdir, "setup%d" % attempt),
                               rec)
        elapsed = perf_counter() - start
        setup_raw.append(elapsed)
        setup_norm.append(metrics.normalise(elapsed, before, metrics.probe()))
    samples = measure(workload, state, rec, tally, seconds, workload.warmups,
                      max(workload.window, workload.min_iterations))
    workload.finish(state, rec, tally)
    tally.expect(len(samples.wall) >= workload.window,
                 "only %d of the %d window iterations ran"
                 % (len(samples.wall), workload.window))
    q1, median, q3 = metrics.quartiles(samples.wall_norm)
    cq1, cpu_median, cq3 = metrics.quartiles(samples.cpu_norm)
    rates = [work / wall for work, wall
             in zip(samples.work, samples.wall_norm)]
    rq1, rate_median, rq3 = metrics.quartiles(rates)
    n = len(samples.wall)
    values = {
        "setup_s": _metric(statistics.median(setup_norm), "s",
                           q1=min(setup_norm), q3=max(setup_norm), n=SETUPS,
                           raw=statistics.median(setup_raw)),
        "iter_s": _metric(median, "s", q1=q1, q3=q3, n=n,
                          raw=statistics.median(samples.wall),
                          p90=samples.p90()),
        "work_per_s": _metric(rate_median, "work/s", q1=rq1, q3=rq3, n=n,
                              raw=statistics.median(
                                  work / wall for work, wall
                                  in zip(samples.work, samples.wall)),
                              work_unit=workload.work_unit),
        "cpu_s": _metric(cpu_median, "s", q1=cq1, q3=cq3, n=n,
                         raw=statistics.median(samples.cpu)),
        "peak_rss_mb": _metric(samples.peak_rss_mb, "MB"),
        "tape_amp": _metric(samples.tape_bytes / samples.protected_bytes,
                            "B/B"),
        "sim_mb_s": _metric(
            samples.sim_bytes / MB / samples.sim_seconds, "MB/s"),
    }
    extra = {"probe_s": statistics.median(samples.probes), "iterations": n,
             "input_digest": workload.input_digest(state)}
    if "sim_err_pct" in samples.extras:
        extra["sim_err_pct"] = (samples.extras["sim_err_pct"]
                                / workload.window)
    return _result(workload, seed, seconds, 0, tally, values, extra)


def run_traced(workload, seed: int, seconds: float, workdir: str,
               spans_path: Optional[str]) -> Dict:
    recorder = ledger_trace.SpanRecorder()
    tally = Tally()
    patches = ledger_trace.install(recorder)
    try:
        state = workload.setup(seed, os.path.join(workdir, "setup"), recorder)
    finally:
        ledger_trace.uninstall(patches)
    reference = measure(workload, state, NullRecorder(), tally,
                        seconds * REFERENCE_SHARE, workload.warmups,
                        2 * workload.probe_every)
    patches = ledger_trace.install(recorder)
    try:
        traced = measure(workload, state, recorder, tally,
                         seconds * (1 - REFERENCE_SHARE), 1,
                         workload.min_iterations)
        workload.finish(state, recorder, tally)
    finally:
        ledger_trace.uninstall(patches)
    if spans_path:
        recorder.dump(spans_path)
    n = len(traced.wall)
    bench = {
        "calib_s": statistics.median(traced.probes),
        "first_iter_s": traced.wall[0],
        "iter_s": statistics.median(traced.wall),
        "iter_iqr_frac": traced.iqr_frac(),
        "trace_overhead_frac": traced.iter_s() / reference.iter_s() - 1.0,
        "days": workload.days,
        "digest_mismatches": (traced.extras.get("digest_mismatches", 0)
                              / workload.window),
        "sim_err_pct": traced.extras.get("sim_err_pct", 0) / workload.window,
        "day_ms_p90": 1e3 * traced.p90(),
    }
    # Post-condition checks were traced after the warm-up and after
    # each of the n iterations.
    context = metrics.TraceContext(
        recorder.summary(range(n)),
        recorder.summary([ledger_trace.OUTSIDE]),
        n, n + 1, recorder.registry_counters(), bench)
    units = {definition["name"]: definition["unit"]
             for definition in metrics.per_layer_definitions()}
    values = {name: _metric(value, units[name])
              for name, value in metrics.per_layer_values(context).items()}
    extra = {"iterations": n, "reference_iterations": len(reference.wall),
             "phases": _phases(context), "root_s": context.timed.root_s / n}
    return _result(workload, seed, seconds, 1, tally, values, extra)


def _phases(context: metrics.TraceContext) -> List[List]:
    """The iteration's phases in execution order: [name, seconds]."""
    timed = context.timed
    return [[name, context.per_iter(timed.inclusive(layer, name))]
            for layer, name in timed.functions
            if layer == ledger_trace.BENCH and name != "iteration"
            and timed.count(layer, name)]


def _result(workload, seed, seconds, traced, tally, values, extra) -> Dict:
    result = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": traced, "correct": tally.failed == 0,
        "attempted": tally.attempted, "failed": tally.failed,
        "fail_ratio": tally.failed / max(tally.attempted, 1),
        "problems": tally.problems, "metrics": values,
    }
    result.update(extra)
    return result


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def format_untraced(result: Dict) -> str:
    lines = ["== %s  seed %d  %d iterations in %.0f s  (tracing off)"
             % (result["workload"], result["seed"], result["iterations"],
                result["seconds"])]
    for name, entry in result["metrics"].items():
        unit = entry["unit"]
        if name == "work_per_s":
            unit = "%s/s" % entry["work_unit"]
        line = "  %-12s %14.6f %-14s" % (name, entry["value"], unit)
        if "q1" in entry:
            line += " q1 %.6f q3 %.6f n=%d" % (entry["q1"], entry["q3"],
                                              entry["n"])
        if "raw" in entry:
            line += "  raw %.6f" % entry["raw"]
        if entry.get("p90"):
            line += "  p90 %.6f" % entry["p90"]
        lines.append(line)
    lines.append("  %-12s %14.6f %-14s %d failed of %d attempted"
                 % ("fail_ratio", result["fail_ratio"], "failed/attempted",
                    result["failed"], result["attempted"]))
    if "sim_err_pct" in result:
        lines.append("  %-12s %14.6f %-14s vs. the paper's Table 2"
                     % ("sim_err_pct", result["sim_err_pct"], "%"))
    lines.append("  probe %.4f s (reference %.4f s); time metrics are "
                 "probe-normalised, raw beside them"
                 % (result["probe_s"], metrics.PROBE_REFERENCE_S))
    return "\n".join(lines + _problem_lines(result))


def format_traced(result: Dict) -> str:
    values = {name: entry["value"]
              for name, entry in result["metrics"].items()}
    root = result["root_s"]
    lines = ["== %s  seed %d  %d traced iterations (%d untraced reference)"
             % (result["workload"], result["seed"], result["iterations"],
                result["reference_iterations"]),
             "  where the seconds go, per iteration (%.4f s)" % root,
             "  %-28s %10s %7s" % ("phase", "seconds", "share")]
    for name, seconds in result["phases"]:
        lines.append("  %-28s %10.4f %6.1f%%"
                     % (name, seconds, 100 * seconds / root))
    lines.append("  %-28s %10s %7s %10s" % ("layer", "self s", "share",
                                            "calls"))
    layers = sorted(metrics.ALL_LAYERS,
                    key=lambda layer: -values["%s.self_s" % layer])
    for layer in layers:
        self_s = values["%s.self_s" % layer]
        lines.append("  %-28s %10.4f %6.1f%% %10.0f"
                     % (layer, self_s, 100 * self_s / root,
                        values["%s.calls" % layer]))
    lines.append("  %-28s %10.4f %6.1f%%" % (
        "sum of layers", sum(values["%s.self_s" % layer]
                             for layer in layers), 100.0))
    lines.append("  other per-layer metrics")
    for name, _unit, _better, _value in metrics.EXTRAS:
        entry = result["metrics"][name]
        lines.append("  %-28s %14.6f %s" % (name, entry["value"],
                                            entry["unit"]))
    lines.append("  %d failed of %d attempted checks"
                 % (result["failed"], result["attempted"]))
    return "\n".join(lines + _problem_lines(result))


def _problem_lines(result: Dict) -> List[str]:
    return ["  FAILED: %s" % problem for problem in result["problems"]]


def contract_line(result: Dict) -> str:
    """The result as the last line of standard output."""
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in result["metrics"].items()},
    })


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run_one(name: str, seed: int, seconds: float, traced: bool, smoke: bool,
            spans_path: Optional[str] = None) -> Dict:
    workload = build_workloads(smoke)[name]
    workdir = os.path.join(ROOT, ".bench_work", "%s-%d" % (name, os.getpid()))
    os.makedirs(workdir)
    try:
        if traced:
            return run_traced(workload, seed, seconds, workdir, spans_path)
        return run_untraced(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_each_in_subprocess(names: List[str], args) -> Dict[str, Dict]:
    """One fresh interpreter per workload, so that no workload inherits
    another's heap, caches or peak RSS."""
    results = {}
    scratch = os.path.join(ROOT, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    for name in names:
        out = os.path.join(scratch, "result-%s-%d.json" % (name, os.getpid()))
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--out", out]
        if args.smoke:
            command.append("--smoke")
        try:
            completed = subprocess.run(command)
            if completed.returncode != 0:
                raise SystemExit("workload %s exited with code %d"
                                 % (name, completed.returncode))
            with open(out) as handle:
                results[name] = json.load(handle)[name]
        finally:
            if os.path.exists(out):
                os.remove(out)
    return results


def main(argv: Optional[List[str]] = None) -> int:
    names = list(build_workloads())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: all four")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long each workload measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the detailed results as JSON")
    parser.add_argument("--spans", help="traced run of one workload: write "
                        "every span to this .npz file")
    parser.add_argument("--smoke", action="store_true",
                        help="the tiny sizing of the harness self-test")
    args = parser.parse_args(argv)
    chosen = args.workload or names
    if len(chosen) == 1:
        result = run_one(chosen[0], args.seed, args.seconds, bool(args.trace),
                         args.smoke, args.spans)
        results = {chosen[0]: result}
        print(format_traced(result) if args.trace
              else format_untraced(result))
    else:
        results = run_each_in_subprocess(chosen, args)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(results, handle, indent=1, sort_keys=True)
            handle.write("\n")
    if len(chosen) == 1:
        # A completed run exits 0; whether its outputs were correct is
        # in the result.
        print(contract_line(results[chosen[0]]))
        return 0
    return 0 if all(result["correct"] for result in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
