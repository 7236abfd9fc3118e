"""Metric definitions of the ledger benchmark, and the machine-speed probe.

``BENCHMARK.json`` lists exactly the names, units and directions given
here (``test_ledger.py`` checks the two agree).  The hot and cold
workload of each layer — the (end-to-end metric, workload) its metrics
should move — is the README's prediction table, because the contract's
schema has no field for it.

Timing on this sandbox drifts by 20-60 % over tens of seconds (a silent
host-level slowdown: no steal time is reported, CPU time inflates with
wall time, and interpreted code slows more than memcpy).  Every time
metric is therefore **probe-normalised**: a fixed probe runs between
iterations, and each sample is scaled by ``PROBE_REFERENCE_S`` over the
mean of its two adjacent probes.  The probe is code of the benchmark,
independent of ``src/``, mixing bytecode with memory and zlib work in
roughly the proportion the workloads do.  Raw seconds are printed
beside every normalised value.
"""

from __future__ import annotations

import statistics
import zlib
from time import perf_counter
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

import trace as ledger_trace

# -- the probe --------------------------------------------------------------

#: What one probe costs on this sandbox when it is quiet; normalised
#: seconds are seconds at that machine speed.
PROBE_REFERENCE_S = 0.020

_PROBE_A = np.frombuffer(bytes(range(256)) * (4 << 12), dtype=np.uint8).copy()
_PROBE_B = _PROBE_A[::-1].copy()
_PROBE_OUT = np.empty_like(_PROBE_A)
_PROBE_CHUNK = bytes(_PROBE_A[:1 << 19])


def probe() -> float:
    """Seconds a fixed mix of interpreter, memory and zlib work takes."""
    start = perf_counter()
    acc = 0
    table: Dict[int, int] = {}
    for i in range(70_000):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
        table[acc & 1023] = i
    for _ in range(3):
        np.bitwise_xor(_PROBE_A, _PROBE_B, out=_PROBE_OUT)
        buffer = bytearray(4 * len(_PROBE_CHUNK))
        view = memoryview(buffer)
        for i in range(4):
            view[i * len(_PROBE_CHUNK):(i + 1) * len(_PROBE_CHUNK)] = \
                _PROBE_CHUNK
        bytes(buffer)
    zlib.compress(_PROBE_CHUNK, 1)
    return perf_counter() - start


def normalise(seconds: float, probe_before: float, probe_after: float) -> float:
    return seconds * PROBE_REFERENCE_S / ((probe_before + probe_after) / 2)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# -- end-to-end metrics -----------------------------------------------------

#: name, unit, better, bound.  ``fail_ratio`` is the contract's
#: ``failed``/``attempted`` pair and must be 0; it has no entry because
#: the contract admits no metric that reads 0.
END_TO_END: List[Dict] = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "iter_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "work_per_s", "unit": "work/s", "better": "higher",
     "bound": 0.25},
    {"name": "cpu_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.2},
    {"name": "tape_amp", "unit": "B/B", "better": "lower", "bound": 0.05},
    {"name": "sim_mb_s", "unit": "MB/s", "better": "higher", "bound": 0.05},
]

# -- per-layer metrics ------------------------------------------------------


class TraceContext:
    """What a per-layer metric is computed from."""

    def __init__(self, timed: ledger_trace.TraceSummary,
                 outside: ledger_trace.TraceSummary, iterations: int,
                 checked: int, registry: Dict[str, float],
                 bench: Dict[str, float]):
        self.timed = timed        # spans of the timed traced iterations
        self.outside = outside    # set-up, post-condition checks, finish
        self.iterations = iterations
        self.checked = checked    # iterations whose post-checks ran
        self.registry = registry  # REGISTRY counters over timed iterations
        self.bench = bench        # numbers the runner measured itself

    def per_iter(self, value: float) -> float:
        return value / self.iterations

    def per_check(self, value: float) -> float:
        return value / self.checked if self.checked else 0.0

    def counter(self, name: str) -> float:
        return self.per_iter(self.timed.counters.get(name, 0)
                             + self.registry.get(name, 0))


def _inclusive(layer: str, *names: str) -> Callable[[TraceContext], float]:
    return lambda ctx: ctx.per_iter(ctx.timed.inclusive(layer, *names))


def _calls(layer: str, *names: str) -> Callable[[TraceContext], float]:
    return lambda ctx: ctx.per_iter(ctx.timed.count(layer, *names))


def _counter(name: str) -> Callable[[TraceContext], float]:
    return lambda ctx: ctx.counter(name)


def _bench(name: str) -> Callable[[TraceContext], float]:
    return lambda ctx: ctx.bench.get(name, 0.0)


def _ratio(top: Callable, bottom: Callable) -> Callable[[TraceContext], float]:
    def value(ctx):
        denominator = bottom(ctx)
        return top(ctx) / denominator if denominator else 0.0
    return value


def _phase_day_ms(phase: str) -> Callable[[TraceContext], float]:
    """Milliseconds per simulated day of one campaign phase."""
    return lambda ctx: (1e3 * ctx.per_iter(ctx.timed.inclusive(
        ledger_trace.BENCH, phase)) / ctx.bench.get("days", 1))


def _cache_hit_rate(ctx: TraceContext) -> float:
    hits = ctx.registry.get("cache.hits", 0)
    lookups = (hits + ctx.registry.get("cache.misses", 0)
               + ctx.registry.get("cache.run_misses", 0))
    return hits / lookups if lookups else 0.0


_FS = "wafl.filesystem"

# name, unit, better, value.  Which workload each should move (hot) and
# leave alone (cold) is the README's prediction table.
EXTRAS: List[Tuple[str, str, str, Callable]] = [
    ("sim.events", "count", "lower", _counter("sim.events")),
    ("perf.engine_s", "s", "lower",
     _inclusive("perf", "TimedRun.add_job", "TimedRun.add_ops")),
    ("perf.replay_s", "s", "lower", _inclusive("perf", "TimedRun.run")),
    ("perf.ops_in", "count", "lower", _counter("perf.ops_in")),
    ("perf.ops_coalesced", "count", "higher",
     _counter("executor.ops_coalesced")),
    ("wafl.filesystem.mount_s", "s", "lower",
     _inclusive(_FS, "WaflFilesystem.mount")),
    ("wafl.filesystem.clone_s", "s", "lower",
     _inclusive(_FS, "WaflFilesystem.clone_volume")),
    ("wafl.filesystem.cp_s", "s", "lower",
     _inclusive(_FS, "WaflFilesystem.consistency_point")),
    ("wafl.filesystem.cp_count", "count", "lower",
     _calls(_FS, "WaflFilesystem.consistency_point")),
    ("wafl.filesystem.snapshot_s", "s", "lower",
     _inclusive(_FS, "WaflFilesystem.snapshot_create",
                "WaflFilesystem.snapshot_delete")),
    ("wafl.filesystem.fsck_s", "s", "lower",
     lambda ctx: ctx.per_check(ctx.outside.inclusive(_FS, "fsck"))),
    ("wafl.buffercache.hit_rate", "ratio", "higher", _cache_hit_rate),
    ("wafl.buffercache.misses", "count", "lower",
     lambda ctx: ctx.counter("cache.misses") + ctx.counter("cache.run_misses")),
    ("raid.blocks_read", "count", "lower", _counter("volume.read_blocks")),
    ("raid.blocks_written", "count", "lower", _counter("volume.write_blocks")),
    ("raid.parity_check_s", "s", "lower",
     lambda ctx: ctx.per_check(
         ctx.outside.inclusive("raid", "RaidVolume.verify_parity"))),
    ("storage.disk.reads", "count", "lower",
     _calls("storage.disk", "VirtualDisk.read_run", "VirtualDisk.read_block")),
    ("storage.disk.writes", "count", "lower",
     _calls("storage.disk", "VirtualDisk.write_run",
            "VirtualDisk.write_block")),
    ("storage.tape.bytes_written", "B", "lower", _counter("tape.write_bytes")),
    ("storage.tape.bytes_read", "B", "lower", _counter("tape.read_bytes")),
    ("storage.persist.save_s", "s", "lower",
     _inclusive("storage.persist", "save_volume", "save_media")),
    ("storage.persist.load_s", "s", "lower",
     _inclusive("storage.persist", "load_volume", "load_media")),
    ("storage.persist.bytes_out", "B", "lower",
     _counter("storage.persist.bytes_out")),
    ("dumpfmt.bytes_written", "B", "lower", _counter("dumpfmt.bytes_written")),
    ("nvram.bytes_logged", "B", "lower", _counter("nvram.bytes_logged")),
    ("backup.logical.dump_s", "s", "lower",
     _inclusive("backup.logical", "LogicalDump.run")),
    ("backup.logical.restore_s", "s", "lower",
     _inclusive("backup.logical", "LogicalRestore.run")),
    ("backup.physical.dump_s", "s", "lower",
     _inclusive("backup.physical", "ImageDump.run")),
    ("backup.physical.restore_s", "s", "lower",
     _inclusive("backup.physical", "ImageRestore.run")),
    ("backup.verify.verify_s", "s", "lower",
     _inclusive("backup.verify", "verify_trees")),
    ("catalog.save_s", "s", "lower",
     _inclusive("catalog", "BackupCatalog.save")),
    ("catalog.commit_s", "s", "lower",
     _inclusive("catalog", "BackupCatalog.commit_dirty")),
    ("catalog.sync_s", "s", "lower",
     _inclusive("catalog", "BackupCatalog.sync_journal")),
    ("manager.plain_day_ms", "ms", "lower", _phase_day_ms("plain")),
    ("manager.prune_s", "s", "lower", _inclusive("manager", "prune")),
    ("manager.restore_s", "s", "lower",
     _inclusive("manager", "restore_point_in_time")),
    ("chaos.oracle_day_ms", "ms", "lower", _phase_day_ms("oracle")),
    ("chaos.fault_day_ms", "ms", "lower", _phase_day_ms("chaos")),
    ("chaos.overhead_ratio", "ratio", "lower",
     _ratio(_phase_day_ms("chaos"), _phase_day_ms("oracle"))),
    ("chaos.faults_hit", "count", "higher", _counter("chaos.faults_injected")),
    ("chaos.faults_missed", "count", "lower", _counter("chaos.faults_missed")),
    ("chaos.recover_s", "s", "lower",
     _inclusive("chaos", "recover_crash", "replay_dump")),
    ("chaos.digest_mismatches", "count", "lower", _bench("digest_mismatches")),
    ("fleet.day_ms_p90", "ms", "lower", _bench("day_ms_p90")),
    ("fleet.admit_s", "s", "lower",
     _inclusive("fleet", "FleetScheduler.admit")),
    ("fleet.state_save_s", "s", "lower",
     lambda ctx: ctx.outside.inclusive("fleet", "Tenant.save_state")),
    ("fleet.restart_s", "s", "lower",
     lambda ctx: ctx.outside.inclusive(ledger_trace.BENCH, "restart")),
    ("fleet.checkpoint_s", "s", "lower",
     lambda ctx: ctx.outside.inclusive(ledger_trace.BENCH, "checkpoint")),
    ("workload.populate_s", "s", "lower",
     lambda ctx: ctx.outside.inclusive("workload",
                                       "WorkloadGenerator.populate")),
    ("workload.aging_s", "s", "lower",
     lambda ctx: ctx.outside.inclusive("workload", "age_filesystem")),
    ("workload.mutate_s", "s", "lower",
     _inclusive("workload", "apply_mutations")),
    ("bench.calib_s", "s", "lower", _bench("calib_s")),
    ("bench.first_iter_s", "s", "lower", _bench("first_iter_s")),
    ("bench.iter_s", "s", "lower", _bench("iter_s")),
    ("bench.iter_iqr_frac", "ratio", "lower", _bench("iter_iqr_frac")),
    ("bench.trace_overhead_frac", "ratio", "lower",
     _bench("trace_overhead_frac")),
    ("bench.root_frac", "ratio", "lower",
     lambda ctx: (ctx.timed.layer_self_s(ledger_trace.BENCH)
                  / ctx.timed.root_s if ctx.timed.root_s else 0.0)),
    ("bench.sim_err_pct", "%", "lower", _bench("sim_err_pct")),
]

ALL_LAYERS: Tuple[str, ...] = tuple(ledger_trace.LAYERS) + (ledger_trace.BENCH,)


def per_layer_definitions() -> List[Dict]:
    """Every per-layer metric as ``BENCHMARK.json`` lists it."""
    out = []
    for layer in ALL_LAYERS:
        out.append({"name": "%s.self_s" % layer, "unit": "s",
                    "better": "lower"})
        out.append({"name": "%s.calls" % layer, "unit": "count",
                    "better": "lower"})
    for name, unit, better, _value in EXTRAS:
        out.append({"name": name, "unit": unit, "better": better})
    return out


def per_layer_values(ctx: TraceContext) -> Dict[str, float]:
    values: Dict[str, float] = {}
    for layer in ALL_LAYERS:
        values["%s.self_s" % layer] = ctx.per_iter(
            ctx.timed.layer_self_s(layer))
        values["%s.calls" % layer] = ctx.per_iter(ctx.timed.layer_calls(layer))
    for name, _unit, _better, value in EXTRAS:
        values[name] = float(value(ctx))
    return values

