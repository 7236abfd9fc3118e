"""Wall-clock performance harness: how fast the *simulator itself* runs.

Everything else in :mod:`repro.bench` measures simulated seconds; this
module measures real ones.  It times the hot paths the fast-path work
targets (bulk volume I/O, the block cache, the dump stream codec, the
sim kernel) plus the end-to-end ``run_basic`` macro benchmark, and emits
a JSON report that doubles as a committed regression baseline
(``BENCH_wallclock.json`` at the repository root).

Raw wall seconds are meaningless across machines, so every report
includes a *calibration* measurement: the time a fixed pure-Python
workload takes on this interpreter.  Regression checks compare
calibration-normalized seconds (``seconds / calibration_seconds``), which
cancels machine speed and leaves only changes to the code under test.

Usage::

    python -m repro.bench.wallclock --mode smoke            # print report
    python -m repro.bench.wallclock --mode full --write-baseline
    python -m repro.bench.wallclock --mode smoke --check --tolerance 0.2
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional

from repro.bench.configs import FULLSCALE_DATA_CAP
from repro.units import MB

SCHEMA_VERSION = 1
BASELINE_NAME = "BENCH_wallclock.json"

# Smoke mode mirrors the tier-1 bench tests' tiny testbed (~12 MB home
# volume); full mode is the default 1:1000 replica the tables use.
SMOKE_SCALE = 16000
SMOKE_AGING_ROUNDS = 1


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


def _stamp_rss(entry: Dict) -> Dict:
    rss = peak_rss_bytes()
    if rss is not None:
        entry["peak_rss_bytes"] = rss
    return entry


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
# Micro benchmarks
# ---------------------------------------------------------------------------

def bench_volume_io() -> Dict[str, float]:
    """Bulk read_run/write_run through RAID-4 parity, no cache."""
    from repro.raid.layout import geometry_for_capacity
    from repro.raid.volume import RaidVolume

    geometry = geometry_for_capacity(8 * MB, ngroups=2, ndata_disks=6)
    volume = RaidVolume(geometry, name="wallclock")
    bs = volume.block_size
    run_blocks = 64
    span = volume.nblocks - run_blocks
    payload = (bytes(range(256)) * ((run_blocks * bs) // 256 + 1))[: run_blocks * bs]

    moved = 0
    start = time.perf_counter()
    for rep in range(3):
        for base in range(0, span, run_blocks):
            volume.write_run(base, payload)
            moved += run_blocks * bs
        for base in range(0, span, run_blocks):
            data = volume.read_run(base, run_blocks)
            moved += len(data)
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "rate": moved / MB / seconds, "unit": "MB/s"}


def bench_block_cache() -> Dict[str, float]:
    """get_run/put_run hit paths of the LRU block cache."""
    from repro.wafl.buffercache import BlockCache

    nblocks = 512
    cache = BlockCache(capacity_blocks=2 * nblocks)
    cache.put_run(0, nblocks)

    ops = 0
    start = time.perf_counter()
    for rep in range(40):
        for base in range(0, nblocks - 8, 8):
            cache.get_run(base, 8)
            ops += 8
        cache.put_run(0, nblocks)
        ops += nblocks
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "rate": ops / seconds, "unit": "block-ops/s"}


def bench_dump_stream() -> Dict[str, float]:
    """Dump-format write + read round trip through an in-memory sink."""
    from repro.dumpfmt.records import RecordHeader, TapeLabel
    from repro.dumpfmt.spec import TS_INODE
    from repro.dumpfmt.stream import (
        DumpStreamReader,
        DumpStreamWriter,
        data_to_segments,
    )
    from repro.wafl.inode import FileType

    # Sized so the round trip takes >= 0.25 s on a typical machine: at the
    # original 80 x 48 KB x 3 reps it ran ~0.013 s — beneath the ~0.017 s
    # calibration workload itself, where a 20% regression gate is noise.
    file_data = (bytes(range(256)) * 256)[: 64 * 1024]
    nfiles = 600
    reps = 6

    start = time.perf_counter()
    for rep in range(reps):
        sink = io.BytesIO()
        writer = DumpStreamWriter(sink, date=100, ddate=0)
        writer.write_tape_header(TapeLabel("wall", "fs", "/", 0, 2, nfiles + 8))
        writer.write_clri([], nfiles + 8)
        writer.write_bits(range(2, nfiles + 2), nfiles + 8)
        for ino in range(2, nfiles + 2):
            header = RecordHeader(TS_INODE, ino)
            header.size = len(file_data)
            header.ftype = FileType.REGULAR
            writer.begin_inode(header)
            writer.feed_segments(data_to_segments(file_data))
            writer.end_inode()
        writer.write_end()

        sink.seek(0)
        reader = DumpStreamReader(sink)
        reader.read_preamble()
        while reader.next_inode() is not None:
            pass
    seconds = time.perf_counter() - start
    moved = 2 * reps * nfiles * len(file_data)  # written + read back
    return {"seconds": seconds, "rate": moved / MB / seconds, "unit": "MB/s"}


def bench_blockmap() -> Dict[str, float]:
    """Block-map churn: batched frees, deferred-reuse commits, span builds.

    Models a consistency-point-heavy workload on a fragmented volume: every
    round allocates a striped working set, frees alternating halves with
    ``free_active_many`` (one half deferred), commits the deferred reuse,
    then builds incremental read spans from the fragmented active plane.
    """
    import numpy as np

    from repro.backup.physical.incremental import (
        coalesce_block_array,
        spans_with_readthrough,
    )
    from repro.wafl.blockmap import BlockMap

    nblocks = 48_000
    blockmap = BlockMap(nblocks, reserved=64)
    rng = np.random.RandomState(4242)

    ops = 0
    start = time.perf_counter()
    for rep in range(6):
        allocated: List[int] = []
        cursor = blockmap.reserved
        while len(allocated) < 24_000:
            run_start, count = blockmap.allocate_run(256, cursor)
            allocated.extend(range(run_start, run_start + count))
            cursor = run_start + count
        arr = np.asarray(allocated, dtype=np.int64)
        # Fragment: free a pseudo-random third immediately and a third
        # deferred; the surviving third leaves a shredded active plane
        # for the span build below.
        lot = rng.rand(arr.size)
        blockmap.free_active_many(arr[lot < 0.34], defer_reuse=False)
        blockmap.free_active_many(arr[(lot >= 0.34) & (lot < 0.67)],
                                  defer_reuse=True)
        ops += arr.size
        ops += blockmap.commit_deferred_reuse()
        runs = coalesce_block_array(blockmap.plane_blocks(0), max_run=64)
        spans = spans_with_readthrough(runs, gap_threshold=32, max_span=1024)
        ops += len(spans)
        # Drain the map so the next round starts clean.
        remaining = blockmap.plane_blocks(0)
        if remaining.size:
            blockmap.free_active_many(remaining)
            blockmap.commit_deferred_reuse()
            ops += int(remaining.size)
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "rate": ops / seconds, "unit": "block-ops/s"}


def bench_blockmap_planes() -> Dict[str, float]:
    """Whole-map operations on a 4 Mi-word sparse map: ``snapshot_create``,
    serialize every fblock as one run, ``deserialize``, ``snapshot_delete``
    (with its extent rebuild) — the address-space-proportional work of a
    snapshot cycle and a mount, sized to >= 0.25 s like ``dump_stream``.
    """
    import numpy as np

    from repro.wafl.blockmap import BlockMap

    nblocks = 4 * 1024 * 1024
    blockmap = BlockMap(nblocks, reserved=64)
    rng = np.random.RandomState(1414)
    for cursor in sorted(rng.randint(64, nblocks - 64, size=200)):
        blockmap.allocate_run(int(rng.randint(1, 64)), int(cursor))
    reps = 10

    start = time.perf_counter()
    for rep in range(reps):
        plane = 1 + rep % 31
        blockmap.snapshot_create(plane)
        image = blockmap.serialize_fblock_run(0, blockmap.n_fblocks())
        blockmap = BlockMap.deserialize(nblocks, 64, image)
        # Blocks only the snapshot holds, so the delete rebuilds extents.
        blockmap.free_active_many(blockmap.plane_blocks(0)[:8].tolist())
        blockmap.snapshot_delete(plane)
    seconds = time.perf_counter() - start
    words = 4 * reps * nblocks  # one pass of the map per operation
    return {"seconds": seconds, "rate": words / 1e6 / seconds,
            "unit": "Mwords/s"}


def bench_sim_kernel() -> Dict[str, float]:
    """Timeout / Resource / Store hot paths of the event kernel."""
    from repro.sim.core import Simulation
    from repro.sim.resources import Resource, Store

    sim = Simulation()
    cpu = Resource(sim, capacity=2, name="cpu")
    store = Store(sim, capacity=64, name="buf")
    rounds = 20_000
    events = {"count": 0}

    def producer():
        for i in range(rounds):
            request = yield cpu.acquire()
            yield sim.timeout(0.001)
            cpu.release(request)
            yield store.put(i, weight=1)
            events["count"] += 4

    def consumer():
        for _ in range(rounds):
            yield store.get()
            yield sim.timeout(0.0005)
            events["count"] += 2

    sim.process(producer())
    sim.process(consumer())
    start = time.perf_counter()
    sim.run()
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "rate": events["count"] / seconds,
            "unit": "events/s"}


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


MICRO_BENCHMARKS: Dict[str, Callable[[], Dict[str, float]]] = {
    "micro.volume_io": bench_volume_io,
    "micro.block_cache": bench_block_cache,
    "micro.blockmap": bench_blockmap,
    "micro.blockmap_planes": bench_blockmap_planes,
    "micro.dump_stream": bench_dump_stream,
    "micro.obs_null": bench_obs_null,
    "micro.sim_kernel": bench_sim_kernel,
}


# ---------------------------------------------------------------------------
# Macro benchmark: the basic four-operation experiment, end to end
# ---------------------------------------------------------------------------

def _macro_config(mode: str):
    from repro.bench.configs import EliotConfig, fullscale_config

    if mode == "smoke":
        return EliotConfig(scale=SMOKE_SCALE, aging_rounds=SMOKE_AGING_ROUNDS)
    if mode == "fullscale":
        return fullscale_config()
    return EliotConfig()


def bench_macro(mode: str, repeats: Optional[int] = None) -> Dict[str, Dict[str, float]]:
    """Time testbed construction and ``run_basic`` on a fresh environment.

    ``run_basic`` is the Tables 2/3 experiment every ``run_all`` grid runs
    (dump, restore, verify per strategy, each on its own clone), so this
    is the only Table 2/3 timing at any scale.  The environment is built
    directly (bypassing the module-level cache) so repeated invocations —
    and the pytest gate running alongside other bench tests — always
    measure a cold build.  Smoke mode is short enough to be noisy, so it
    takes the best of two runs; garbage from whatever ran before is
    collected outside the timed regions.
    """
    import gc

    from repro.bench.configs import ExperimentEnv
    from repro.bench.harness import run_basic

    if repeats is None:
        repeats = 2 if mode == "smoke" else 1
    build_seconds = float("inf")
    run_seconds = float("inf")
    results = None
    for _ in range(repeats):
        env = ExperimentEnv(_macro_config(mode))
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
    return {
        "macro.%s.build_env" % mode: {"seconds": build_seconds},
        "macro.%s.run_basic" % mode: {
            "seconds": run_seconds,
            "rate": moved / MB / run_seconds,
            "unit": "MB/s",
        },
    }


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
    import gc
    import shutil
    import tempfile

    from repro.fleet import FleetService

    spec = _fleet_smoke_spec()
    seconds = float("inf")
    totals = None
    for _ in range(2):
        root = tempfile.mkdtemp(prefix="repro-fleet-bench-")
        try:
            gc.collect()
            start = time.perf_counter()
            FleetService.init_fleet(root, spec)
            totals = FleetService(root).run_days(3)
            seconds = min(seconds, time.perf_counter() - start)
        finally:
            shutil.rmtree(root, ignore_errors=True)
    return {"seconds": seconds, "rate": totals["jobs"] / seconds,
            "unit": "jobs/s"}


def bench_fleet_hotpath() -> Dict[str, float]:
    """Warm steady-state fleet throughput: the daily hot path itself.

    Builds the smoke fleet once, runs two warm-up days (worker-resident
    volumes built, first full dumps behind us), then times 30 consecutive
    ``run_day`` calls — admission, sticky-affinity dispatch against the
    resident cache, dump deltas, retention, and the group-committed
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
    import gc
    import shutil
    import tempfile

    from repro.fleet import FleetService

    spec = _fleet_smoke_spec(cartridges=24)
    days = 30
    root = tempfile.mkdtemp(prefix="repro-fleet-bench-")
    try:
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
    finally:
        shutil.rmtree(root, ignore_errors=True)


def bench_fleet_scale(jobs: int = 1) -> Dict[str, float]:
    """A 24-tenant, 4-drive fleet run for 14 simulated days, full cycle.

    The scale complement to the hot-path bench: small per-tenant volumes
    (300 blocks/disk) keep each dump cheap so the fleet machinery —
    admission across four drive lanes, per-tenant journals, retention,
    end-of-run persistence of 24 volumes and catalogs — is what's
    measured.  Init (tenant format + populate) stays outside the timed
    region; everything ``run_days`` does, including the final
    checkpoint, is inside it.
    """
    import shutil
    import tempfile

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
    root = tempfile.mkdtemp(prefix="repro-fleet-bench-")
    try:
        FleetService.init_fleet(root, spec)
        start = time.perf_counter()
        totals = FleetService(root, jobs=jobs).run_days(days)
        seconds = time.perf_counter() - start
        return {"seconds": seconds, "rate": totals["jobs"] / seconds,
                "unit": "jobs/s"}
    finally:
        shutil.rmtree(root, ignore_errors=True)


# ---------------------------------------------------------------------------
# Harness driver
# ---------------------------------------------------------------------------

def _profiled(name: str, fn: Callable[[], Dict], top: int) -> Dict:
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


def run_harness(mode: str = "smoke", quiet: bool = True,
                profile: Optional[int] = None) -> Dict:
    """Run calibration + micro benchmarks + the mode's macro benchmarks.

    ``full`` mode includes the smoke macro as well, so a full baseline
    carries every key a smoke check needs.  ``fullscale`` runs the micros
    plus the paper-geometry macro only.  With ``profile`` set, each
    benchmark runs once under cProfile and its top-N hotspots go to
    stderr (profiled timings are *not* comparable to unprofiled ones).
    """
    if mode not in ("smoke", "full", "fullscale"):
        raise ValueError(
            "mode must be 'smoke', 'full' or 'fullscale', got %r" % (mode,))

    def note(text: str) -> None:
        if not quiet:
            print(text, file=sys.stderr)

    note("calibrating ...")
    report: Dict = {
        "schema": SCHEMA_VERSION,
        "mode": mode,
        "calibration_seconds": calibrate(),
        "benchmarks": {},
    }
    for name, bench in MICRO_BENCHMARKS.items():
        note("running %s ..." % name)
        if profile:
            report["benchmarks"][name] = _stamp_rss(
                _profiled(name, bench, profile))
            continue
        # Best of three: micro runs are fractions of a second and a single
        # scheduler hiccup would dominate them.
        report["benchmarks"][name] = _stamp_rss(min(
            (bench() for _ in range(3)), key=lambda entry: entry["seconds"]
        ))
    note("running parallel.run_all_smoke ...")
    if profile:
        report["benchmarks"]["parallel.run_all_smoke"] = _profiled(
            "parallel.run_all_smoke", bench_parallel_run_all, profile)
    else:
        report["benchmarks"]["parallel.run_all_smoke"] = bench_parallel_run_all(1)
    _stamp_rss(report["benchmarks"]["parallel.run_all_smoke"])
    if mode in ("smoke", "full"):
        fleet_benches = (("macro.fleet.smoke", bench_fleet_smoke),
                         ("macro.fleet.hotpath", bench_fleet_hotpath),
                         ("macro.fleet.scale", bench_fleet_scale))
        for name, bench in fleet_benches:
            note("running %s ..." % name)
            if profile:
                report["benchmarks"][name] = _profiled(name, bench, profile)
            else:
                report["benchmarks"][name] = bench()
            _stamp_rss(report["benchmarks"][name])
    if mode == "smoke":
        macro_modes = ["smoke"]
    elif mode == "full":
        macro_modes = ["smoke", "full"]
    else:
        macro_modes = ["fullscale"]
    for macro_mode in macro_modes:
        note("running macro (%s) ..." % macro_mode)
        run_macro = lambda m=macro_mode: bench_macro(m)  # noqa: E731
        if profile:
            entries = _profiled("macro.%s" % macro_mode, run_macro, profile)
        else:
            entries = run_macro()
        for entry in entries.values():
            _stamp_rss(entry)
        report["benchmarks"].update(entries)
    return report


#: Benchmark keys whose ``peak_rss_bytes`` is gated by check_regression.
#: Only the full-scale macros: their multi-GB footprint is what the COW
#: clone / fork-sharing work protects, and they run in a known order;
#: micro entries' RSS is an order-dependent high-water mark, not a gate.
RSS_GATE_PREFIX = "macro.fullscale."


def check_regression(current: Dict, baseline: Dict,
                     tolerance: float = 0.2,
                     rss_tolerance: float = 0.3) -> List[str]:
    """Compare calibration-normalized seconds; return regression messages.

    A benchmark regresses when its normalized time exceeds the baseline's
    by more than ``tolerance`` (0.2 = 20%).  Only keys present in both
    reports are compared, so a smoke run checks cleanly against a full
    baseline.  Speedups never fail.

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
        cur_norm = cur_entry["seconds"] / cur_cal
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


def fleet_speedup(report: Dict, baseline: Dict) -> Optional[float]:
    """Hot-path fleet throughput relative to the committed fleet baseline.

    Compares calibration-normalized jobs/s — ``rate * calibration`` is
    jobs per calibration-unit, which cancels machine speed the same way
    :func:`check_regression` does for seconds — between the current
    ``macro.fleet.hotpath`` entry and the baseline's original
    ``macro.fleet.smoke`` entry (the 53 jobs/s the worker-resident hot
    path was built to beat).  Returns ``None`` when either side lacks
    the needed entry.
    """
    current = report.get("benchmarks", {}).get("macro.fleet.hotpath")
    base = baseline.get("benchmarks", {}).get("macro.fleet.smoke")
    if not current or not base or "rate" not in current or "rate" not in base:
        return None
    current_norm = current["rate"] * report["calibration_seconds"]
    base_norm = base["rate"] * baseline["calibration_seconds"]
    if base_norm <= 0:
        return None
    return current_norm / base_norm


def merge_baseline(existing: Dict, report: Dict) -> Dict:
    """Fold a new report into an existing baseline without clobbering it.

    Committed baseline numbers are load-bearing — regression gates and
    speedup targets reference them — so an existing benchmark entry (and
    the calibration it was normalized against) is never overwritten.
    Only benchmarks the baseline has never seen are added, rescaled from
    the report's calibration to the baseline's so that every entry in the
    file is normalized by the one ``calibration_seconds`` it carries.
    """
    merged = dict(existing)
    merged.setdefault("calibration_seconds", report["calibration_seconds"])
    merged.setdefault("schema", report["schema"])
    merged.setdefault("mode", report["mode"])
    factor = merged["calibration_seconds"] / report["calibration_seconds"]
    merged["benchmarks"] = dict(existing.get("benchmarks", {}))
    for name, entry in report["benchmarks"].items():
        if name not in merged["benchmarks"]:
            entry = dict(entry, seconds=entry["seconds"] * factor)
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
    parser.add_argument("--mode", choices=("smoke", "full", "fullscale"),
                        default="smoke")
    parser.add_argument("--profile", nargs="?", const=25, default=None,
                        type=int, metavar="N",
                        help="run each benchmark once under cProfile and"
                             " dump its top-N hotspots to stderr")
    parser.add_argument("--baseline", default=None,
                        help="baseline JSON path (default: repo root %s)"
                        % BASELINE_NAME)
    parser.add_argument("--write-baseline", action="store_true",
                        help="merge the report into the baseline (existing"
                             " entries are never overwritten)")
    parser.add_argument("--check", action="store_true",
                        help="compare against the baseline; exit 1 on regression")
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="allowed normalized slowdown (0.2 = 20%%)")
    parser.add_argument("--output", default=None,
                        help="also write the report JSON to this path")
    parser.add_argument("--jobs", type=int, default=1,
                        help="also time parallel.run_all_smoke at this worker"
                             " count and report the speedup over --jobs 1")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="with --jobs N: exit 1 unless the parallel grid"
                             " is at least this many times faster than serial")
    parser.add_argument("--min-fleet-speedup", type=float, default=None,
                        help="exit 1 unless macro.fleet.hotpath is at least"
                             " this many times the baseline macro.fleet.smoke"
                             " rate (calibration-normalized jobs/s)")
    args = parser.parse_args(argv)

    baseline_path = args.baseline or default_baseline_path()
    report = run_harness(mode=args.mode, quiet=False, profile=args.profile)
    if args.jobs > 1:
        print("running parallel.run_all_smoke with --jobs %d ..." % args.jobs,
              file=sys.stderr)
        entry = bench_parallel_run_all(args.jobs)
        serial_entry = report["benchmarks"]["parallel.run_all_smoke"]
        entry["speedup"] = serial_entry["seconds"] / entry["seconds"]
        report["benchmarks"]["parallel.run_all_smoke.j%d" % args.jobs] = entry
    print(format_report(report))
    if args.jobs > 1:
        speedup = report["benchmarks"][
            "parallel.run_all_smoke.j%d" % args.jobs]["speedup"]
        print("parallel.run_all_smoke speedup at --jobs %d: %.2fx"
              % (args.jobs, speedup))
        if args.min_speedup is not None and speedup < args.min_speedup:
            print("speedup below required %.2fx" % args.min_speedup)
            return 1

    if os.path.exists(baseline_path):
        with open(baseline_path) as handle:
            _baseline = json.load(handle)
        ratio = fleet_speedup(report, _baseline)
        if ratio is not None:
            print("fleet hot-path speedup vs committed macro.fleet.smoke"
                  " baseline: %.2fx" % ratio)
            if (args.min_fleet_speedup is not None
                    and ratio < args.min_fleet_speedup):
                print("fleet speedup below required %.2fx"
                      % args.min_fleet_speedup)
                return 1
        elif args.min_fleet_speedup is not None:
            print("fleet speedup gate needs macro.fleet.hotpath in the report"
                  " and macro.fleet.smoke in the baseline")
            return 1
    elif args.min_fleet_speedup is not None:
        print("no baseline at %s; cannot gate fleet speedup" % baseline_path)
        return 1

    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.write_baseline:
        to_write = report
        if os.path.exists(baseline_path):
            with open(baseline_path) as handle:
                to_write = merge_baseline(json.load(handle), report)
        with open(baseline_path, "w") as handle:
            json.dump(to_write, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("baseline written: %s" % baseline_path)
    if args.check:
        if not os.path.exists(baseline_path):
            print("no baseline at %s; nothing to check" % baseline_path)
            return 0
        with open(baseline_path) as handle:
            baseline = json.load(handle)
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
    "FULLSCALE_DATA_CAP",
    "RSS_GATE_PREFIX",
    "bench_fleet_hotpath",
    "bench_fleet_scale",
    "bench_fleet_smoke",
    "bench_obs_null",
    "bench_parallel_run_all",
    "calibrate",
    "check_regression",
    "default_baseline_path",
    "fleet_speedup",
    "format_report",
    "merge_baseline",
    "peak_rss_bytes",
    "run_harness",
]
