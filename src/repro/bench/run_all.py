"""Regenerate every experiment and write EXPERIMENTS.md.

Usage::

    python -m repro.bench.run_all [output-path] [--jobs N] [--reduced]

Runs Tables 1-5, the concurrent-volume experiment, and every ablation at
the default 1:1000 scale, then writes the paper-vs-measured record.  The
full run takes a few minutes serially; ``--jobs N`` fans the sections
and every ablation point out across worker processes via
:mod:`repro.parallel` and reassembles the results in declaration order,
so the written file is byte-identical regardless of worker count.

``--reduced`` runs only the small Tables 1-3 grid at a tiny scale (the
CI smoke configuration); ``--check-determinism`` generates the reduced
grid both serially and with the requested ``--jobs`` and fails if the
two bodies differ by a single byte.

``--mode fullscale`` runs Tables 1-3 at the paper's 188 GB geometry.

Every experiment, in every grid, starts from a cold mount of a container
file (``build_home_env``; DESIGN.md "Start state").  The Tables 2/3
environment is built (or loaded from ``--env-cache``) exactly once, in
the parent; each backup strategy then runs dump, restore and verify as
one task on its own copy-on-write clone of it — workers inherit the
environment through ``fork`` and never rebuild — and both tables are
rendered from that one pair of results.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError, StorageError
from repro.bench.ablations import SWEEPS
from repro.bench.configs import (
    EliotConfig,
    build_home_env,
    env_build_count,
    fullscale_config,
)
from repro.bench.harness import (
    BASIC_STRATEGIES,
    basic_from_strategies,
    run_concurrent_volumes,
    run_strategy,
    run_table1,
    run_table45,
    table2_from_basic,
    table3_from_basic,
)
from repro.bench.report import Table, format_table, to_markdown
from repro.parallel import TaskPool, TaskSpec

#: The --reduced grid: the Tables 1-3 testbed shrunk to the tier-1 test
#: size (~12 MB home volume) so CI can run it serially and in parallel.
REDUCED_SCALE = 16000
REDUCED_AGING_ROUNDS = 1
#: Ablation points in the reduced grid run at this scale (~8 MB); the
#: grid needs enough independent tasks for the parallel speedup to show.
REDUCED_ABLATION_SCALE = 24000
#: The ablation sweeps the reduced grid includes (single-env sweeps only;
#: fragmentation and cpu rebuild larger testbeds and stay full-run-only).
REDUCED_SWEEPS = ("nvram", "readahead", "cache")

_HEADER = """# EXPERIMENTS — paper vs. measured

Reproduction record for every table in *Logical vs. Physical File System
Backup* (Hutchinson et al., OSDI 1999).  Regenerate with::

    python -m repro.bench.run_all

(add ``--jobs N`` to fan the experiments out across N worker processes;
the deterministic merge makes the output byte-identical to a serial
run) or run the same experiments as assertions with::

    pytest benchmarks/ --benchmark-only

## Method

* The testbed is a 1:%(scale)d replica of "eliot" (see DESIGN.md): the
  188 GB `home` volume becomes %(replica_mb).1f MB of real 4 KB blocks on the same
  3-RAID-group/31-disk shape, populated with a log-normal+Pareto file mix
  and aged with churn until the free space scatters.
* Every experiment starts from a cold mount of a saved container file,
  the way a rebooted filer starts: what a dump finds in the buffer cache
  is what that dump put there, never what building the testbed left.
* Every dump and restore moves real bytes and every restore is verified
  bit-for-bit before its numbers are reported; timing comes from the
  discrete-event model calibrated in `repro/perf/costs.py`.
* Throughput (MB/s, GB/h) and CPU utilization are scale-invariant and
  compared directly.  Every elapsed time is extrapolated by one rule
  (`paper_seconds` in `repro/bench/harness.py`): a stage's model time
  stretches by 188 GB over the bytes the replica holds in active blocks,
  except the fixed snapshot stages (30 s / 35 s), which run scaled down
  and multiply back by the scale.  So Table 2's elapsed cells are the
  sums of Table 3's stage times.
* A ratio column of 1.00x means exact agreement with the paper's cell.

## Headline claims and where they land

| Claim (paper) | Reproduced? |
|---|---|
%(headline)s

## Wall-clock performance

Simulated device time is host-independent, but the simulator's own speed
is tracked separately, one place per question.  What each layer costs
(RAID, buffer cache, block map, dump stream, event kernel) is read from
the ledger, ``benchmarks/ledger/``, which times every layer under the
workloads that call it.  ``python -m repro.bench.wallclock`` holds the
end-to-end gates the ledger cannot express — the Tables 2/3 experiment
cold at smoke and paper geometry with its peak RSS, the ``--jobs N``
speed-up, the fleet cold, warm and at scale, the observability-off
overhead.  Its ``--check`` stores no numbers: it runs a pinned reference
commit's harness and this checkout's in alternating pairs of fresh
processes on one machine, and CI fails on a row whose median is >20%%
slower with quartile ranges that do not overlap.

"""

#: (claim, table, row label): each headline verdict is that rendered row's ratio.
HEADLINE = (
    ("Physical dump ~20% faster than logical at 1 drive (Table 2)",
     "Table 2", "physical/logical backup throughput ratio"),
    ("Physical restore much faster than logical restore (Table 2)",
     "Table 2", "physical/logical restore throughput ratio"),
    ("Logical dump uses ~5x the CPU of physical (Table 3)",
     "Table 3", "logical/physical dump CPU ratio"),
    ("Logical restore uses >3x the CPU of physical (Table 3)",
     "Table 3", "logical/physical restore CPU ratio"),
    ("Physical scales near-linearly to 4 drives: 110 GB/h (Table 5)",
     "Table 5", "Physical overall GB/hour"),
    ("Logical saturates at 4 drives: 69.6 GB/h, 17.4/tape (Table 5)",
     "Table 5", "Logical overall GB/hour"),
    ("Concurrent home+rlse dumps do not interfere (Section 5.1)",
     "Section 5.1", "home concurrent elapsed"),
    ("Incremental image dump = bit-plane difference B−A (Table 1)",
     "Table 1", "incremental dump block count"),
)

_FOOTER = ("\n---\nSimulated device time is independent of host speed;"
           " wall-clock regeneration time depends only on the machine and"
           " `--jobs`.\n")


# ---------------------------------------------------------------------------
# Presets: which testbed Tables 2/3 run on and which other sections run
# ---------------------------------------------------------------------------

class Preset:
    """One document: the Tables 2/3 configuration plus the sections
    beside Tables 1-3 (none unless named)."""

    __slots__ = ("config", "tables45", "sweeps", "ablation_scale")

    def __init__(self, config: EliotConfig, tables45: bool = False,
                 sweeps: Tuple[str, ...] = (),
                 ablation_scale: Optional[int] = None):
        self.config = config
        self.tables45 = tables45  # Tables 4, 5 and Section 5.1
        self.sweeps = sweeps
        self.ablation_scale = ablation_scale

    @classmethod
    def named(cls, name: str) -> "Preset":
        """``grid`` (everything at the default scale), ``reduced`` (the CI
        smoke grid) or ``fullscale`` (Tables 1-3 at the paper's geometry)."""
        if name == "grid":
            return cls(EliotConfig(), tables45=True,
                       sweeps=tuple(sweep.key for sweep in SWEEPS))
        if name == "reduced":
            return cls(EliotConfig(scale=REDUCED_SCALE,
                                   aging_rounds=REDUCED_AGING_ROUNDS),
                       sweeps=REDUCED_SWEEPS,
                       ablation_scale=REDUCED_ABLATION_SCALE)
        if name == "fullscale":
            return cls(fullscale_config())
        raise ReproError("unknown preset %r" % (name,))


# ---------------------------------------------------------------------------
# Section task functions — module-level so they pickle into workers
# ---------------------------------------------------------------------------

def section_table1() -> Table:
    table, _checks = run_table1()
    return table


def section_strategy(config: EliotConfig, strategy: str) -> Dict:
    """One backup strategy against a clone of the prepared environment.

    The parent mounts the environment into the process env cache
    *before* the pool forks (:func:`generate_body`), so ``build_home_env``
    here is a cache hit in every worker — asserted by shipping the
    worker's build-count delta back in the payload (the parent requires
    it to be zero).
    """
    before = env_build_count()
    payload = run_strategy(build_home_env(config), strategy)
    payload["worker_builds"] = env_build_count() - before
    return payload


def section_ablation_point(key: str, args: Tuple,
                           scale: Optional[int] = None) -> List[Tuple]:
    from repro.bench.ablations import sweep

    return sweep(key).point_fn(*args, scale=scale)


# ---------------------------------------------------------------------------
# Plan: declaration-ordered sections, merged back into one document
# ---------------------------------------------------------------------------

class _Item:
    """One plan entry: a task spec plus how its result renders."""

    __slots__ = ("spec", "kind", "note", "sweep_key", "sweep_title")

    def __init__(self, spec: TaskSpec, kind: str = "table", note: str = "",
                 sweep_key: str = "", sweep_title: str = ""):
        self.spec = spec
        self.kind = kind
        self.note = note
        self.sweep_key = sweep_key
        self.sweep_title = sweep_title


def build_plan(preset: Preset) -> List[_Item]:
    """Every experiment as an independent task, in document order."""
    items = [
        _Item(TaskSpec("table1", section_table1),
              note="Counts are model-scale blocks; the invariant (incremental"
                   " = 'newly written' set) is exact at any scale."),
    ]
    items.extend(
        _Item(TaskSpec("basic.%s" % strategy, section_strategy,
                       (preset.config, strategy)), kind="basic")
        for strategy in BASIC_STRATEGIES)
    if preset.tables45:
        items.extend([
            _Item(TaskSpec("table4.2-drives", run_table45, (2,))),
            _Item(TaskSpec("table5.4-drives", run_table45, (4,))),
            _Item(TaskSpec("concurrent-volumes", run_concurrent_volumes)),
        ])
    for sweep in SWEEPS:
        if sweep.key not in preset.sweeps:
            continue
        for args in sweep.points:
            items.append(_Item(
                TaskSpec(sweep.point_name(args), section_ablation_point,
                         (sweep.key, args, preset.ablation_scale)),
                kind="ablation", sweep_key=sweep.key,
                sweep_title=sweep.title,
            ))
    return items


def merge_sections(items: List[_Item], values: List[object], scale: int,
                   echo=print) -> Tuple[str, Dict[str, Table]]:
    """Reassemble task results — in declaration order — into the document
    body.  The two strategy payloads regroup into Tables 2 and 3 (at
    ``scale``), ablation points into their sweep's table; every table is
    also echoed to the console.  Returns the body and the rendered
    tables, each under its title's lead ("Table 2", "Section 5.1")."""
    sections: List[str] = []
    tables: Dict[str, Table] = {}

    def emit(table: Table, note: str = "") -> None:
        tables[table.title.split(" — ")[0]] = table
        echo(format_table(table))
        block = to_markdown(table)
        if note:
            block += "\n" + note + "\n"
        sections.append(block)

    groups = itertools.groupby(
        zip(items, values),
        key=lambda pair: (pair[0].kind, pair[0].sweep_key))
    ablations_started = False
    for (kind, _sweep_key), group in groups:
        group = list(group)
        if kind == "basic":
            basic = basic_from_strategies(value for _item, value in group)
            emit(table2_from_basic(basic, scale))
            emit(table3_from_basic(basic, scale))
        elif kind == "ablation":
            if not ablations_started:
                sections.append("## Ablations\n")
                ablations_started = True
            table = Table(group[0][0].sweep_title)
            for _item, rows in group:
                for row in rows:
                    table.add(*row)
            emit(table)
        else:
            for item, table in group:
                emit(table, item.note)
    return "\n".join(sections), tables


class EnvCacheError(ReproError):
    """The ``--env-cache`` file cannot be used; the message says why."""


def _claim(tables: Dict[str, Table], name: str, label: str) -> str:
    """A headline cell, read off the rendered row that backs it."""
    if name not in tables:
        return "not run"
    return "%.2fx of paper" % tables[name].row(label).ratio


def generate_body(preset: Preset, jobs: int = 1,
                  env_cache: Optional[str] = None, echo=print) -> str:
    """Run the preset's plan and return the full EXPERIMENTS.md body."""
    started = time.time()
    try:
        # In the parent, before any pool forks: workers inherit the
        # mounted Tables 2/3 environment copy-on-write.
        env = build_home_env(preset.config, cache_file=env_cache)
    except StorageError as error:
        if env_cache is None:
            raise  # a scratch file this call wrote: a bug, not a stale cache
        raise EnvCacheError("%s; delete it to rebuild" % error)
    echo("environment mounted in %.1f s" % (time.time() - started))
    replica_mb = env.data_bytes() / 1e6
    items = build_plan(preset)
    pool = TaskPool(jobs)
    echo("running %d experiment task(s) at 1:%d with jobs=%d ..."
         % (len(items), preset.config.scale, jobs))
    values = pool.map_values([item.spec for item in items], echo)
    worker_builds = sum(value["worker_builds"]
                        for item, value in zip(items, values)
                        if item.kind == "basic")
    if worker_builds:
        raise ReproError(
            "strategy tasks rebuilt the environment %d time(s);"
            " expected 0 (clones of the parent's single build)"
            % worker_builds)
    scale = preset.config.scale
    sections, tables = merge_sections(items, values, scale, echo=echo)
    headline = "\n".join("| %s | %s |" % (claim, _claim(tables, name, label))
                         for claim, name, label in HEADLINE)
    return (_HEADER % {"scale": scale, "headline": headline,
                       "replica_mb": replica_mb}
            + sections + _FOOTER)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.run_all",
        description="Regenerate EXPERIMENTS.md (optionally in parallel).",
    )
    parser.add_argument("output", nargs="?", default=None,
                        help="output path (default: EXPERIMENTS.md, or"
                             " EXPERIMENTS_fullscale.md in fullscale mode)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1 = in-process)")
    parser.add_argument("--mode", choices=("grid", "fullscale"),
                        default="grid",
                        help="grid: every experiment at the default scale;"
                             " fullscale: Tables 1-3 at the paper's geometry")
    parser.add_argument("--env-cache", default=None, metavar="PATH",
                        help="load the prebuilt Tables 2/3 environment"
                             " from PATH, or build once and save it there")
    parser.add_argument("--reduced", action="store_true",
                        help="small Tables 1-3 grid only (CI smoke)")
    parser.add_argument("--check-determinism", action="store_true",
                        help="also generate serially and require the bodies"
                             " to match byte-for-byte")
    parser.add_argument("--trace", default=None, metavar="OUT.jsonl",
                        help="record a merged trace of every experiment"
                             " task (worker events merge in declaration"
                             " order, so the stream is --jobs-independent)")
    args = parser.parse_args(argv)

    fullscale = args.mode == "fullscale"
    output = args.output or ("EXPERIMENTS_fullscale.md" if fullscale
                             else "EXPERIMENTS.md")
    started = time.time()
    if args.trace:
        from repro.obs import Tracer, set_tracer

        set_tracer(Tracer())
    preset = Preset.named("fullscale" if fullscale
                          else "reduced" if args.reduced else "grid")
    try:
        body = generate_body(preset, jobs=args.jobs, env_cache=args.env_cache)
    except EnvCacheError as error:
        # The one failure the user fixes by deleting a file; anything an
        # experiment raises keeps its traceback.
        print("run_all: error: %s" % error, file=sys.stderr)
        return 2
    if args.trace:
        from repro.obs import get_tracer

        count = get_tracer().write_jsonl(args.trace)
        set_tracer(None)
        print("trace: %d event(s) -> %s" % (count, args.trace))

    if args.check_determinism:
        print("re-running serially for the determinism check ...")
        serial_body = generate_body(preset, jobs=1,
                                    env_cache=args.env_cache,
                                    echo=lambda *_a, **_k: None)
        if serial_body != body:
            print("DETERMINISM FAILURE: --jobs %d body differs from serial"
                  % args.jobs)
            return 1
        print("determinism check passed: --jobs %d output is byte-identical"
              " to serial" % args.jobs)

    with open(output, "w") as handle:
        handle.write(body)
    print("\nwrote %s in %.0f s of wall-clock time"
          % (output, time.time() - started))
    return 0


if __name__ == "__main__":
    sys.exit(main())


__all__ = [
    "HEADLINE",
    "REDUCED_AGING_ROUNDS",
    "REDUCED_SCALE",
    "Preset",
    "build_plan",
    "generate_body",
    "main",
    "merge_sections",
]
