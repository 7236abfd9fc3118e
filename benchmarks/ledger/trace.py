"""Span recorder and the layer table for the traced ledger run.

Tracing lives entirely in the benchmark: :func:`install` rebinds each
layer's *public* functions (the table in :data:`LAYERS`) to wrappers
that record one span per call — function, start, end, parent span and
iteration id — into flat in-memory arrays.  Nothing under ``src/`` is
edited; :func:`uninstall` puts every original back.

A layer's **self time** is its spans' duration minus the part their
child spans cover, so self times over all layers (``bench``, the code
that is in no wrapped layer, included) sum to the root spans' duration
by construction.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.obs.metrics import REGISTRY

#: Iteration id of spans recorded outside any timed iteration (set-up,
#: warm-up, post-condition checks).
OUTSIDE = -1

BENCH = "bench"

# layer -> "module:Class.method" / "module:function" targets.  Generator
# functions (the four engines) get one span per resume, so the layers an
# engine drives between two yields nest under it.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim": ("repro.sim.core:Simulation.run",),
    "perf": ("repro.perf.executor:TimedRun.add_job",
             "repro.perf.executor:TimedRun.add_ops",
             "repro.perf.executor:TimedRun.run"),
    "wafl.filesystem": tuple(
        "repro.wafl.filesystem:WaflFilesystem.%s" % name for name in (
            "format", "mount", "clone_volume", "crash", "consistency_point",
            "snapshot_create", "snapshot_delete", "namei", "create", "mkdir",
            "symlink", "link", "unlink", "rmdir", "rename", "write_file",
            "truncate", "read_file", "read_by_ino", "file_extents",
            "read_extent", "set_attrs", "set_acl")
    ) + ("repro.wafl.fsck:fsck",),
    "wafl.blockmap": tuple(
        "repro.wafl.blockmap:BlockMap.%s" % name for name in (
            "allocate_run", "free_active", "free_active_many",
            "commit_deferred_reuse", "set_active", "pop_dirty_run",
            "serialize_fblock", "serialize_fblock_run", "deserialize",
            "snapshot_create", "snapshot_delete", "plane_in_use",
            "plane_blocks", "plane_difference", "plane_runs",
            "plane_difference_runs", "clone")),
    "wafl.blocktree": tuple(
        "repro.wafl.blocktree:BlockTree.%s" % name for name in (
            "read_fblock", "write_fblock", "write_run", "write_cow_run",
            "punch_hole", "truncate_blocks", "extents", "free_all",
            "flush")),
    "wafl.buffercache": tuple(
        "repro.wafl.buffercache:BlockCache.%s" % name
        for name in ("get", "put", "get_run", "put_run")),
    "raid": tuple(
        "repro.raid.volume:RaidVolume.%s" % name for name in (
            "read_block", "write_block", "read_run", "write_run",
            "repair_bad_blocks", "verify_parity", "clone")),
    "storage.disk": tuple(
        "repro.storage.disk:VirtualDisk.%s" % name for name in (
            "read_block", "write_block", "read_run", "write_run", "clone")),
    "storage.tape": tuple(
        "repro.storage.tape:TapeDrive.%s" % name
        for name in ("write", "read", "rewind")),
    "storage.persist": tuple(
        "repro.storage.persist:%s" % name for name in (
            "save_volume", "load_volume", "save_media", "load_media")),
    "dumpfmt": tuple(
        "repro.dumpfmt.stream:DumpStreamWriter.%s" % name for name in (
            "write_tape_header", "write_clri", "write_bits", "write_end",
            "begin_inode", "feed_data", "feed_holes", "feed_segments",
            "end_inode", "write_acl")
    ) + ("repro.dumpfmt.stream:DumpStreamReader.read_preamble",
         "repro.dumpfmt.stream:DumpStreamReader.next_inode"),
    "nvram": ("repro.nvram.log:NvramLog.try_append",
              "repro.nvram.log:NvramLog.switch_halves"),
    "backup.logical": ("repro.backup.logical.dump:LogicalDump.run",
                       "repro.backup.logical.restore:LogicalRestore.run"),
    "backup.physical": ("repro.backup.physical.dump:ImageDump.run",
                        "repro.backup.physical.restore:ImageRestore.run"),
    "backup.verify": ("repro.backup.verify:verify_trees",),
    "catalog": tuple(
        "repro.catalog.store:BackupCatalog.%s" % name for name in (
            "record_set", "save", "commit_dirty", "sync_journal", "load",
            "chain_for", "mark_obsolete")),
    "manager": (
        "repro.manager.campaign:CampaignDriver.run_day",
        "repro.manager.campaign:run_tenant_day_resident",
        "repro.manager.campaign:restore_point_in_time",
        "repro.manager.retention:prune",
    ) + tuple(
        "repro.manager.media:MediaPool.%s" % name for name in (
            "drive_for_job", "partitioned_drives", "adopt_cartridges",
            "commit_job", "drive_for_restore", "recycle", "save", "load")),
    "chaos": ("repro.chaos.campaign:ChaosCampaignDriver.run_day",
              "repro.chaos.recover:recover_crash",
              "repro.chaos.recover:replay_dump",
              "repro.chaos.verify:campaign_state_digests"),
    "fleet": ("repro.fleet.service:FleetService.init_fleet",
              "repro.fleet.service:FleetService.run_day",
              "repro.fleet.service:FleetService.run_days",
              "repro.fleet.scheduler:FleetScheduler.submit",
              "repro.fleet.scheduler:FleetScheduler.admit",
              "repro.fleet.scheduler:FleetScheduler.complete",
              "repro.fleet.tenant:Tenant.create",
              "repro.fleet.tenant:Tenant.load",
              "repro.fleet.tenant:Tenant.save_state"),
    "parallel": ("repro.parallel.pool:TaskPool.map_values",),
    "workload": ("repro.workload.generator:WorkloadGenerator.populate",
                 "repro.workload.aging:age_filesystem",
                 "repro.workload.mutate:apply_mutations"),
}

# target -> (counter name, value(args, result)).  Counts taken at the
# same boundary as the span, for numbers the program does not publish
# through ``repro.obs.metrics.REGISTRY``.
TALLIES: Dict[str, Tuple[str, Callable]] = {
    "repro.sim.core:Simulation.run":
        ("sim.events", lambda args, result: args[0].events_scheduled),
    "repro.nvram.log:NvramLog.try_append":
        ("nvram.bytes_logged",
         lambda args, result: args[1].nbytes if result else 0),
    "repro.dumpfmt.stream:DumpStreamWriter.write_end":
        ("dumpfmt.bytes_written", lambda args, result: args[0].bytes_written),
    "repro.storage.persist:save_volume":
        ("storage.persist.bytes_out", lambda args, result: result),
}

#: Counter bumped once per op an engine generator yields.
ENGINE_OPS = "perf.ops_in"


class SpanRecorder:
    """Flat arrays of spans plus per-iteration counters."""

    def __init__(self):
        self.functions: List[Tuple[str, str]] = []  # id -> (layer, name)
        self.func = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.iteration = array("q")
        self.current_iteration = OUTSIDE
        self.counters: Dict[Tuple[int, str], float] = {}
        self._stack: List[int] = []
        self._ids: Dict[Tuple[str, str], int] = {}

    def function_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        if key not in self._ids:
            self._ids[key] = len(self.functions)
            self.functions.append(key)
        return self._ids[key]

    def begin(self, func_id: int) -> int:
        stack = self._stack
        index = len(self.start)
        self.func.append(func_id)
        self.parent.append(stack[-1] if stack else -1)
        self.iteration.append(self.current_iteration)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code: an iteration root or one of its
        phases.  Bench spans carry the time no wrapped layer claims."""
        index = self.begin(self.function_id(BENCH, name))
        try:
            yield
        finally:
            self.finish(index)

    def begin_iteration(self, iteration: int) -> None:
        """Spans and counts from here on belong to timed iteration
        ``iteration``; the program's own counters are on meanwhile."""
        self.current_iteration = iteration
        REGISTRY.enabled = True

    def end_iteration(self) -> None:
        REGISTRY.enabled = False
        self.current_iteration = OUTSIDE

    def registry_counters(self) -> Dict[str, float]:
        """What ``repro.obs.metrics.REGISTRY`` counted during the timed
        iterations (it is enabled nowhere else)."""
        return dict(REGISTRY.snapshot()["counters"])

    def tally(self, name: str, amount: float) -> None:
        key = (self.current_iteration, name)
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- wrapping ----------------------------------------------------------

    def wrap(self, func_id: int, fn: Callable,
             tally: Optional[Tuple[str, Callable]] = None) -> Callable:
        begin, finish = self.begin, self.finish
        if tally is None:
            def traced(*args, **kwargs):
                index = begin(func_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    finish(index)
        else:
            counter, value = tally

            def traced(*args, **kwargs):
                index = begin(func_id)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    finish(index)
                self.tally(counter, value(args, result))
                return result
        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, func_id: int, fn: Callable) -> Callable:
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            engine = fn(*args, **kwargs)
            while True:
                index = begin(func_id)
                try:
                    op = next(engine)
                except StopIteration as stop:
                    return stop.value
                finally:
                    finish(index)
                self.tally(ENGINE_OPS, 1)
                yield op
        traced.__wrapped__ = fn
        return traced

    # -- reading -----------------------------------------------------------

    def summary(self, iterations: Iterable[int]) -> "TraceSummary":
        return TraceSummary(self, list(iterations))

    def dump(self, path: str) -> None:
        """Write every span out (``numpy.savez``), for offline reading."""
        np.savez_compressed(
            path,
            functions=np.array(["%s:%s" % pair for pair in self.functions]),
            func=np.asarray(self.func), start=np.asarray(self.start),
            end=np.asarray(self.end), parent=np.asarray(self.parent),
            iteration=np.asarray(self.iteration))


class TraceSummary:
    """Per-function totals over a chosen set of iterations."""

    def __init__(self, recorder: SpanRecorder, iterations: List[int]):
        self.functions = list(recorder.functions)
        self.iterations = iterations
        nfuncs = len(self.functions)
        func = np.asarray(recorder.func, dtype=np.int64)
        duration = np.asarray(recorder.end) - np.asarray(recorder.start)
        parent = np.asarray(recorder.parent, dtype=np.int64)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested],
                              minlength=len(duration))
        chosen = np.isin(np.asarray(recorder.iteration, dtype=np.int64),
                         iterations)
        self.self_s = np.bincount(func[chosen],
                                  weights=(duration - covered)[chosen],
                                  minlength=nfuncs)
        self.inclusive_s = np.bincount(func[chosen],
                                       weights=duration[chosen],
                                       minlength=nfuncs)
        self.calls = np.bincount(func[chosen], minlength=nfuncs)
        roots = chosen & ~nested
        self.root_s = float(duration[roots].sum())
        self.counters: Dict[str, float] = {}
        for (iteration, name), amount in recorder.counters.items():
            if iteration in iterations:
                self.counters[name] = self.counters.get(name, 0) + amount

    def _ids(self, layer: str, names: Tuple[str, ...]) -> List[int]:
        return [index for index, (lyr, name) in enumerate(self.functions)
                if lyr == layer and (not names or name in names)]

    def layer_self_s(self, layer: str) -> float:
        return float(self.self_s[self._ids(layer, ())].sum())

    def layer_calls(self, layer: str) -> int:
        return int(self.calls[self._ids(layer, ())].sum())

    def inclusive(self, layer: str, *names: str) -> float:
        """Total duration of the named functions' spans (callees included)."""
        return float(self.inclusive_s[self._ids(layer, names)].sum())

    def count(self, layer: str, *names: str) -> int:
        return int(self.calls[self._ids(layer, names)].sum())


# ---------------------------------------------------------------------------
# Installing the wrappers
# ---------------------------------------------------------------------------

class _Patch:
    """One rebound attribute, remembered so it can be put back."""

    def __init__(self, holder, name: str, original):
        self.holder = holder
        self.name = name
        self.original = original


def install(recorder: SpanRecorder) -> List[_Patch]:
    """Rebind every :data:`LAYERS` target to a recording wrapper."""
    targets = []
    for layer, specs in LAYERS.items():
        for spec in specs:
            module_name, _, qualname = spec.partition(":")
            targets.append((layer, spec, importlib.import_module(module_name),
                            qualname))
    patches: List[_Patch] = []
    for layer, spec, module, qualname in targets:
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        raw = vars(owner)[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) \
            else None
        fn = raw.__func__ if kind else raw
        func_id = recorder.function_id(layer, qualname)
        if inspect.isgeneratorfunction(fn):
            wrapped = recorder.wrap_generator(func_id, fn)
        else:
            wrapped = recorder.wrap(func_id, fn, TALLIES.get(spec))
        if owner_name:
            patches.append(_Patch(owner, attr, raw))
            setattr(owner, attr, kind(wrapped) if kind else wrapped)
            continue
        # A module-level function: rebind it in every loaded module that
        # imported it by name (the benchmark's own included), not only
        # where it is defined.
        for other in list(sys.modules.values()):
            for name, value in list(getattr(other, "__dict__", {}).items()):
                if value is fn:
                    patches.append(_Patch(other, name, fn))
                    setattr(other, name, wrapped)
    return patches


def uninstall(patches: List[_Patch]) -> None:
    for patch in reversed(patches):
        setattr(patch.holder, patch.name, patch.original)


__all__ = ["BENCH", "LAYERS", "OUTSIDE", "SpanRecorder", "TraceSummary",
           "install", "uninstall"]
