"""``repro-backup`` — the command-line face of the library.

Volumes and tapes live in container files on the host (one versioned
format, :mod:`repro.storage.persist`; a damaged, truncated or foreign
file is a one-line ``StorageError`` message, not a traceback), so
invocations compose the way a real backup workflow does::

    repro-backup mkfs home.vol --groups 3 --disks 10 --blocks 2500
    repro-backup populate home.vol --bytes 64MB --age 2
    repro-backup put home.vol ./notes.txt /docs/notes.txt
    repro-backup snap home.vol create nightly.0
    repro-backup dump home.vol monday.tape --level 0 --dumpdates dd.json
    repro-backup toc monday.tape
    repro-backup verify home.vol monday.tape
    repro-backup restore monday.tape new.vol --mkfs
    repro-backup image-dump home.vol full.img --snapshot weekly
    repro-backup image-restore full.img replica.vol
    repro-backup fsck home.vol

The backup manager commands run whole regimes instead of single dumps::

    repro-backup run-campaign cat.json --pool pool.med --days 14 \\
        --volume home=logical --volume rlse=image --schedule gfs:4x2
    repro-backup catalog cat.json list
    repro-backup catalog cat.json chain home --day 9
    repro-backup dumpdates --catalog cat.json
    repro-backup policy cat.json set home "redundancy 2"
    repro-backup prune cat.json --pool pool.med
    repro-backup restore-pit cat.json home restored.vol --pool pool.med --day 9

Run ``repro-backup <command> --help`` for each command's options.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from repro.errors import RaidError, ReproError
from repro.units import GB, MB, fmt_bytes


# ---------------------------------------------------------------------------
# Verb registry — each verb is declared once, next to its function
# ---------------------------------------------------------------------------

VERBS = []  # (name, help, argument specs, obs, fn) in --help order


def arg(*flags, **kwargs):
    """One ``add_argument`` call, recorded for :func:`build_parser`."""
    return flags, kwargs


def verb(name: str, help: str, *args, obs: bool = False):
    """Register the decorated ``cmd_*`` as verb ``name`` (``"fleet run"``
    when nested); ``obs`` appends the observability flags.  A row with
    no function only groups verbs or documents a passthrough."""
    def register(fn):
        VERBS.append((name, help, args, obs, fn))
        return fn
    return register


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------

def size(text: str) -> int:
    """A byte count such as ``35GB``, ``1.5MB`` or ``4096`` — the argparse
    ``type`` of every size flag, so a malformed one is a usage error."""
    text = text.strip().upper()
    for suffix, factor in (("GB", GB), ("MB", MB), ("KB", 1024), ("B", 1)):
        if text.endswith(suffix):
            number = float(text[: -len(suffix)])
            if not math.isfinite(number):
                raise ValueError(text)
            return int(number * factor)
    return int(text)


# Flag groups shared by several verbs (run-campaign keeps its own drive
# defaults).
GEOMETRY = (
    arg("--groups", type=int, default=2),
    arg("--disks", type=int, default=4),
    arg("--blocks", type=int, default=2500, help="blocks per data disk"),
)
DRIVE = (
    arg("--tapes", type=int, default=8),
    arg("--tape-capacity", type=size, default="35GB"),
)


def _new_fs(args, name: str, nvram=None):
    """A freshly formatted file system shaped by the ``GEOMETRY`` flags."""
    from repro.raid.layout import make_geometry
    from repro.raid.volume import RaidVolume
    from repro.wafl.filesystem import WaflFilesystem

    volume = RaidVolume(make_geometry(args.groups, args.disks, args.blocks),
                        name=name)
    return WaflFilesystem.format(volume, nvram=nvram)


def _mount(path: str):
    from repro.storage.persist import load_volume
    from repro.wafl.filesystem import WaflFilesystem

    return WaflFilesystem.mount(load_volume(path))


def _commit(fs, path: str) -> None:
    from repro.storage.persist import save_volume

    fs.consistency_point()
    save_volume(fs.volume, path)


def _load_dumpdates(path):
    from repro.backup import DumpDates

    dates = DumpDates()
    if path and os.path.exists(path):
        with open(path) as handle:
            # Re-apply in date order so level supersession replays correctly.
            records = sorted(json.load(handle).items(), key=lambda kv: kv[1])
        for key, date in records:
            fsid, subtree, level = key.rsplit("|", 2)
            dates.record(fsid, subtree, int(level), date)
    return dates


def _save_dumpdates(dates, path) -> None:
    if not path:
        return
    flat = {}
    for (fsid, subtree), levels in dates._records.items():
        for level, date in levels.items():
            flat["%s|%s|%d" % (fsid, subtree, level)] = date
    with open(path, "w") as handle:
        json.dump(flat, handle, indent=2)


def _load_symtab(path):
    from repro.backup import SymbolTable

    if not path or not os.path.exists(path):
        return None
    table = SymbolTable()
    with open(path) as handle:
        for ino, paths in json.load(handle).items():
            table.set(int(ino), paths)
    return table


def _save_symtab(table, path) -> None:
    if not path or table is None:
        return
    with open(path, "w") as handle:
        json.dump({str(ino): table.get(ino) for ino in table.inos()},
                  handle, indent=2)


def _new_tape(args, path: str):
    """A drive of blank cartridges shaped by the ``DRIVE`` flags."""
    from repro.storage.tape import TapeDrive, TapeStacker

    return TapeDrive(TapeStacker.with_blank_tapes(
        args.tapes, capacity=args.tape_capacity, name=os.path.basename(path)))


def _type_char(ftype: int) -> str:
    from repro.wafl.inode import FileType

    return {FileType.REGULAR: "-", FileType.DIRECTORY: "d",
            FileType.SYMLINK: "l"}.get(ftype, "?")


# ---------------------------------------------------------------------------
# Observability plane (--trace / --trace-chrome / --metrics)
# ---------------------------------------------------------------------------

OBS = (
    arg("--trace", default=None, metavar="OUT.jsonl",
        help="write a structured trace of the run (JSONL)"),
    arg("--trace-chrome", default=None, metavar="OUT.json",
        help="also export Chrome trace_event JSON (Perfetto)"),
    arg("--metrics", nargs="?", const="-", default=None,
        metavar="OUT.json",
        help="collect metrics; print them ('-', the default)"
             " or write a JSON snapshot"),
)


def _obs_enabled(args) -> bool:
    return bool(getattr(args, "trace", None)
                or getattr(args, "trace_chrome", None)
                or getattr(args, "metrics", None))


def _obs_begin(args) -> bool:
    """Install the run's tracer/registry; returns whether anything is on."""
    if not _obs_enabled(args):
        return False
    from repro.obs import REGISTRY, Tracer, set_tracer

    if getattr(args, "trace", None) or getattr(args, "trace_chrome", None):
        set_tracer(Tracer())
    if getattr(args, "metrics", None):
        REGISTRY.reset()
        REGISTRY.enabled = True
    return True


def _run_engine(args, name: str, engine):
    """Drain ``engine`` — through a :class:`TimedRun` when the
    observability plane is on (armed here), so simulated-time phase spans
    exist — and return the engine's own result object.  Data movement is
    identical either way."""
    if not _obs_begin(args):
        from repro.backup import drain_engine

        return drain_engine(engine)
    from repro.perf.executor import TimedRun

    run = TimedRun()
    result = run.add_job(name, engine)
    run.run()
    print("%s: simulated elapsed %.2fs (cpu %.2fs)"
          % (name, result.elapsed, result.cpu_seconds))
    return result.data


def _obs_end(args) -> None:
    """Write/print the run's trace and metrics, then disarm the plane.

    A verb that sets ``args.chrome_lanes`` (tenant names) gets its Chrome
    export with one named process lane per tenant."""
    if not _obs_enabled(args):
        return
    from repro.obs import REGISTRY, export_chrome_trace, get_tracer, set_tracer
    from repro.obs.summary import format_phase_summary, phase_rows

    lanes = getattr(args, "chrome_lanes", None)
    tracer = get_tracer()
    if tracer.enabled:
        events = tracer.events()
        rows = phase_rows(events)
        if rows:
            print(format_phase_summary(rows))
        if getattr(args, "trace", None):
            count = tracer.write_jsonl(args.trace)
            print("trace: %d event(s) -> %s" % (count, args.trace))
        if getattr(args, "trace_chrome", None):
            if lanes:
                from repro.fleet import export_fleet_trace

                export_fleet_trace(events, args.trace_chrome, lanes)
            else:
                export_chrome_trace(events, args.trace_chrome)
            print("trace: chrome trace_event -> %s (open in Perfetto)"
                  % args.trace_chrome)
        set_tracer(None)
    metrics_out = getattr(args, "metrics", None)
    if metrics_out:
        if metrics_out == "-":
            print(REGISTRY.to_text())
        else:
            with open(metrics_out, "w") as handle:
                json.dump(REGISTRY.snapshot(), handle, indent=2,
                          sort_keys=True)
                handle.write("\n")
            print("metrics: snapshot -> %s" % metrics_out)
        REGISTRY.reset()
        REGISTRY.enabled = False
    if lanes and getattr(args, "trace_chrome", None):
        print("trace: per-tenant chrome lanes -> %s" % args.trace_chrome)


# ---------------------------------------------------------------------------
# Commands, in --help order
# ---------------------------------------------------------------------------

@verb("mkfs", "create and format a volume container",
      arg("volume"),
      *GEOMETRY,
      arg("--name", default=None))
def cmd_mkfs(args) -> int:
    fs = _new_fs(
        args, args.name or os.path.basename(args.volume).split(".")[0])
    volume = fs.volume
    _commit(fs, args.volume)
    print("formatted %s: %s (%s usable)"
          % (args.volume, volume.geometry.describe(),
             fmt_bytes(volume.size_bytes)))
    return 0


@verb("populate", "fill with a synthetic workload",
      arg("volume"),
      arg("--bytes", type=size, default="16MB"),
      arg("--seed", type=int, default=42),
      arg("--age", type=int, default=0, help="aging rounds"))
def cmd_populate(args) -> int:
    from repro.workload import AgingConfig, WorkloadGenerator, age_filesystem

    fs = _mount(args.volume)
    generator = WorkloadGenerator(seed=args.seed)
    tree = generator.populate(fs, args.bytes)
    if args.age:
        age_filesystem(fs, tree, AgingConfig(rounds=args.age,
                                             seed=args.seed + 1))
    _commit(fs, args.volume)
    print("populated %d files / %d dirs (%s)"
          % (len(tree.files), len(tree.directories),
             fmt_bytes(tree.total_bytes)))
    return 0


@verb("ls", "list a subtree",
      arg("volume"), arg("path", nargs="?", default="/"))
def cmd_ls(args) -> int:
    fs = _mount(args.volume)
    for path, inode in sorted(fs.walk(args.path)):
        print("%s%s %4d %6d %10d  %s"
              % (_type_char(inode.type),
                 oct(inode.perms)[2:].rjust(4, "0"),
                 inode.nlink, inode.uid, inode.size, path))
    return 0


@verb("put", "copy a host file into the volume",
      arg("volume"), arg("source"), arg("dest"))
def cmd_put(args) -> int:
    fs = _mount(args.volume)
    with open(args.source, "rb") as handle:
        data = handle.read()
    if fs.exists(args.dest):
        fs.write_file(args.dest, data, 0)
        fs.truncate(args.dest, len(data))
    else:
        fs.create(args.dest, data)
    _commit(fs, args.volume)
    print("wrote %s -> %s (%s)" % (args.source, args.dest,
                                   fmt_bytes(len(data))))
    return 0


@verb("get", "copy a file out to the host",
      arg("volume"), arg("source"), arg("dest"))
def cmd_get(args) -> int:
    fs = _mount(args.volume)
    data = fs.read_file(args.source)
    with open(args.dest, "wb") as handle:
        handle.write(data)
    print("read %s -> %s (%s)" % (args.source, args.dest,
                                  fmt_bytes(len(data))))
    return 0


@verb("rm", "remove a file or empty directory",
      arg("volume"), arg("path"))
def cmd_rm(args) -> int:
    fs = _mount(args.volume)
    inode = fs.inode(fs.namei(args.path))
    if inode.is_dir:
        fs.rmdir(args.path)
    else:
        fs.unlink(args.path)
    _commit(fs, args.volume)
    print("removed %s" % args.path)
    return 0


@verb("snap", "manage snapshots",
      arg("volume"), arg("action", choices=["create", "delete", "list"]),
      arg("name", nargs="?"))
def cmd_snap(args) -> int:
    if args.action != "list" and args.name is None:
        raise ReproError("snap %s needs a NAME" % args.action)
    fs = _mount(args.volume)
    if args.action == "list":
        for record in fs.snapshots():
            print("%-24s plane=%d cp=%d" % (record.name, record.snap_id,
                                            record.cp_count))
        return 0
    if args.action == "create":
        fs.snapshot_create(args.name)
        print("created snapshot %r" % args.name)
    elif args.action == "delete":
        freed = fs.snapshot_delete(args.name)
        print("deleted snapshot %r (%d blocks freed)" % (args.name, freed))
    _commit(fs, args.volume)
    return 0


@verb("dump", "logical (BSD-style) dump to tape",
      arg("volume"), arg("tape"),
      arg("--level", type=int, default=0),
      arg("--subtree", default="/"),
      arg("--dumpdates", default=None,
          help="JSON dumpdates database (read + updated)"),
      *DRIVE, obs=True)
def cmd_dump(args) -> int:
    from repro.backup import LogicalDump
    from repro.storage.persist import save_tape

    fs = _mount(args.volume)
    dates = _load_dumpdates(args.dumpdates)
    drive = _new_tape(args, args.tape)
    result = _run_engine(
        args, "dump",
        LogicalDump(fs, drive, level=args.level, subtree=args.subtree,
                    dumpdates=dates).run()
    )
    save_tape(drive, args.tape)
    _save_dumpdates(dates, args.dumpdates)
    _commit(fs, args.volume)  # the dump's snapshot churn
    print("DUMP: level %d of %s%s -> %s" % (args.level, args.volume,
                                            args.subtree, args.tape))
    print("DUMP: %d files, %d directories, %s"
          % (result.files, result.directories,
             fmt_bytes(result.bytes_to_tape)))
    return 0


@verb("restore", "logical restore from tape",
      arg("tape"), arg("volume"),
      arg("--into", default="/"),
      arg("--select", nargs="*", default=None,
          help="restore only these paths (stupidity recovery)"),
      arg("--symtab", default=None,
          help="JSON symbol table for incremental chains"),
      arg("--resync", action="store_true",
          help="skip corrupted tape regions"),
      arg("--mkfs", action="store_true",
          help="create a fresh file system first"),
      *GEOMETRY, obs=True)
def cmd_restore(args) -> int:
    from repro.backup import LogicalRestore
    from repro.storage.persist import load_tape

    drive = load_tape(args.tape)
    if args.mkfs:
        fs = _new_fs(args, os.path.basename(args.volume).split(".")[0])
    else:
        fs = _mount(args.volume)
    result = _run_engine(
        args, "restore",
        LogicalRestore(fs, drive, into=args.into,
                       symtab=_load_symtab(args.symtab),
                       select=args.select or None,
                       resync=args.resync).run()
    )
    _save_symtab(result.symtab, args.symtab)
    _commit(fs, args.volume)
    print("RESTORE: %d files extracted, %d created, %d deleted, %d skipped"
          % (result.files, result.created, result.deleted, result.skipped))
    for error in result.errors:
        print("RESTORE: warning: %s" % error)
    return 0


@verb("image-dump", "physical (image) dump",
      arg("volume"), arg("image"),
      arg("--snapshot", default=None,
          help="snapshot to dump (created and kept if named)"),
      arg("--base", default=None,
          help="base snapshot: produce an incremental image"),
      arg("--include-snapshots", action="store_true"),
      *DRIVE, obs=True)
def cmd_image_dump(args) -> int:
    from repro.backup import ImageDump
    from repro.storage.persist import save_tape

    fs = _mount(args.volume)
    drive = _new_tape(args, args.image)
    result = _run_engine(
        args, "image-dump",
        ImageDump(fs, drive, snapshot_name=args.snapshot,
                  base_snapshot=args.base,
                  include_snapshots=args.include_snapshots).run()
    )
    save_tape(drive, args.image)
    _commit(fs, args.volume)
    print("IMAGE DUMP: %d blocks (%s) -> %s%s"
          % (result.blocks, fmt_bytes(result.bytes_to_tape), args.image,
             " [incremental]" if result.incremental else ""))
    return 0


@verb("image-restore", "physical (image) restore",
      arg("image"), arg("volume"),
      arg("--fresh", action="store_true",
          help="ignore an existing volume container"),
      obs=True)
def cmd_image_restore(args) -> int:
    from repro.backup.physical import ImageRestore, read_image_header
    from repro.raid.volume import RaidVolume
    from repro.storage.persist import load_tape, load_volume, save_volume

    drive = load_tape(args.image)
    if os.path.exists(args.volume) and not args.fresh:
        volume = load_volume(args.volume)
    else:
        # Geometry comes from the image header itself.
        volume = RaidVolume(read_image_header(drive).geometry,
                            name=os.path.basename(args.volume).split(".")[0])
    result = _run_engine(args, "image-restore",
                         ImageRestore(volume, drive).run())
    save_volume(volume, args.volume)
    print("IMAGE RESTORE: %d blocks onto %s (cp %d)"
          % (result.blocks, args.volume, result.cp_count))
    return 0


@verb("interactive", "browse a tape and extract marks (restore -i)",
      arg("tape"), arg("volume", help="target volume for 'extract'"),
      arg("--into", default="/"))
def cmd_interactive(args) -> int:
    """restore -i: read shell commands from stdin (scriptable)."""
    from repro.backup.logical.interactive import InteractiveRestore
    from repro.storage.persist import load_tape

    shell = InteractiveRestore(load_tape(args.tape))
    print("interactive restore; commands: ls [p], cd p, pwd, add p,"
          " delete p, marked, extract, quit")
    for line in sys.stdin:
        parts = line.split()
        if not parts:
            continue
        verb, rest = parts[0], parts[1:]
        try:
            if verb == "quit":
                break
            elif verb == "pwd":
                print(shell.pwd())
            elif verb == "cd":
                shell.cd(rest[0])
            elif verb == "ls":
                for name in shell.ls(rest[0] if rest else None):
                    print(name)
            elif verb == "add":
                print("marked %s" % shell.add(rest[0]))
            elif verb == "delete":
                print("unmarked %s" % shell.delete(rest[0]))
            elif verb == "marked":
                for path in shell.marked():
                    print(path)
            elif verb == "extract":
                fs = _mount(args.volume)
                result = shell.extract(fs, into=args.into)
                _commit(fs, args.volume)
                print("extracted %d files" % result.files)
            else:
                print("unknown command %r" % verb)
        except ReproError as error:
            print("error: %s" % error)
    return 0


@verb("toc", "list a tape's contents (restore -t)",
      arg("tape"))
def cmd_toc(args) -> int:
    from repro.backup import list_tape
    from repro.storage.persist import load_tape

    label, entries = list_tape(load_tape(args.tape))
    print("Dump of %s:%s level %d (%d objects)"
          % (label.filesystem, label.subtree, label.level, len(entries)))
    for path, header in entries:
        print("%s%s %6d  %s"
              % (_type_char(header.ftype),
                 oct(header.perms)[2:].rjust(4, "0"), header.size, path))
    return 0


@verb("verify", "compare tape vs volume (restore -C)",
      arg("volume"), arg("tape"),
      arg("--image", action="store_true",
          help="the tape is an image stream, not a dump stream"))
def cmd_verify(args) -> int:
    from repro.backup import compare_tape
    from repro.backup.physical import compare_image
    from repro.storage.persist import load_tape, load_volume

    if args.image:
        volume = load_volume(args.volume)
        problems = compare_image(volume, load_tape(args.tape))
    else:
        fs = _mount(args.volume)
        problems = compare_tape(fs, load_tape(args.tape))
    if not problems:
        print("VERIFY: tape matches the file system")
        return 0
    for problem in problems:
        print("VERIFY: %s" % problem)
    return 1


@verb("estimate", "predict a dump's size (dump -S)",
      arg("volume"),
      arg("--level", type=int, default=0),
      arg("--subtree", default="/"),
      arg("--dumpdates", default=None))
def cmd_estimate(args) -> int:
    from repro.backup import estimate_dump

    fs = _mount(args.volume)
    dates = _load_dumpdates(args.dumpdates)
    size = estimate_dump(fs, level=args.level, subtree=args.subtree,
                         dumpdates=dates)
    print("estimated level-%d dump of %s%s: %s (%d blocks of tape)"
          % (args.level, args.volume, args.subtree, fmt_bytes(size),
             (size + 1023) // 1024))
    return 0


@verb("fsck", "check file-system invariants",
      arg("volume"),
      arg("--parity", action="store_true",
          help="also audit RAID parity"))
def cmd_fsck(args) -> int:
    from repro.wafl.fsck import fsck

    fs = _mount(args.volume)
    report = fsck(fs, check_parity=args.parity)
    print("fsck: %d inodes, %d blocks checked"
          % (report.inodes_checked, report.blocks_checked))
    for error in report.errors:
        print("fsck: ERROR: %s" % error)
    print("fsck: %s" % ("clean" if report.clean else "DIRTY"))
    return 0 if report.clean else 1


@verb("scrub", "recompute RAID parity",
      arg("volume"))
def cmd_scrub(args) -> int:
    from repro.storage.persist import load_volume, save_volume

    volume = load_volume(args.volume)
    repaired = sum(group.scrub() for group in volume.groups)
    save_volume(volume, args.volume)
    print("scrub: %d stripes repaired" % repaired)
    return 0


@verb("rebuild", "rebuild a failed data disk",
      arg("volume"),
      arg("--group", type=int, required=True),
      arg("--disk", type=int, required=True))
def cmd_rebuild(args) -> int:
    from repro.storage.persist import load_volume, save_volume

    volume = load_volume(args.volume)
    if not 0 <= args.group < len(volume.groups):
        raise RaidError("no RAID group %d in %r" % (args.group, volume.name))
    group = volume.groups[args.group]
    group.rebuild_disk(args.disk)
    save_volume(volume, args.volume)
    print("rebuilt data disk %d of group %d onto a spare"
          % (args.disk, args.group))
    return 0


@verb("df", "show space usage",
      arg("volume"))
def cmd_df(args) -> int:
    fs = _mount(args.volume)
    stats = fs.statfs()
    total = stats["total_blocks"] * stats["block_size"]
    used = stats["used_blocks"] * stats["block_size"]
    print("%-12s %10s %10s %10s %5.1f%%  snapshots: %d"
          % (args.volume, fmt_bytes(total), fmt_bytes(used),
             fmt_bytes(stats["free_blocks"] * stats["block_size"]),
             100.0 * used / total, stats["snapshots"]))
    return 0


# ``main`` forwards ``bench`` before parsing; this row is its --help line.
verb("bench",
     "wall-clock benchmark harness (delegates to repro.bench.wallclock)",
     arg("rest", nargs=argparse.REMAINDER,
         help="arguments passed through, e.g."
              " --mode smoke --check --jobs 4"))(None)


def _load_catalog_and_pool(catalog_path, pool_path):
    from repro.catalog import BackupCatalog
    from repro.manager import MediaPool

    catalog = BackupCatalog.load(catalog_path)
    pool = MediaPool.load(catalog, pool_path) if pool_path else None
    return catalog, pool


@verb("dumpdates", "list persisted dumpdates records",
      arg("path", nargs="?", default=None,
          help="JSON dumpdates database (as written by dump)"),
      arg("--catalog", default=None,
          help="read the dumpdates the catalog rebuilt instead"))
def cmd_dumpdates(args) -> int:
    """List the persisted dumpdates database."""
    if args.catalog:
        from repro.catalog import BackupCatalog

        dates = BackupCatalog.load(args.catalog).dumpdates
    elif args.path:
        dates = _load_dumpdates(args.path)
    else:
        raise ReproError("dumpdates needs a JSON path or --catalog")
    rows = []
    for (fsid, subtree), levels in sorted(dates._records.items()):
        for level, date in sorted(levels.items()):
            rows.append((fsid, subtree, level, date))
    print("%-16s %-16s %5s %10s" % ("FILESYSTEM", "SUBTREE", "LEVEL", "DATE"))
    for fsid, subtree, level, date in rows:
        print("%-16s %-16s %5d %10d" % (fsid, subtree, level, date))
    print("%d record(s)" % len(rows))
    return 0


@verb("catalog", "inspect the backup catalog",
      arg("catalog", help="catalog JSON file"),
      arg("action", choices=["list", "chain"]),
      arg("fsid", nargs="?", default=None),
      arg("--subtree", default="/"),
      arg("--day", type=int, default=None,
          help="target campaign day (latest when omitted)"))
def cmd_catalog(args) -> int:
    from repro.catalog import BackupCatalog

    catalog = BackupCatalog.load(args.catalog)
    if args.action == "list":
        print("%-6s %-10s %-8s %-14s %3s %4s %6s %10s %-5s %s"
              % ("SET", "FSID", "STRATEGY", "SUBTREE", "LVL", "DAY",
                 "BASE", "BYTES", "STAT", "CARTRIDGES"))
        for fsid, subtree in catalog.volumes():
            for s in catalog.sets_for(fsid, subtree):
                print("%-6s %-10s %-8s %-14s %3d %4d %6s %10d %-5s %s"
                      % (s.set_id, s.fsid, s.strategy, s.subtree, s.level,
                         s.day, s.base_set_id or "-", s.bytes_to_tape,
                         s.status[:5], ",".join(s.cartridges)))
        scratch = sum(1 for c in catalog.media.values()
                      if c.status == "scratch")
        free = sum(c.remaining for c in catalog.media.values())
        print("media: %d cartridge(s), %d scratch, %s free"
              % (len(catalog.media), scratch, fmt_bytes(free)))
        for fsid, subtree, text in catalog.policy_targets():
            print("policy: %s:%s -> %s" % (fsid, subtree, text))
        return 0
    if not args.fsid:
        raise ReproError("catalog chain needs a FSID")
    plan = catalog.chain_for(args.fsid, subtree=args.subtree,
                             target_day=args.day)
    print("chain for %s:%s day %s (%s, %d set(s)):"
          % (args.fsid, args.subtree,
             "latest" if args.day is None else args.day,
             plan.strategy, len(plan)))
    for s in plan.sets:
        print("  %s level %d day %d  tapes: %s"
              % (s.set_id, s.level, s.day, ",".join(s.cartridges)))
    print("load order: %s" % ",".join(plan.cartridges))
    return 0


@verb("policy", "manage retention policies",
      arg("catalog"), arg("action", choices=["set", "list"]),
      arg("fsid", nargs="?", default=None),
      arg("policy", nargs="?", default=None,
          help="'redundancy N' or 'window N days'"),
      arg("--subtree", default="/"))
def cmd_policy(args) -> int:
    from repro.catalog import BackupCatalog
    from repro.manager import parse_policy

    catalog = BackupCatalog.load(args.catalog)
    if args.action == "set":
        if not args.fsid or not args.policy:
            raise ReproError("policy set needs FSID and POLICY")
        parse_policy(args.policy)  # validate before storing
        catalog.set_policy(args.fsid, args.subtree, args.policy)
        print("policy for %s:%s -> %s" % (args.fsid, args.subtree,
                                          args.policy))
        return 0
    for fsid, subtree, text in catalog.policy_targets():
        print("%s:%s -> %s" % (fsid, subtree, text))
    return 0


@verb("prune", "apply retention policies, recycle cartridges",
      arg("catalog"),
      arg("--pool", default=None,
          help="media pool container (erased tapes written back)"),
      arg("--day", type=int, default=None,
          help="'today' for window policies (latest day if omitted)"))
def cmd_prune(args) -> int:
    from repro.manager import prune

    catalog, pool = _load_catalog_and_pool(args.catalog, args.pool)
    retired = prune(catalog, pool, now_day=args.day)
    if pool is not None:
        pool.save(args.pool)
    if not retired:
        print("prune: nothing to retire")
        return 0
    for (fsid, subtree), set_ids in sorted(retired.items()):
        print("prune: %s:%s retired %s" % (fsid, subtree, ",".join(set_ids)))
    scratch = sum(1 for c in catalog.media.values() if c.status == "scratch")
    print("prune: %d cartridge(s) back in the scratch pool" % scratch)
    return 0


def _campaign_run_once(args, catalog_path, pool_path, volumes_dir,
                       chaos_plan=None, events_path=None):
    """Build, populate, and run one campaign; returns the artifacts.

    The normal path uses :class:`CampaignDriver`; when ``chaos_plan`` is
    given the chaos driver runs instead and every volume gets an NVRAM
    log (crash faults replay it on recovery).  Returns ``(catalog,
    driver, volume_paths)`` with every artifact durably saved.
    """
    from repro.catalog import BackupCatalog
    from repro.manager import (
        CampaignDriver,
        MediaPool,
        parse_policy,
        parse_schedule,
    )
    from repro.nvram.log import NvramLog
    from repro.storage.persist import save_volume
    from repro.workload import WorkloadGenerator

    catalog = BackupCatalog(catalog_path)
    pool = MediaPool(catalog)
    pool.add_blank(args.tapes, capacity=args.tape_capacity)
    schedule = parse_schedule(args.schedule)
    if args.policy:
        parse_policy(args.policy)  # validate
    if chaos_plan is not None:
        from repro.chaos import ChaosCampaignDriver

        driver = ChaosCampaignDriver(catalog, pool, chaos_plan,
                                     events_path=events_path,
                                     seed=args.seed,
                                     keep_daily_snapshots=args.daily_snapshots)
    else:
        driver = CampaignDriver(catalog, pool, seed=args.seed,
                                keep_daily_snapshots=args.daily_snapshots)
    if volumes_dir:
        os.makedirs(volumes_dir, exist_ok=True)
    specs = []
    for index, spec in enumerate(args.volume):
        name, strategy = spec.split("=", 1)
        fs = _new_fs(args, name,
                     NvramLog() if chaos_plan is not None else None)
        generator = WorkloadGenerator(seed=args.seed + index)
        tree = generator.populate(fs, args.bytes)
        fs.consistency_point()
        driver.add_volume(fs, tree, strategy, schedule)
        if args.policy:
            catalog.set_policy(name, "/", args.policy, save=False)
        specs.append(name)
    driver.run(args.days)
    pool.save(pool_path)
    volume_paths = {}
    # Save through the driver's handles: a crash fault replaces a
    # volume's filesystem object with the recovered mount.
    for name, state in zip(specs, driver.volumes):
        state.fs.consistency_point()
        path = os.path.join(volumes_dir, "%s.vol" % name)
        save_volume(state.fs.volume, path)
        volume_paths[name] = path
    return catalog, driver, volume_paths


def _run_campaign_chaos(args) -> int:
    """The ``--chaos`` path: chaos campaign + fault-free oracle + verify.

    Two campaigns run with identical workload seeds: the oracle with the
    fault plan disabled (at ``<catalog>.oracle`` sibling paths) and the
    chaos campaign with it live (at the real paths).  Afterwards every
    durable artifact — catalog, media pool, each volume image — is
    digest-compared; any divergence means a recovery mechanism failed to
    restore byte-identical state, and the command exits nonzero.
    """
    from repro.chaos import (
        ChaosPlan,
        campaign_state_digests,
        compare_digests,
    )

    chaos_seed = (args.chaos_seed if args.chaos_seed is not None
                  else args.seed)
    plan_kwargs = {"rate": args.chaos_rate}
    if args.chaos_kinds:
        plan_kwargs["kinds"] = tuple(args.chaos_kinds.split(","))
    oracle_plan = ChaosPlan(chaos_seed, enabled=False, **plan_kwargs)
    chaos_plan = ChaosPlan(chaos_seed, **plan_kwargs)
    events_path = args.chaos_events or (args.catalog + ".chaos.jsonl")
    with open(events_path, "w"):
        pass  # truncate: the driver appends one line per fault event

    oracle_dir = os.path.join(args.save_volumes or ".", "oracle")
    _, _, oracle_volumes = _campaign_run_once(
        args, args.catalog + ".oracle", args.pool + ".oracle", oracle_dir,
        chaos_plan=oracle_plan)
    catalog, driver, volume_paths = _campaign_run_once(
        args, args.catalog, args.pool, args.save_volumes or ".",
        chaos_plan=chaos_plan, events_path=events_path)

    hits = [e for e in driver.events if e["outcome"] == "hit"]
    misses = [e for e in driver.events if e["outcome"] == "miss"]
    by_kind = {}
    for event in hits:
        by_kind[event["kind"]] = by_kind.get(event["kind"], 0) + 1
    print("chaos: seed %d, %d fault(s) injected, %d missed (%s)"
          % (chaos_seed, len(hits), len(misses),
             ", ".join("%s=%d" % kv for kv in sorted(by_kind.items()))
             or "none"))
    print("chaos: events -> %s" % events_path)

    oracle = campaign_state_digests(args.catalog + ".oracle",
                                    args.pool + ".oracle", oracle_volumes)
    recovered = campaign_state_digests(args.catalog, args.pool,
                                       volume_paths)
    mismatches = compare_digests(oracle, recovered)
    if mismatches:
        for key, left, right in mismatches:
            print("chaos: MISMATCH %s\n  oracle    %s\n  recovered %s"
                  % (key, left, right), file=sys.stderr)
        print("chaos: recovered state DIVERGES from the fault-free oracle"
              " in %d artifact(s)" % len(mismatches), file=sys.stderr)
        return 1
    print("chaos: recovered state byte-identical to the fault-free oracle"
          " across %d artifact(s)" % len(oracle))
    print("campaign: %d day(s), %d volume(s), %d set(s) catalogued"
          % (args.days, len(args.volume), len(catalog.sets)))
    return 0


@verb("run-campaign", "run a multi-day backup campaign",
      arg("catalog", help="catalog JSON file to create"),
      arg("--pool", required=True,
          help="media pool container to create"),
      arg("--volume", action="append", required=True,
          metavar="NAME=STRATEGY",
          help="volume to enroll (strategy: logical or image)"),
      arg("--days", type=int, default=14),
      arg("--schedule", default="gfs:7x4",
          help="gfs[:DxW] or hanoi[:LEVELS]"),
      arg("--policy", default=None,
          help="retention policy applied to every volume"),
      arg("--bytes", type=size, default="4MB",
          help="initial data per volume"),
      arg("--seed", type=int, default=42),
      arg("--tapes", type=int, default=60),
      arg("--tape-capacity", type=size, default="8MB"),
      *GEOMETRY,
      arg("--save-volumes", default=".",
          help="directory for the live volume containers"),
      arg("--daily-snapshots", action="store_true",
          help="snapshot each volume every simulated day"),
      arg("--chaos", action="store_true",
          help="inject a deterministic fault campaign, recover"
               " every fault, and verify the recovered state"
               " byte-identical to a fault-free oracle run"),
      arg("--chaos-seed", type=int, default=None,
          help="fault-plan seed (defaults to --seed; the plan is"
               " a pure function of this seed)"),
      arg("--chaos-rate", type=float, default=0.5,
          help="per volume-day fault probability (default 0.5)"),
      arg("--chaos-kinds", default=None,
          metavar="KIND[,KIND...]",
          help="restrict faults to these kinds (default: all of"
               " kill,corrupt,eject,disk_fail,crash,torn_cp)"),
      arg("--chaos-events", default=None, metavar="OUT.jsonl",
          help="fault/recovery event log (default:"
               " <catalog>.chaos.jsonl)"),
      obs=True)
def cmd_run_campaign(args) -> int:
    for spec in args.volume:
        if "=" not in spec:
            raise ReproError("--volume wants NAME=STRATEGY, got %r" % spec)
    _obs_begin(args)
    if args.chaos:
        return _run_campaign_chaos(args)
    catalog, _driver, _paths = _campaign_run_once(
        args, args.catalog, args.pool, args.save_volumes or ".")
    print("campaign: %d day(s), %d volume(s), %d set(s) catalogued"
          % (args.days, len(args.volume), len(catalog.sets)))
    for fsid, subtree in catalog.volumes():
        sets = catalog.sets_for(fsid, subtree)
        total = sum(s.bytes_to_tape for s in sets)
        print("  %s:%s  %d set(s), %s to tape"
              % (fsid, subtree, len(sets), fmt_bytes(total)))
    return 0


verb("fleet", "multi-tenant backup service over shared drives")(None)


@verb("fleet init", "create a fleet root from a spec",
      arg("root", help="fleet directory to create"),
      arg("--spec", required=True,
          help="fleet spec file (JSON, or TOML on 3.11+)"))
def cmd_fleet_init(args) -> int:
    from repro.fleet import FleetService, load_fleet_spec

    spec = load_fleet_spec(args.spec)
    FleetService.init_fleet(args.root, spec)
    print("fleet: initialised %s — %d tenant(s), %d drive(s), seed %d"
          % (args.root, len(spec.tenants), spec.drives, spec.seed))
    for tenant in spec.tenants:
        print("  %-12s lane=%-11s %s  %s  %s"
              % (tenant.name, tenant.lane, tenant.strategy,
                 tenant.schedule, tenant.retention))
    return 0


@verb("fleet run", "advance the fleet N simulated days",
      arg("root"),
      arg("--days", type=int, default=1),
      obs=True)
def cmd_fleet_run(args) -> int:
    from repro.fleet import FleetService

    _obs_begin(args)
    service = FleetService(args.root)
    totals = service.run_days(args.days)
    print("fleet: %d day(s), %d job(s), %s to tape, %d set(s) retired"
          % (totals["days"], totals["jobs"],
             fmt_bytes(totals["bytes_to_tape"]), totals["retired"]))
    utilization = service.scheduler.utilization()
    for index, busy in enumerate(utilization):
        print("  drive %d: %.0f%% utilised" % (index, 100.0 * busy))
    print("  mean queue wait: %.2f tick(s)" % service.scheduler.mean_wait())
    args.chrome_lanes = [t.name for t in service.spec.tenants]
    return 0


def _fleet_http(url: str, method: str = "GET", body=None):
    import urllib.request

    data = None
    if body is not None:
        data = json.dumps(body).encode()
    request = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(request) as response:
        return json.load(response)


@verb("fleet status", "show tenants, drives, and recent jobs",
      arg("root", nargs="?", default="."),
      arg("--json", action="store_true",
          help="print the raw status document"),
      arg("--url", default=None,
          help="query a running 'fleet serve' endpoint instead"
               " of reading the root directly"),
      arg("--last", type=int, default=5,
          help="recent job lines to show"))
def cmd_fleet_status(args) -> int:
    if args.url:
        document = _fleet_http(args.url.rstrip("/") + "/status")
    else:
        from repro.fleet import status_document, validate_status

        document = status_document(args.root)
        validate_status(document)
    if args.json:
        print(json.dumps(document, indent=1, sort_keys=True))
        return 0
    fleet = document["fleet"]
    print("fleet %s: day %d, tick %d, %d drive(s)"
          % (fleet["name"], fleet["day"], fleet["tick"],
             fleet["drive_count"]))
    for tenant in document["tenants"]:
        flag = " [paused]" if tenant["paused"] else ""
        print("  %-12s lane=%-11s %2d live set(s)  %10s to tape%s"
              % (tenant["name"], tenant["lane"], tenant["live_sets"],
                 fmt_bytes(tenant["bytes_to_tape"]), flag))
    pending = document["jobs"]["pending"]
    if pending:
        print("  pending: %s" % ", ".join(
            "%s/%s" % (entry["tenant"], entry["kind"]) for entry in pending))
    recent = document["jobs"]["recent"]
    for record in recent[-args.last:]:
        print("  %s %-12s %-7s lane=%-11s day %2d drive %d wait %d"
              % (record["job"], record["tenant"], record["kind"],
                 record["lane"], record["day"], record["drive"],
                 record["wait_ticks"]))
    return 0


@verb("fleet submit", "queue an ad-hoc dump or restore job",
      arg("root", nargs="?", default="."),
      arg("--tenant", required=True),
      arg("--kind", choices=["dump", "restore"], default="dump"),
      arg("--lane",
          choices=["interactive", "daily", "background"],
          default="interactive"),
      arg("--day", type=int, default=None,
          help="restore target day (default: latest)"),
      arg("--url", default=None,
          help="POST to a running 'fleet serve' endpoint"))
def cmd_fleet_submit(args) -> int:
    if args.url:
        reply = _fleet_http(args.url.rstrip("/") + "/jobs", method="POST",
                            body={"tenant": args.tenant, "kind": args.kind,
                                  "lane": args.lane, "day": args.day})
        entry = reply["queued"]
    else:
        from repro.fleet import submit_job

        entry = submit_job(args.root, args.tenant, kind=args.kind,
                           lane=args.lane, day=args.day)
    print("fleet: queued %s/%s on lane %s (runs next service day)"
          % (entry["tenant"], entry["kind"], entry["lane"]))
    return 0


# The decorator nearest the function registers first: pause, then resume.
@verb("fleet resume", "resume a paused tenant",
      arg("root"), arg("tenant"))
@verb("fleet pause", "pause a tenant's schedule",
      arg("root"), arg("tenant"))
def cmd_fleet_pause(args) -> int:
    from repro.fleet import set_paused

    paused = set_paused(args.root, args.tenant,
                        args.fleet_cmd == "pause")
    print("fleet: paused tenants: %s" % (", ".join(paused) or "(none)"))
    return 0


@verb("fleet serve", "serve the JSON status/REST API",
      arg("root"),
      arg("--host", default="127.0.0.1"),
      arg("--port", type=int, default=7322))
def cmd_fleet_serve(args) -> int:
    from repro.fleet import make_server

    server = make_server(args.root, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    print("fleet: serving %s on http://%s:%d (Ctrl-C to stop)"
          % (args.root, host, port))
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


@verb("trace", "inspect/export a --trace JSONL file",
      arg("action", choices=["export", "summary", "validate"]),
      arg("trace_file"),
      arg("--out", default=None,
          help="output path for export"
               " (default: TRACE_FILE.chrome.json)"))
def cmd_trace(args) -> int:
    """Inspect, summarize, validate, or export a saved trace file."""
    from repro.obs import (
        export_chrome_trace,
        read_jsonl,
        to_chrome_trace,
        validate_chrome_trace,
    )
    from repro.obs.summary import format_phase_summary, phase_rows

    events = read_jsonl(args.trace_file)
    if args.action == "validate":
        validate_chrome_trace(to_chrome_trace(events))
        print("trace: %d event(s); spans well-formed; export schema ok"
              % len(events))
        return 0
    if args.action == "summary":
        print(format_phase_summary(phase_rows(events)))
        return 0
    # export
    out = args.out or (args.trace_file + ".chrome.json")
    count = export_chrome_trace(events, out)
    print("trace: %d event(s) -> %s (open in Perfetto or chrome://tracing)"
          % (count, out))
    return 0


@verb("restore-pit", "catalog-planned point-in-time restore",
      arg("catalog"), arg("fsid"),
      arg("out", help="volume container to write"),
      arg("--pool", required=True),
      arg("--day", type=int, default=None),
      arg("--subtree", default="/"),
      *GEOMETRY)
def cmd_restore_pit(args) -> int:
    from repro.manager import restore_point_in_time
    from repro.raid.layout import make_geometry
    from repro.storage.persist import save_volume

    catalog, pool = _load_catalog_and_pool(args.catalog, args.pool)
    fs, plan = restore_point_in_time(
        catalog, pool, args.fsid, subtree=args.subtree, day=args.day,
        geometry=make_geometry(args.groups, args.disks, args.blocks),
    )
    save_volume(fs.volume, args.out)
    print("restore-pit: %s:%s day %s via %s (%d set(s))"
          % (args.fsid, args.subtree,
             "latest" if args.day is None else args.day,
             plan.strategy, len(plan)))
    print("restore-pit: loaded cartridges %s" % ",".join(plan.cartridges))
    print("restore-pit: wrote %s" % args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser and the one error boundary
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-backup",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parsers = {"": parser}
    subparsers = {}
    for full_name, help, args, obs, fn in VERBS:
        group, _, name = full_name.rpartition(" ")
        if group not in subparsers:
            subparsers[group] = parsers[group].add_subparsers(
                dest="%s_cmd" % group if group else "command", required=True)
        p = subparsers[group].add_parser(name, help=help)
        for flags, kwargs in args + (OBS if obs else ()):
            p.add_argument(*flags, **kwargs)
        if fn is not None:
            p.set_defaults(fn=fn)
        parsers[full_name] = p
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # argparse.REMAINDER cannot forward leading options through a
    # subparser (bpo-17050), so the bench passthrough routes here.
    if argv and argv[0] == "bench":
        from repro.bench.wallclock import main as wallclock_main

        return wallclock_main(list(argv[1:]))
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        _obs_end(args)
    except (ReproError, OSError) as error:
        print("repro-backup: error: %s" % error, file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
