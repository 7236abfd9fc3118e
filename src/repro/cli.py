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
import os
import sys

from repro.backup import (
    DumpDates,
    ImageDump,
    ImageRestore,
    LogicalDump,
    LogicalRestore,
    SymbolTable,
    drain_engine,
)
from repro.backup.logical.inspect import compare_tape, estimate_dump, list_tape
from repro.errors import ReproError
from repro.raid.layout import make_geometry
from repro.raid.volume import RaidVolume
from repro.storage.persist import load_tape, load_volume, save_tape, save_volume
from repro.storage.tape import TapeDrive, TapeStacker
from repro.units import GB, MB, fmt_bytes
from repro.wafl.filesystem import WaflFilesystem
from repro.wafl.fsck import fsck
from repro.wafl.inode import FileType


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------

def _parse_size(text: str) -> int:
    text = text.strip().upper()
    for suffix, factor in (("GB", GB), ("MB", MB), ("KB", 1024), ("B", 1)):
        if text.endswith(suffix):
            return int(float(text[: -len(suffix)]) * factor)
    return int(text)


def _mount(path: str) -> WaflFilesystem:
    return WaflFilesystem.mount(load_volume(path))


def _commit(fs: WaflFilesystem, path: str) -> None:
    fs.consistency_point()
    save_volume(fs.volume, path)


def _load_dumpdates(path) -> DumpDates:
    dates = DumpDates()
    if path and os.path.exists(path):
        with open(path) as handle:
            # Re-apply in date order so level supersession replays correctly.
            records = sorted(json.load(handle).items(), key=lambda kv: kv[1])
        for key, date in records:
            fsid, subtree, level = key.rsplit("|", 2)
            dates.record(fsid, subtree, int(level), date)
    return dates


def _save_dumpdates(dates: DumpDates, path) -> None:
    if not path:
        return
    flat = {}
    for (fsid, subtree), levels in dates._records.items():
        for level, date in levels.items():
            flat["%s|%s|%d" % (fsid, subtree, level)] = date
    with open(path, "w") as handle:
        json.dump(flat, handle, indent=2)


def _load_symtab(path):
    if not path or not os.path.exists(path):
        return None
    table = SymbolTable()
    with open(path) as handle:
        for ino, paths in json.load(handle).items():
            table.set(int(ino), paths)
    return table


def _save_symtab(table: SymbolTable, path) -> None:
    if not path or table is None:
        return
    with open(path, "w") as handle:
        json.dump({str(ino): table.get(ino) for ino in table.inos()},
                  handle, indent=2)


def _new_tape(name: str, tapes: int, capacity: int) -> TapeDrive:
    return TapeDrive(TapeStacker.with_blank_tapes(tapes, capacity=capacity,
                                                  name=name))


# ---------------------------------------------------------------------------
# Observability plane (--trace / --trace-chrome / --metrics)
# ---------------------------------------------------------------------------

def _add_obs_flags(p) -> None:
    p.add_argument("--trace", default=None, metavar="OUT.jsonl",
                   help="write a structured trace of the run (JSONL)")
    p.add_argument("--trace-chrome", default=None, metavar="OUT.json",
                   help="also export Chrome trace_event JSON (Perfetto)")
    p.add_argument("--metrics", nargs="?", const="-", default=None,
                   metavar="OUT.json",
                   help="collect metrics; print them ('-', the default)"
                        " or write a JSON snapshot")


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
    observability plane is on, so simulated-time phase spans exist — and
    return the engine's own result object.  Data movement is identical
    either way."""
    if not _obs_enabled(args):
        return drain_engine(engine)
    from repro.perf.executor import TimedRun

    run = TimedRun()
    result = run.add_job(name, engine)
    run.run()
    print("%s: simulated elapsed %.2fs (cpu %.2fs)"
          % (name, result.elapsed, result.cpu_seconds))
    return result.data


def _obs_end(args) -> None:
    """Write/print the run's trace and metrics, then disarm the plane."""
    if not _obs_enabled(args):
        return
    from repro.obs import (
        REGISTRY,
        export_chrome_trace,
        format_phase_summary,
        get_tracer,
        phase_rows,
        set_tracer,
    )

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


_TYPE_CHAR = {FileType.REGULAR: "-", FileType.DIRECTORY: "d",
              FileType.SYMLINK: "l"}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_mkfs(args) -> int:
    volume = RaidVolume(
        make_geometry(args.groups, args.disks, args.blocks),
        name=args.name or os.path.basename(args.volume).split(".")[0],
    )
    fs = WaflFilesystem.format(volume)
    _commit(fs, args.volume)
    print("formatted %s: %s (%s usable)"
          % (args.volume, volume.geometry.describe(),
             fmt_bytes(volume.size_bytes)))
    return 0


def cmd_populate(args) -> int:
    from repro.workload import AgingConfig, WorkloadGenerator, age_filesystem

    fs = _mount(args.volume)
    generator = WorkloadGenerator(seed=args.seed)
    tree = generator.populate(fs, _parse_size(args.bytes))
    if args.age:
        age_filesystem(fs, tree, AgingConfig(rounds=args.age,
                                             seed=args.seed + 1))
    _commit(fs, args.volume)
    print("populated %d files / %d dirs (%s)"
          % (len(tree.files), len(tree.directories),
             fmt_bytes(tree.total_bytes)))
    return 0


def cmd_ls(args) -> int:
    fs = _mount(args.volume)
    for path, inode in sorted(fs.walk(args.path)):
        print("%s%s %4d %6d %10d  %s"
              % (_TYPE_CHAR.get(inode.type, "?"),
                 oct(inode.perms)[2:].rjust(4, "0"),
                 inode.nlink, inode.uid, inode.size, path))
    return 0


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


def cmd_get(args) -> int:
    fs = _mount(args.volume)
    data = fs.read_file(args.source)
    with open(args.dest, "wb") as handle:
        handle.write(data)
    print("read %s -> %s (%s)" % (args.source, args.dest,
                                  fmt_bytes(len(data))))
    return 0


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


def cmd_snap(args) -> int:
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


def cmd_dump(args) -> int:
    fs = _mount(args.volume)
    dates = _load_dumpdates(args.dumpdates)
    drive = _new_tape(os.path.basename(args.tape), args.tapes,
                      _parse_size(args.tape_capacity))
    _obs_begin(args)
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
    _obs_end(args)
    return 0


def cmd_restore(args) -> int:
    drive = load_tape(args.tape)
    if args.mkfs:
        volume = RaidVolume(make_geometry(args.groups, args.disks,
                                          args.blocks),
                            name=os.path.basename(args.volume).split(".")[0])
        fs = WaflFilesystem.format(volume)
    else:
        fs = _mount(args.volume)
    _obs_begin(args)
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
    _obs_end(args)
    return 0


def cmd_image_dump(args) -> int:
    fs = _mount(args.volume)
    drive = _new_tape(os.path.basename(args.image), args.tapes,
                      _parse_size(args.tape_capacity))
    _obs_begin(args)
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
    _obs_end(args)
    return 0


def cmd_image_restore(args) -> int:
    drive = load_tape(args.image)
    if os.path.exists(args.volume) and not args.fresh:
        volume = load_volume(args.volume)
    else:
        # Geometry comes from the image header itself.
        from repro.backup.physical.image import ImageHeader

        drive.rewind()
        header = ImageHeader.unpack_from_stream(drive.read)
        volume = RaidVolume(header.geometry,
                            name=os.path.basename(args.volume).split(".")[0])
        drive.rewind()
    _obs_begin(args)
    result = _run_engine(args, "image-restore",
                         ImageRestore(volume, drive).run())
    save_volume(volume, args.volume)
    print("IMAGE RESTORE: %d blocks onto %s (cp %d)"
          % (result.blocks, args.volume, result.cp_count))
    _obs_end(args)
    return 0


def cmd_interactive(args) -> int:
    """restore -i: read shell commands from stdin (scriptable)."""
    from repro.backup.logical.interactive import InteractiveRestore

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


def cmd_toc(args) -> int:
    drive = load_tape(args.tape)
    catalog = list_tape(drive)
    label = catalog.label
    print("Dump of %s:%s level %d (%d objects)"
          % (label.filesystem, label.subtree, label.level, len(catalog)))
    for entry in catalog.entries:
        print("%s%s %6d  %s"
              % (_TYPE_CHAR.get(entry.ftype, "?"),
                 oct(entry.perms)[2:].rjust(4, "0"),
                 entry.size, entry.path))
    return 0


def cmd_verify(args) -> int:
    if args.image:
        from repro.backup.physical import compare_image

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


def cmd_estimate(args) -> int:
    fs = _mount(args.volume)
    dates = _load_dumpdates(args.dumpdates)
    size = estimate_dump(fs, level=args.level, subtree=args.subtree,
                         dumpdates=dates)
    print("estimated level-%d dump of %s%s: %s (%d blocks of tape)"
          % (args.level, args.volume, args.subtree, fmt_bytes(size),
             (size + 1023) // 1024))
    return 0


def cmd_fsck(args) -> int:
    fs = _mount(args.volume)
    report = fsck(fs, check_parity=args.parity)
    save_volume(fs.volume, args.volume)  # fsck's CP
    print("fsck: %d inodes, %d blocks checked"
          % (report.inodes_checked, report.blocks_checked))
    for error in report.errors:
        print("fsck: ERROR: %s" % error)
    for warning in report.warnings:
        print("fsck: warning: %s" % warning)
    print("fsck: %s" % ("clean" if report.clean else "DIRTY"))
    return 0 if report.clean else 1


def cmd_rebuild(args) -> int:
    volume = load_volume(args.volume)
    group = volume.groups[args.group]
    group.rebuild_disk(args.disk)
    save_volume(volume, args.volume)
    print("rebuilt data disk %d of group %d onto a spare"
          % (args.disk, args.group))
    return 0


def cmd_scrub(args) -> int:
    volume = load_volume(args.volume)
    repaired = sum(group.scrub() for group in volume.groups)
    save_volume(volume, args.volume)
    print("scrub: %d stripes repaired" % repaired)
    return 0


def _load_catalog_and_pool(catalog_path, pool_path):
    from repro.catalog import BackupCatalog
    from repro.manager import MediaPool

    catalog = BackupCatalog.load(catalog_path)
    pool = MediaPool.load(catalog, pool_path) if pool_path else None
    return catalog, pool


def cmd_dumpdates(args) -> int:
    """List the persisted dumpdates database."""
    if args.catalog:
        from repro.catalog import BackupCatalog

        dates = BackupCatalog.load(args.catalog).dumpdates
    elif args.path:
        dates = _load_dumpdates(args.path)
    else:
        print("repro-backup: dumpdates needs a JSON path or --catalog",
              file=sys.stderr)
        return 2
    rows = []
    for (fsid, subtree), levels in sorted(dates._records.items()):
        for level, date in sorted(levels.items()):
            rows.append((fsid, subtree, level, date))
    print("%-16s %-16s %5s %10s" % ("FILESYSTEM", "SUBTREE", "LEVEL", "DATE"))
    for fsid, subtree, level, date in rows:
        print("%-16s %-16s %5d %10d" % (fsid, subtree, level, date))
    print("%d record(s)" % len(rows))
    return 0


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
    if args.action == "chain":
        if not args.fsid:
            print("repro-backup: catalog chain needs a FSID", file=sys.stderr)
            return 2
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
    print("unknown catalog action %r" % args.action, file=sys.stderr)
    return 2


def cmd_policy(args) -> int:
    from repro.catalog import BackupCatalog
    from repro.manager import parse_policy

    catalog = BackupCatalog.load(args.catalog)
    if args.action == "set":
        if not args.fsid or not args.policy:
            print("repro-backup: policy set needs FSID and POLICY",
                  file=sys.stderr)
            return 2
        parse_policy(args.policy)  # validate before storing
        catalog.set_policy(args.fsid, args.subtree, args.policy)
        print("policy for %s:%s -> %s" % (args.fsid, args.subtree,
                                          args.policy))
        return 0
    for fsid, subtree, text in catalog.policy_targets():
        print("%s:%s -> %s" % (fsid, subtree, text))
    return 0


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
    from repro.workload import WorkloadGenerator

    catalog = BackupCatalog(catalog_path)
    pool = MediaPool(catalog)
    pool.add_blank(args.tapes, capacity=_parse_size(args.tape_capacity))
    schedule = parse_schedule(args.schedule)
    if args.policy:
        parse_policy(args.policy)  # validate
    if chaos_plan is not None:
        from repro.chaos import ChaosCampaignDriver

        driver = ChaosCampaignDriver(catalog, pool, chaos_plan,
                                     events_path=events_path,
                                     seed=args.seed,
                                     keep_daily_snapshots=args.daily_snapshots,
                                     jobs=args.jobs)
    else:
        driver = CampaignDriver(catalog, pool, seed=args.seed,
                                keep_daily_snapshots=args.daily_snapshots,
                                jobs=args.jobs)
    if volumes_dir:
        os.makedirs(volumes_dir, exist_ok=True)
    specs = []
    for index, spec in enumerate(args.volume):
        name, strategy = spec.split("=", 1)
        volume = RaidVolume(make_geometry(args.groups, args.disks,
                                          args.blocks), name=name)
        if chaos_plan is not None:
            from repro.nvram.log import NvramLog

            fs = WaflFilesystem.format(volume, nvram=NvramLog())
        else:
            fs = WaflFilesystem.format(volume)
        generator = WorkloadGenerator(seed=args.seed + index)
        tree = generator.populate(fs, _parse_size(args.bytes))
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


def cmd_run_campaign(args) -> int:
    for spec in args.volume:
        if "=" not in spec:
            print("repro-backup: --volume wants NAME=STRATEGY, got %r"
                  % spec, file=sys.stderr)
            return 2
    _obs_begin(args)
    if args.chaos:
        code = _run_campaign_chaos(args)
        _obs_end(args)
        return code
    catalog, _driver, _paths = _campaign_run_once(
        args, args.catalog, args.pool, args.save_volumes or ".")
    print("campaign: %d day(s), %d volume(s), %d set(s) catalogued"
          % (args.days, len(args.volume), len(catalog.sets)))
    for fsid, subtree in catalog.volumes():
        sets = catalog.sets_for(fsid, subtree)
        total = sum(s.bytes_to_tape for s in sets)
        print("  %s:%s  %d set(s), %s to tape"
              % (fsid, subtree, len(sets), fmt_bytes(total)))
    _obs_end(args)
    return 0


def cmd_restore_pit(args) -> int:
    from repro.manager import restore_point_in_time

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


def cmd_trace(args) -> int:
    """Inspect, summarize, validate, or export a saved trace file."""
    from repro.obs import (
        export_chrome_trace,
        format_phase_summary,
        phase_rows,
        read_jsonl,
        to_chrome_trace,
        validate_chrome_trace,
        validate_spans,
    )

    events = read_jsonl(args.trace_file)
    if args.action == "validate":
        validate_spans(events)
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


def cmd_fleet(args) -> int:
    """Dispatch ``repro fleet init|run|status|submit|pause|resume|serve``."""
    return args.fleet_fn(args)


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


def cmd_fleet_run(args) -> int:
    from repro.fleet import FleetService

    _obs_begin(args)
    service = FleetService(args.root, jobs=args.jobs)
    totals = service.run_days(args.days)
    print("fleet: %d day(s), %d job(s), %s to tape, %d set(s) retired"
          % (totals["days"], totals["jobs"],
             fmt_bytes(totals["bytes_to_tape"]), totals["retired"]))
    utilization = service.scheduler.utilization()
    for index, busy in enumerate(utilization):
        print("  drive %d: %.0f%% utilised" % (index, 100.0 * busy))
    print("  mean queue wait: %.2f tick(s)" % service.scheduler.mean_wait())
    events = None
    if getattr(args, "trace_chrome", None):
        from repro.obs import get_tracer

        tracer = get_tracer()
        if tracer.enabled:
            events = tracer.events()
    _obs_end(args)
    if events:
        # Overwrite the generic export _obs_end just wrote with one that
        # groups events into named per-tenant process lanes.
        from repro.fleet import export_fleet_trace

        export_fleet_trace(events, args.trace_chrome,
                           [t.name for t in service.spec.tenants])
        print("trace: per-tenant chrome lanes -> %s" % args.trace_chrome)
    return 0


def _fleet_http(url: str, method: str = "GET", body=None):
    import json as json_module
    import urllib.request

    data = None
    if body is not None:
        data = json_module.dumps(body).encode()
    request = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(request) as response:
        return json_module.load(response)


def cmd_fleet_status(args) -> int:
    import json as json_module

    if args.url:
        document = _fleet_http(args.url.rstrip("/") + "/status")
    else:
        from repro.fleet import status_document, validate_status

        document = status_document(args.root)
        validate_status(document)
    if args.json:
        print(json_module.dumps(document, indent=1, sort_keys=True))
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
    chaos = document.get("chaos", {})
    if chaos.get("planned"):
        kinds = ", ".join("%s=%d" % kv
                          for kv in sorted(chaos["by_kind"].items()))
        print("  chaos: %d fault(s) planned, %d injected, %d missed%s"
              % (chaos["planned"], chaos["injected"], chaos["missed"],
                 " (%s)" % kinds if kinds else ""))
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


def cmd_fleet_pause(args) -> int:
    from repro.fleet import set_paused

    paused = set_paused(args.root, args.tenant,
                        args.fleet_cmd == "pause")
    print("fleet: paused tenants: %s" % (", ".join(paused) or "(none)"))
    return 0


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


def cmd_bench(args) -> int:
    from repro.bench.wallclock import main as wallclock_main

    return wallclock_main(args.rest)


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


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-backup",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mkfs", help="create and format a volume container")
    p.add_argument("volume")
    p.add_argument("--groups", type=int, default=2)
    p.add_argument("--disks", type=int, default=4)
    p.add_argument("--blocks", type=int, default=2500,
                   help="blocks per data disk")
    p.add_argument("--name", default=None)
    p.set_defaults(fn=cmd_mkfs)

    p = sub.add_parser("populate", help="fill with a synthetic workload")
    p.add_argument("volume")
    p.add_argument("--bytes", default="16MB")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--age", type=int, default=0, help="aging rounds")
    p.set_defaults(fn=cmd_populate)

    p = sub.add_parser("ls", help="list a subtree")
    p.add_argument("volume")
    p.add_argument("path", nargs="?", default="/")
    p.set_defaults(fn=cmd_ls)

    p = sub.add_parser("put", help="copy a host file into the volume")
    p.add_argument("volume")
    p.add_argument("source")
    p.add_argument("dest")
    p.set_defaults(fn=cmd_put)

    p = sub.add_parser("get", help="copy a file out to the host")
    p.add_argument("volume")
    p.add_argument("source")
    p.add_argument("dest")
    p.set_defaults(fn=cmd_get)

    p = sub.add_parser("rm", help="remove a file or empty directory")
    p.add_argument("volume")
    p.add_argument("path")
    p.set_defaults(fn=cmd_rm)

    p = sub.add_parser("snap", help="manage snapshots")
    p.add_argument("volume")
    p.add_argument("action", choices=["create", "delete", "list"])
    p.add_argument("name", nargs="?")
    p.set_defaults(fn=cmd_snap)

    p = sub.add_parser("dump", help="logical (BSD-style) dump to tape")
    p.add_argument("volume")
    p.add_argument("tape")
    p.add_argument("--level", type=int, default=0)
    p.add_argument("--subtree", default="/")
    p.add_argument("--dumpdates", default=None,
                   help="JSON dumpdates database (read + updated)")
    p.add_argument("--tapes", type=int, default=8)
    p.add_argument("--tape-capacity", default="35GB")
    _add_obs_flags(p)
    p.set_defaults(fn=cmd_dump)

    p = sub.add_parser("restore", help="logical restore from tape")
    p.add_argument("tape")
    p.add_argument("volume")
    p.add_argument("--into", default="/")
    p.add_argument("--select", nargs="*", default=None,
                   help="restore only these paths (stupidity recovery)")
    p.add_argument("--symtab", default=None,
                   help="JSON symbol table for incremental chains")
    p.add_argument("--resync", action="store_true",
                   help="skip corrupted tape regions")
    p.add_argument("--mkfs", action="store_true",
                   help="create a fresh file system first")
    p.add_argument("--groups", type=int, default=2)
    p.add_argument("--disks", type=int, default=4)
    p.add_argument("--blocks", type=int, default=2500)
    _add_obs_flags(p)
    p.set_defaults(fn=cmd_restore)

    p = sub.add_parser("image-dump", help="physical (image) dump")
    p.add_argument("volume")
    p.add_argument("image")
    p.add_argument("--snapshot", default=None,
                   help="snapshot to dump (created and kept if named)")
    p.add_argument("--base", default=None,
                   help="base snapshot: produce an incremental image")
    p.add_argument("--include-snapshots", action="store_true")
    p.add_argument("--tapes", type=int, default=8)
    p.add_argument("--tape-capacity", default="35GB")
    _add_obs_flags(p)
    p.set_defaults(fn=cmd_image_dump)

    p = sub.add_parser("image-restore", help="physical (image) restore")
    p.add_argument("image")
    p.add_argument("volume")
    p.add_argument("--fresh", action="store_true",
                   help="ignore an existing volume container")
    _add_obs_flags(p)
    p.set_defaults(fn=cmd_image_restore)

    p = sub.add_parser("interactive",
                       help="browse a tape and extract marks (restore -i)")
    p.add_argument("tape")
    p.add_argument("volume", help="target volume for 'extract'")
    p.add_argument("--into", default="/")
    p.set_defaults(fn=cmd_interactive)

    p = sub.add_parser("toc", help="list a tape's contents (restore -t)")
    p.add_argument("tape")
    p.set_defaults(fn=cmd_toc)

    p = sub.add_parser("verify", help="compare tape vs volume (restore -C)")
    p.add_argument("volume")
    p.add_argument("tape")
    p.add_argument("--image", action="store_true",
                   help="the tape is an image stream, not a dump stream")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("estimate", help="predict a dump's size (dump -S)")
    p.add_argument("volume")
    p.add_argument("--level", type=int, default=0)
    p.add_argument("--subtree", default="/")
    p.add_argument("--dumpdates", default=None)
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("fsck", help="check file-system invariants")
    p.add_argument("volume")
    p.add_argument("--parity", action="store_true",
                   help="also audit RAID parity")
    p.set_defaults(fn=cmd_fsck)

    p = sub.add_parser("scrub", help="recompute RAID parity")
    p.add_argument("volume")
    p.set_defaults(fn=cmd_scrub)

    p = sub.add_parser("rebuild", help="rebuild a failed data disk")
    p.add_argument("volume")
    p.add_argument("--group", type=int, required=True)
    p.add_argument("--disk", type=int, required=True)
    p.set_defaults(fn=cmd_rebuild)

    p = sub.add_parser("df", help="show space usage")
    p.add_argument("volume")
    p.set_defaults(fn=cmd_df)

    p = sub.add_parser("bench",
                       help="wall-clock benchmark harness"
                            " (delegates to repro.bench.wallclock)")
    p.add_argument("rest", nargs=argparse.REMAINDER,
                   help="arguments passed through, e.g."
                        " --mode smoke --check --jobs 4")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("dumpdates",
                       help="list persisted dumpdates records")
    p.add_argument("path", nargs="?", default=None,
                   help="JSON dumpdates database (as written by dump)")
    p.add_argument("--catalog", default=None,
                   help="read the dumpdates the catalog rebuilt instead")
    p.set_defaults(fn=cmd_dumpdates)

    p = sub.add_parser("catalog", help="inspect the backup catalog")
    p.add_argument("catalog", help="catalog JSON file")
    p.add_argument("action", choices=["list", "chain"])
    p.add_argument("fsid", nargs="?", default=None)
    p.add_argument("--subtree", default="/")
    p.add_argument("--day", type=int, default=None,
                   help="target campaign day (latest when omitted)")
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("policy", help="manage retention policies")
    p.add_argument("catalog")
    p.add_argument("action", choices=["set", "list"])
    p.add_argument("fsid", nargs="?", default=None)
    p.add_argument("policy", nargs="?", default=None,
                   help="'redundancy N' or 'window N days'")
    p.add_argument("--subtree", default="/")
    p.set_defaults(fn=cmd_policy)

    p = sub.add_parser("prune",
                       help="apply retention policies, recycle cartridges")
    p.add_argument("catalog")
    p.add_argument("--pool", default=None,
                   help="media pool container (erased tapes written back)")
    p.add_argument("--day", type=int, default=None,
                   help="'today' for window policies (latest day if omitted)")
    p.set_defaults(fn=cmd_prune)

    p = sub.add_parser("run-campaign",
                       help="run a multi-day backup campaign")
    p.add_argument("catalog", help="catalog JSON file to create")
    p.add_argument("--pool", required=True,
                   help="media pool container to create")
    p.add_argument("--volume", action="append", required=True,
                   metavar="NAME=STRATEGY",
                   help="volume to enroll (strategy: logical or image)")
    p.add_argument("--days", type=int, default=14)
    p.add_argument("--schedule", default="gfs:7x4",
                   help="gfs[:DxW] or hanoi[:LEVELS]")
    p.add_argument("--policy", default=None,
                   help="retention policy applied to every volume")
    p.add_argument("--bytes", default="4MB", help="initial data per volume")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tapes", type=int, default=60)
    p.add_argument("--tape-capacity", default="8MB")
    p.add_argument("--groups", type=int, default=2)
    p.add_argument("--disks", type=int, default=4)
    p.add_argument("--blocks", type=int, default=2500)
    p.add_argument("--save-volumes", default=".",
                   help="directory for the live volume containers")
    p.add_argument("--daily-snapshots", action="store_true",
                   help="snapshot each volume every simulated day")
    p.add_argument("--jobs", type=int, default=1,
                   help="age/dump volumes in N worker processes (catalog,"
                        " media and volumes are byte-identical to a serial"
                        " run)")
    p.add_argument("--chaos", action="store_true",
                   help="inject a deterministic fault campaign, recover"
                        " every fault, and verify the recovered state"
                        " byte-identical to a fault-free oracle run")
    p.add_argument("--chaos-seed", type=int, default=None,
                   help="fault-plan seed (defaults to --seed; the plan is"
                        " a pure function of this seed)")
    p.add_argument("--chaos-rate", type=float, default=0.5,
                   help="per volume-day fault probability (default 0.5)")
    p.add_argument("--chaos-kinds", default=None,
                   metavar="KIND[,KIND...]",
                   help="restrict faults to these kinds (default: all of"
                        " kill,corrupt,eject,disk_fail,crash,torn_cp)")
    p.add_argument("--chaos-events", default=None, metavar="OUT.jsonl",
                   help="fault/recovery event log (default:"
                        " <catalog>.chaos.jsonl)")
    _add_obs_flags(p)
    p.set_defaults(fn=cmd_run_campaign)

    p = sub.add_parser("fleet",
                       help="multi-tenant backup service over shared drives")
    fleet_sub = p.add_subparsers(dest="fleet_cmd", required=True)
    p.set_defaults(fn=cmd_fleet)

    fp = fleet_sub.add_parser("init",
                              help="create a fleet root from a spec")
    fp.add_argument("root", help="fleet directory to create")
    fp.add_argument("--spec", required=True,
                    help="fleet spec file (JSON, or TOML on 3.11+)")
    fp.set_defaults(fleet_fn=cmd_fleet_init)

    fp = fleet_sub.add_parser("run",
                              help="advance the fleet N simulated days")
    fp.add_argument("root")
    fp.add_argument("--days", type=int, default=1)
    fp.add_argument("--jobs", type=int, default=1,
                    help="run each batch's dumps in N worker processes"
                         " (event log and catalogs are byte-identical"
                         " to a serial run)")
    _add_obs_flags(fp)
    fp.set_defaults(fleet_fn=cmd_fleet_run)

    fp = fleet_sub.add_parser("status",
                              help="show tenants, drives, and recent jobs")
    fp.add_argument("root", nargs="?", default=".")
    fp.add_argument("--json", action="store_true",
                    help="print the raw status document")
    fp.add_argument("--url", default=None,
                    help="query a running 'fleet serve' endpoint instead"
                         " of reading the root directly")
    fp.add_argument("--last", type=int, default=5,
                    help="recent job lines to show")
    fp.set_defaults(fleet_fn=cmd_fleet_status)

    fp = fleet_sub.add_parser("submit",
                              help="queue an ad-hoc dump or restore job")
    fp.add_argument("root", nargs="?", default=".")
    fp.add_argument("--tenant", required=True)
    fp.add_argument("--kind", choices=["dump", "restore"], default="dump")
    fp.add_argument("--lane",
                    choices=["interactive", "daily", "background"],
                    default="interactive")
    fp.add_argument("--day", type=int, default=None,
                    help="restore target day (default: latest)")
    fp.add_argument("--url", default=None,
                    help="POST to a running 'fleet serve' endpoint")
    fp.set_defaults(fleet_fn=cmd_fleet_submit)

    fp = fleet_sub.add_parser("pause", help="pause a tenant's schedule")
    fp.add_argument("root")
    fp.add_argument("tenant")
    fp.set_defaults(fleet_fn=cmd_fleet_pause)

    fp = fleet_sub.add_parser("resume", help="resume a paused tenant")
    fp.add_argument("root")
    fp.add_argument("tenant")
    fp.set_defaults(fleet_fn=cmd_fleet_pause)

    fp = fleet_sub.add_parser("serve",
                              help="serve the JSON status/REST API")
    fp.add_argument("root")
    fp.add_argument("--host", default="127.0.0.1")
    fp.add_argument("--port", type=int, default=7322)
    fp.set_defaults(fleet_fn=cmd_fleet_serve)

    p = sub.add_parser("trace",
                       help="inspect/export a --trace JSONL file")
    p.add_argument("action", choices=["export", "summary", "validate"])
    p.add_argument("trace_file")
    p.add_argument("--out", default=None,
                   help="output path for export"
                        " (default: TRACE_FILE.chrome.json)")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("restore-pit",
                       help="catalog-planned point-in-time restore")
    p.add_argument("catalog")
    p.add_argument("fsid")
    p.add_argument("out", help="volume container to write")
    p.add_argument("--pool", required=True)
    p.add_argument("--day", type=int, default=None)
    p.add_argument("--subtree", default="/")
    p.add_argument("--groups", type=int, default=2)
    p.add_argument("--disks", type=int, default=4)
    p.add_argument("--blocks", type=int, default=2500)
    p.set_defaults(fn=cmd_restore_pit)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # argparse.REMAINDER cannot forward leading options through a
    # subparser (bpo-17050), so the bench passthrough routes here.
    if argv and argv[0] == "bench":
        from repro.bench.wallclock import main as wallclock_main

        return wallclock_main(list(argv[1:]))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as error:
        print("repro-backup: error: %s" % error, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
