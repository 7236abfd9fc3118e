"""Dump-engine plumbing shared by the experiments and the campaign driver.

* :func:`split_into_qtrees` divides a volume into equal qtrees — the
  paper's setup for its parallel runs ("we used quota trees"), since
  logical dump cannot split one stream over drives.
* :func:`build_dump_engine` builds one dump engine of either strategy,
  the campaign driver's unit of work.

The parallel experiments themselves (Tables 2-5: one dump per qtree, one
image striped over the drives) run in :func:`repro.bench.harness.run_strategy`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import BackupError
from repro.backup.logical.dump import LogicalDump
from repro.backup.logical.dumpdates import DumpDates
from repro.backup.physical.dump import ImageDump


def split_into_qtrees(fs, generator, total_bytes: int, count: int,
                      prefix: str = "qt") -> List[str]:
    """Create ``count`` qtrees and populate them with equal shares.

    This reproduces the paper's setup: "we have separated the home volume
    into 4 equal sized independent pieces (we used quota trees)".
    Returns the qtree paths.
    """
    if count < 1:
        raise BackupError("need at least one qtree")
    paths = []
    for index in range(count):
        name = "%s%d" % (prefix, index)
        fs.create_qtree(name)
        paths.append("/" + name)
    # Interleaved population: each qtree's blocks spread over the whole
    # volume, as months of concurrent use would leave them.
    generator.populate_many(fs, paths, total_bytes // count)
    fs.consistency_point()
    return paths


def build_dump_engine(
    fs,
    drive,
    strategy: str,
    level: int = 0,
    subtree: str = "/",
    dumpdates: Optional[DumpDates] = None,
    snapshot_name: Optional[str] = None,
    base_snapshot: Optional[str] = None,
    reuse_snapshot: Optional[str] = None,
):
    """One dump engine for either strategy — the campaign driver's unit.

    ``strategy`` is ``"logical"`` (BSD-style dump at ``level`` with base
    selection through ``dumpdates``) or ``"image"`` (block stream of
    ``snapshot_name``, incremental against ``base_snapshot`` when
    given).  ``reuse_snapshot`` names the snapshot a faulted attempt left
    behind, for a rerun that must replay the original op stream (see the
    engines' docstrings).  The returned generator plugs straight into
    :meth:`~repro.perf.executor.TimedRun.add_job`.
    """
    if strategy == "logical":
        return LogicalDump(
            fs, drive, level=level, subtree=subtree, dumpdates=dumpdates,
            snapshot_name=snapshot_name or reuse_snapshot,
            reuse_snapshot=reuse_snapshot is not None,
        ).run()
    if strategy == "image":
        return ImageDump(
            fs, drive, snapshot_name=snapshot_name,
            base_snapshot=base_snapshot, reuse_snapshot=reuse_snapshot,
        ).run()
    raise BackupError("unknown dump strategy %r" % (strategy,))


__all__ = [
    "build_dump_engine",
    "split_into_qtrees",
]
