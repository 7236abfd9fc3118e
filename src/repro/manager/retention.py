"""Retention policies: which backup sets may be pruned.

Two classic policies, after barman's catalog model:

* :class:`Redundancy` — keep the last N *full chains* (a level-0 set and
  every incremental hanging off it).
* :class:`RecoveryWindow` — keep every set needed to restore to any
  point in the last N days, including the boundary chain: the newest
  set older than the window still anchors a restore *to* the window's
  far edge, so its whole chain survives.

Both compute keep-sets by chain closure over base links, so a policy can
never orphan an incremental's base — the invariant
:meth:`~repro.catalog.store.BackupCatalog.mark_obsolete` re-checks when
the decision is applied.
"""

from __future__ import annotations

import re
from typing import List, Optional, Set

from repro.errors import CatalogError


class RetentionPolicy:
    """Base class: decide which ok sets of one (fsid, subtree) survive."""

    def keep(self, catalog, fsid: str, subtree: str, now_day: int) -> Set[str]:
        raise NotImplementedError

    def obsolete(self, catalog, fsid: str, subtree: str,
                 now_day: int) -> List[str]:
        """Set ids to retire, whole chains at a time, oldest first."""
        ok_sets = catalog.live_sets(fsid, subtree)
        kept = self._close_over_bases(catalog, self.keep(
            catalog, fsid, subtree, now_day))
        return [s.set_id for s in ok_sets if s.set_id not in kept]

    @staticmethod
    def _close_over_bases(catalog, kept: Set[str]) -> Set[str]:
        """Add every base a kept set depends on (transitively)."""
        closed = set(kept)
        frontier = list(kept)
        while frontier:
            backup_set = catalog.get_set(frontier.pop())
            base = backup_set.base_set_id
            if base is not None and base not in closed:
                closed.add(base)
                frontier.append(base)
        return closed


class Redundancy(RetentionPolicy):
    """Keep the N most recent full chains."""

    def __init__(self, count: int):
        if count < 1:
            raise CatalogError("redundancy must keep at least one chain")
        self.count = count

    def keep(self, catalog, fsid: str, subtree: str, now_day: int) -> Set[str]:
        ok_sets = catalog.live_sets(fsid, subtree)
        roots = [s for s in ok_sets if s.is_full]
        kept_roots = {s.set_id for s in roots[-self.count:]}
        kept = set()
        for backup_set in ok_sets:
            root = catalog.root_of(backup_set.set_id)
            if root in kept_roots:
                kept.add(backup_set.set_id)
        return kept

    def __repr__(self) -> str:
        return "Redundancy(%d)" % self.count


class RecoveryWindow(RetentionPolicy):
    """Keep everything needed to restore to any day in the last N days."""

    def __init__(self, days: int):
        if days < 0:
            raise CatalogError("recovery window cannot be negative")
        self.days = days

    def keep(self, catalog, fsid: str, subtree: str, now_day: int) -> Set[str]:
        cutoff = now_day - self.days
        ok_sets = catalog.live_sets(fsid, subtree)
        kept = {s.set_id for s in ok_sets if s.day >= cutoff}
        # The boundary set: restoring to exactly the window's far edge
        # replays the newest set at or before the cutoff.
        older = [s for s in ok_sets if s.day < cutoff]
        if older:
            kept.add(older[-1].set_id)
        return kept

    def __repr__(self) -> str:
        return "RecoveryWindow(%d)" % self.days


_REDUNDANCY_RE = re.compile(r"^\s*redundancy\s+(\d+)\s*$", re.IGNORECASE)
_WINDOW_RE = re.compile(
    r"^\s*(?:recovery\s+)?window(?:\s+of)?\s+(\d+)(?:\s*d|\s+days?)?\s*$",
    re.IGNORECASE,
)


def parse_policy(text: str) -> RetentionPolicy:
    """Parse a policy string: ``redundancy N`` or ``window N [days]``."""
    match = _REDUNDANCY_RE.match(text)
    if match:
        return Redundancy(int(match.group(1)))
    match = _WINDOW_RE.match(text)
    if match:
        return RecoveryWindow(int(match.group(1)))
    raise CatalogError(
        "cannot parse retention policy %r (want 'redundancy N' or "
        "'window N days')" % (text,)
    )


def prune(catalog, pool=None, now_day: Optional[int] = None,
          save: bool = True) -> dict:
    """Apply every stored policy; returns {(fsid, subtree): [set ids]}.

    Marks whole chains obsolete in the catalog and — when a media
    ``pool`` is given — recycles their cartridges back to scratch.
    ``save=False`` leaves the commit to the caller (the fleet service
    group-commits its tenants' catalogs once per day).
    """
    if now_day is None:
        now_day = catalog.latest_day()
    retired = {}
    for fsid, subtree, text in catalog.policy_targets():
        policy = parse_policy(text)
        obsolete = policy.obsolete(catalog, fsid, subtree, now_day)
        if not obsolete:
            continue
        catalog.mark_obsolete(obsolete, save=False)
        if pool is not None:
            for set_id in obsolete:
                pool.recycle(catalog.get_set(set_id))
        retired[(fsid, subtree)] = obsolete
    problems = catalog.validate_no_orphans()
    if problems:
        raise CatalogError("prune broke a chain: %s" % "; ".join(problems))
    if save:
        catalog.commit_dirty()
    return retired


__all__ = [
    "RecoveryWindow",
    "Redundancy",
    "RetentionPolicy",
    "parse_policy",
    "prune",
]
