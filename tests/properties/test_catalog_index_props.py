"""The catalog's per-volume indexes answer what the full scans answered.

``BackupCatalog`` keeps every retired set as history but answers a query
about one volume from indexes that its set writers (``record_set``,
``load``, journal replay) and status writers (``mark_obsolete``,
``touch_set``) keep.  Random steps — sets recorded over a few file
systems, subtrees, both strategies, levels 0–9, snapshot bases and
day/date ties; retirements, refused ones included; status flips made
outside the catalog and touched; commits, compactions, and reloads over
a journal with a torn tail — are checked after every step against
in-test copies of the scans the indexes replaced.

A second test counts the sets a day's ``record_set`` and ``prune`` read,
with no clock: the same on 10 retired chains as on 1 000.  Only
``validate_no_orphans`` reads them all, deliberately.
"""

import os
import random
import tempfile
from contextlib import contextmanager

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.catalog import BackupCatalog
from repro.catalog.journal import journal_path
from repro.catalog.records import STATUS_OBSOLETE, STATUS_OK, BackupSet
from repro.errors import CatalogError
from repro.manager.retention import parse_policy, prune

_fast = settings(max_examples=25, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

FSIDS = ("home", "rlse")
SUBTREES = ("/", "/q1")
STRATEGIES = ("logical", "image")
SNAPSHOTS = ("s0", "s1", "s2", "s3")
POLICIES = ("redundancy 1", "redundancy 2", "window 3 days")


# -- the scans the indexes replaced ------------------------------------------

def scan_sets_for(catalog, fsid, subtree=None, strategy=None):
    out = [s for s in catalog.sets.values()
           if s.fsid == fsid
           and (subtree is None or s.subtree == subtree)
           and (strategy is None or s.strategy == strategy)]
    return sorted(out, key=lambda s: (s.day, s.date, s.set_id))


def scan_resolve_base(catalog, fsid, subtree, strategy, level, base_snapshot):
    if base_snapshot is not None:
        for backup_set in catalog.sets.values():
            if (backup_set.fsid == fsid
                    and backup_set.snapshot == base_snapshot):
                return backup_set.set_id
        raise CatalogError(
            "base snapshot %r of %s has no backup set in the catalog"
            % (base_snapshot, fsid))
    if level == 0:
        return None
    candidates = [s for s in catalog.sets.values()
                  if s.fsid == fsid and s.subtree == subtree
                  and s.strategy == strategy and s.level < level]
    if not candidates:
        raise CatalogError(
            "no lower-level set recorded for %s:%s below level %d"
            % (fsid, subtree, level))
    return max(candidates, key=lambda s: (s.date, s.day)).set_id


def scan_refusal(catalog, set_ids):
    """``mark_obsolete``'s orphan refusal message, or None."""
    retiring = set(set_ids)
    for backup_set in catalog.sets.values():
        if (backup_set.ok and backup_set.set_id not in retiring
                and backup_set.base_set_id in retiring):
            return ("cannot obsolete %s: surviving set %s depends on it"
                    % (backup_set.base_set_id, backup_set.set_id))
    return None


def scan_keep(text, catalog, fsid, subtree, now_day):
    ok_sets = [s for s in scan_sets_for(catalog, fsid, subtree) if s.ok]
    kind, count = text.split()[0], int(text.split()[1])
    if kind == "redundancy":
        kept_roots = {s.set_id for s in
                      [s for s in ok_sets if s.is_full][-count:]}
        return {s.set_id for s in ok_sets
                if catalog.root_of(s.set_id) in kept_roots}
    cutoff = now_day - count
    kept = {s.set_id for s in ok_sets if s.day >= cutoff}
    older = [s for s in ok_sets if s.day < cutoff]
    if older:
        kept.add(older[-1].set_id)
    return kept


def scan_obsolete(text, catalog, fsid, subtree, now_day):
    ok_sets = [s for s in scan_sets_for(catalog, fsid, subtree) if s.ok]
    closed = set(scan_keep(text, catalog, fsid, subtree, now_day))
    frontier = list(closed)
    while frontier:
        base = catalog.get_set(frontier.pop()).base_set_id
        if base is not None and base not in closed:
            closed.add(base)
            frontier.append(base)
    return [s.set_id for s in ok_sets if s.set_id not in closed]


def _outcome(call):
    try:
        return "ok", call()
    except CatalogError as error:
        return "error", str(error)


def _ids(sets):
    return [s.set_id for s in sets]


def check_queries(catalog):
    """Every indexed query against its scan."""
    for fsid in FSIDS + ("ghost",):
        for subtree in SUBTREES + (None,):
            for strategy in STRATEGIES + (None,):
                assert (_ids(catalog.sets_for(fsid, subtree, strategy))
                        == _ids(scan_sets_for(catalog, fsid, subtree,
                                              strategy)))
            if subtree is None:
                continue
            assert _ids(catalog.live_sets(fsid, subtree)) == [
                s.set_id for s in scan_sets_for(catalog, fsid, subtree)
                if s.ok]
            for strategy in STRATEGIES:
                for level in range(10):
                    assert _outcome(lambda: catalog._resolve_base(
                        fsid, subtree, strategy, level, None)) == _outcome(
                        lambda: scan_resolve_base(
                            catalog, fsid, subtree, strategy, level, None))
            now_day = catalog.latest_day()
            for text in POLICIES:
                policy = parse_policy(text)
                assert policy.keep(catalog, fsid, subtree, now_day) == \
                    scan_keep(text, catalog, fsid, subtree, now_day)
                assert policy.obsolete(catalog, fsid, subtree, now_day) == \
                    scan_obsolete(text, catalog, fsid, subtree, now_day)
        for snapshot in SNAPSHOTS + ("never",):
            assert _outcome(lambda: catalog._resolve_base(
                fsid, "/", "image", 1, snapshot)) == _outcome(
                lambda: scan_resolve_base(catalog, fsid, "/", "image", 1,
                                          snapshot))
    assert catalog.latest_day() == max(
        (s.day for s in catalog.sets.values()), default=0)
    seen = []
    for s in catalog.sets.values():
        if (s.fsid, s.subtree) not in seen:
            seen.append((s.fsid, s.subtree))
    assert catalog.volumes() == seen


# -- the steps -----------------------------------------------------------------

def step_record(rng, catalog):
    fsid, subtree = rng.choice(FSIDS), rng.choice(SUBTREES)
    strategy = rng.choice(STRATEGIES)
    level = 0 if rng.random() < 0.35 else rng.randint(1, 9)
    base_snapshot = (rng.choice(SNAPSHOTS + ("never",))
                     if rng.random() < 0.25 else None)
    want = _outcome(lambda: scan_resolve_base(
        catalog, fsid, subtree, strategy, level, base_snapshot))
    got = _outcome(lambda: catalog.record_set(
        fsid, subtree, strategy, level, day=rng.randrange(5),
        date=rng.randrange(4),
        snapshot=rng.choice(SNAPSHOTS) if rng.random() < 0.4 else None,
        base_snapshot=base_snapshot, save=False))
    if want[0] == "error":
        assert got == want
    else:
        assert got[0] == "ok" and got[1].base_set_id == want[1]


def step_retire(rng, catalog):
    ids = list(catalog.sets)
    if not ids:
        return
    chosen = rng.sample(ids, rng.randint(1, min(3, len(ids))))
    if rng.random() < 0.5:     # close over dependents: a call that succeeds
        frontier = list(chosen)
        while frontier:
            set_id = frontier.pop()
            for other in catalog.sets.values():
                if other.base_set_id == set_id and other.set_id not in chosen:
                    chosen.append(other.set_id)
                    frontier.append(other.set_id)
    refusal = scan_refusal(catalog, chosen)
    before = {set_id: s.status for set_id, s in catalog.sets.items()}
    got = _outcome(lambda: catalog.mark_obsolete(chosen, save=False))
    if refusal is not None:
        assert got == ("error", refusal)
        assert before == {i: s.status for i, s in catalog.sets.items()}
    else:
        assert got == ("ok", None)
        assert all(catalog.sets[i].status == STATUS_OBSOLETE for i in chosen)


def step_touch(rng, catalog):
    if catalog.sets:
        backup_set = catalog.sets[rng.choice(list(catalog.sets))]
        backup_set.status = rng.choice((STATUS_OK, STATUS_OBSOLETE))
        catalog.touch_set(backup_set.set_id)


def step_reload(rng, catalog):
    """Commit, then load the catalog back over a journal whose last line
    is torn."""
    catalog.commit_dirty()
    if not os.path.exists(catalog.path):
        catalog.save()
    if rng.random() < 0.7:
        with open(journal_path(catalog.path), "a") as handle:
            handle.write('{"op": "batch", "records": [{"op": "se')
    return BackupCatalog.load(catalog.path)


@_fast
@given(st.integers(0, 2 ** 32))
def test_indexed_queries_equal_the_scans(seed):
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as root:
        catalog = BackupCatalog(os.path.join(root, "cat.json"))
        catalog.compact_after = rng.choice((2, 8, 512))
        for _step in range(60):
            roll = rng.random()
            if roll < 0.5:
                step_record(rng, catalog)
            elif roll < 0.7:
                step_retire(rng, catalog)
            elif roll < 0.8:
                step_touch(rng, catalog)
            elif roll < 0.88:
                catalog.commit_dirty()
            elif roll < 0.93:
                catalog.save()
            else:
                catalog = step_reload(rng, catalog)
            check_queries(catalog)


def test_a_replayed_record_is_refiled():
    """A journal upsert replaces the set object: the indexes hold the
    new one (its status), not the one the image loaded."""
    with tempfile.TemporaryDirectory() as root:
        catalog = BackupCatalog(os.path.join(root, "cat.json"))
        full = catalog.record_set("home", "/", "logical", 0, 0, 10)
        catalog.mark_obsolete([full.set_id])
        loaded = BackupCatalog.load(catalog.path)
        assert loaded.live_sets("home", "/") == []
        assert loaded.sets_for("home")[0] is loaded.get_set(full.set_id)
        check_queries(loaded)


# -- stationarity ----------------------------------------------------------------

@contextmanager
def _set_reads(catalog):
    """Record which sets have an attribute read: ``reads["day"]`` outside
    ``validate_no_orphans``, ``reads["validate"]`` inside it."""
    reads = {"day": set(), "validate": set()}
    sink = [reads["day"]]
    validate = catalog.validate_no_orphans

    def spy(self, name):
        sink[0].add(id(self))
        return object.__getattribute__(self, name)

    def counted_validate():
        sink[0] = reads["validate"]
        try:
            return validate()
        finally:
            sink[0] = reads["day"]

    BackupSet.__getattribute__ = spy
    catalog.validate_no_orphans = counted_validate
    try:
        yield reads
    finally:
        del BackupSet.__getattribute__
        del catalog.validate_no_orphans


def _retired_history(chains):
    """A volume under ``redundancy 1`` that has retired ``chains`` chains
    of a full and two incrementals, and holds one live chain."""
    catalog = BackupCatalog()
    catalog.set_policy("home", "/", "redundancy 1", save=False)
    day = 0
    for chain in range(chains + 1):
        ids = [catalog.record_set("home", "/", "logical", level, day + level,
                                  100 + day + level, save=False).set_id
               for level in range(3)]
        day += 3
        if chain < chains:
            catalog.mark_obsolete(ids, save=False)
    return catalog, day


def _one_day(catalog, day):
    with _set_reads(catalog) as reads:
        catalog.record_set("home", "/", "logical", 0, day, 100 + day,
                           save=False)
        retired = prune(catalog, now_day=day, save=False)
    assert len(retired[("home", "/")]) == 3
    return reads


def test_a_day_reads_the_live_sets_not_the_history():
    small, large = (_one_day(*_retired_history(chains))
                    for chains in (10, 1000))
    assert len(small["day"]) == len(large["day"]) < 10
    # The invariant check alone reads every set, retired ones too.
    assert len(small["validate"]) == 3 * 11 + 1
    assert len(large["validate"]) == 3 * 1001 + 1
