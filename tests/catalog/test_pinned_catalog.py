"""The catalog's on-disk bytes, pinned.

``v1.catalog.json`` is a catalog image (``CATALOG_VERSION`` 1) and
``v1.catalog.json.journal`` the journal beside it, both written by
:func:`write_pinned`: a five-day campaign over a logical volume
(``home``) and an image volume (``rlse``) saves the image, then a
retention policy is set and applied, and that commit — the policy, the
retired sets and their recycled cartridges — goes to the journal.  A
change to how the catalog writes or reads either file shows here first.
To re-pin after a deliberate format change, run this module as a
script::

    PYTHONPATH=src python -m tests.catalog.test_pinned_catalog
"""

import json
import os
import shutil

import pytest

from repro.catalog import BackupCatalog
from repro.catalog.journal import journal_path
from repro.errors import CatalogError
from repro.manager import GFS, CampaignDriver, MediaPool, prune
from repro.units import MB
from repro.workload import WorkloadGenerator

from tests.conftest import make_fs

_DATA = os.path.join(os.path.dirname(__file__), "data")
_PINNED = os.path.join(_DATA, "v1.catalog.json")


def write_pinned(path):
    """Write the pinned catalog image plus its journal at ``path``."""
    catalog = BackupCatalog(path)
    pool = MediaPool(catalog)
    pool.add_blank(12, capacity=2 * MB)
    driver = CampaignDriver(catalog, pool, seed=7)
    for index, (name, strategy) in enumerate(
            [("home", "logical"), ("rlse", "image")]):
        fs = make_fs(name=name, blocks_per_disk=600)
        tree = WorkloadGenerator(seed=20 + index).populate(fs, MB // 4)
        driver.add_volume(fs, tree, strategy, GFS(2, 2))
    driver.run(5)
    catalog.save()  # the five days fold into the image; journal empty
    catalog.set_policy("home", "/", "redundancy 1", save=False)
    prune(catalog, pool, save=False)
    catalog.commit_dirty()
    return catalog


def _pinned(tmp_path):
    """The committed pair, copied where loading cannot touch the tree."""
    path = str(tmp_path / "v1.catalog.json")
    shutil.copyfile(_PINNED, path)
    shutil.copyfile(journal_path(_PINNED), journal_path(path))
    return path


def test_this_build_writes_the_pinned_bytes(tmp_path):
    path = str(tmp_path / "catalog.json")
    write_pinned(path)
    for written, pinned in ((path, _PINNED),
                            (journal_path(path), journal_path(_PINNED))):
        with open(written, "rb") as one, open(pinned, "rb") as other:
            assert one.read() == other.read(), os.path.basename(pinned)


def test_loading_reproduces_chains_dumpdates_and_ids(tmp_path):
    loaded = BackupCatalog.load(_pinned(tmp_path))
    # The journal holds one commit on top of the image.
    with open(journal_path(_PINNED)) as handle:
        assert [json.loads(line)["op"] for line in handle] == ["batch"]
    assert (loaded.next_set, loaded.next_cartridge) == (11, 13)
    assert loaded.policy_for("home") == "redundancy 1"
    assert [s.set_id for s in loaded.chain_for("home").sets] == ["S0009"]
    assert [s.set_id for s in loaded.chain_for("rlse", target_day=3).sets] \
        == ["S0002", "S0006", "S0008"]
    assert sorted(s.set_id for s in loaded.sets.values() if not s.ok) \
        == ["S0001", "S0003", "S0005", "S0007"]
    recycled = [loaded.media["crt%04d" % n] for n in (1, 3, 5, 7)]
    assert [(c.status, c.set_id, c.used) for c in recycled] \
        == [("scratch", None, 0)] * 4
    assert loaded.dumpdates.base_for("home", "/", 1) == (16, 0)  # (date, level)
    with pytest.raises(CatalogError, match="pruned"):
        loaded.chain_for("home", target_day=3)
    live = write_pinned(str(tmp_path / "live.json"))
    for fsid, day in (("home", None), ("rlse", None), ("rlse", 3)):
        assert ([s.to_dict() for s in loaded.chain_for(fsid, target_day=day).sets]
                == [s.to_dict() for s in live.chain_for(fsid, target_day=day).sets])
    # Dumpdates are rebuilt from the logical sets, retired ones included.
    assert loaded.dumpdates.history("rlse", "/") == []
    assert (loaded.dumpdates.history("home", "/")
            == live.dumpdates.history("home", "/"))
    for level in range(3):
        assert (loaded.dumpdates.base_for("home", "/", level)
                == live.dumpdates.base_for("home", "/", level))
    assert ({k: s.to_dict() for k, s in loaded.sets.items()}
            == {k: s.to_dict() for k, s in live.sets.items()})
    assert ({k: c.to_dict() for k, c in loaded.media.items()}
            == {k: c.to_dict() for k, c in live.media.items()})
    assert (loaded.next_set, loaded.next_cartridge, loaded.policies) \
        == (live.next_set, live.next_cartridge, live.policies)


def test_version_2_is_refused(tmp_path):
    path = _pinned(tmp_path)
    with open(path) as handle:
        document = json.load(handle)
    document["version"] = 2
    with open(path, "w") as handle:
        json.dump(document, handle)
    with pytest.raises(CatalogError, match="is version 2; this build reads"
                                           " version 1"):
        BackupCatalog.load(path)


if __name__ == "__main__":
    os.makedirs(_DATA, exist_ok=True)
    for stale in (_PINNED, journal_path(_PINNED)):
        if os.path.exists(stale):
            os.unlink(stale)
    write_pinned(_PINNED)
    os.unlink(_PINNED + ".lock")
